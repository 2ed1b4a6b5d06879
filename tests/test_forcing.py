"""Forcing catalog flags, hypothesis audits, and the exact splits."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.forcing import (TAGS, apply_forcing, hypothesis_check,
                            make_catalog_forcing)
from surfns.harmonics import SpectralState, get_transform, n_modes, random_band_limited
from surfns.killing import killing_basis, pk_project


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


def _apply(spec, s):
    """apply_forcing on the one-row stack of the SpectralState s, as a state."""
    return SpectralState(s.L, apply_forcing(spec, s.coeffs[None])[0])


def test_f3_minus_flags(kb):
    spec = make_catalog_forcing("f3_minus", {}, kb)
    assert spec.flags.nega and not spec.flags.pos
    assert spec.flags.c2 == 1.0
    assert spec.flags.c1 == 0.0


def test_zero_flags(kb):
    spec = make_catalog_forcing("zero", {}, kb)
    assert spec.flags.c1 == 0.0 and spec.flags.c2 == 0.0
    assert spec.flags.nega and spec.flags.pos


def test_constant_killing_flags(kb):
    spec = make_catalog_forcing("constant_killing", {"c": 1.0, "axis": 1}, kb)
    assert spec.flags.independent_of_u
    assert not spec.flags.nega and not spec.flags.pos
    assert spec.flags.uk1


def test_f2_requires_nonkilling_direction(kb):
    with pytest.raises(ParameterError):
        make_catalog_forcing("f2_plus", {"v": kb.fields[0]}, kb)


def test_f4_point_must_lie_on_surface(kb):
    with pytest.raises(ParameterError):
        make_catalog_forcing("f4_plus", {"p": np.array([0.0, 0.0, 2.0])}, kb)


def test_f3_minus_sign_on_samples(sphere8, kb):
    rep = hypothesis_check(make_catalog_forcing("f3_minus", {}, kb), 25, seed=3)
    assert rep.ok
    assert rep.killing_power_max <= 0.0


def test_f2_plus_c1_estimate(sphere8, kb, tr8):
    spec = make_catalog_forcing("f2_plus",
                                {"v": tr8.toroidal_basis_field(2, 0)}, kb)
    rep = hypothesis_check(spec, 20, seed=5)
    assert rep.ok
    assert abs(rep.c1_hat - 1.0) <= 1e-8


def test_f5_satisfies_extra2(sphere8_r2, kb):
    basis2 = killing_basis(sphere8_r2)
    spec = make_catalog_forcing("f5", {}, basis2)
    rep = hypothesis_check(spec, 20, seed=11)
    assert rep.ok
    assert np.isfinite(rep.c5_hat) and np.isfinite(rep.c6_hat)
    # on the radius-2 sphere the non-Killing power is exactly (R-1)||u_NK||^2
    assert rep.c5_hat == pytest.approx(1.0, abs=1e-6)


def test_f5_unit_sphere_degenerates(sphere8, kb, tr8):
    # |x| = 1 on the unit sphere, so f5 = -P_K u exactly
    spec = make_catalog_forcing("f5", {}, kb)
    s = random_band_limited(tr8, 8)
    out = _apply(spec, s)
    assert np.abs(out.coeffs[:3] + s.coeffs[:3]).max() <= 1e-10
    assert np.abs(out.coeffs[3:]).max() <= 1e-10


def test_affine_tags_exact_lipschitz(sphere8, kb, tr8):
    specs = [
        make_catalog_forcing("f2_plus", {"v": tr8.toroidal_basis_field(2, 1)}, kb),
        make_catalog_forcing("f2_minus", {"v": tr8.toroidal_basis_field(2, 1)}, kb),
        make_catalog_forcing("f3_plus", {}, kb),
        make_catalog_forcing("f3_minus", {}, kb),
        make_catalog_forcing("constant_field",
                             {"g": tr8.toroidal_basis_field(3, 0)}, kb),
        make_catalog_forcing("constant_killing", {"c": 2.0, "axis": 0}, kb),
    ]
    rng = np.random.default_rng(13)
    for spec in specs:
        for i in range(10):
            u1 = SpectralState(8, rng.standard_normal(80))
            u2 = SpectralState(8, rng.standard_normal(80))
            df = _apply(spec, u1).coeffs \
                - _apply(spec, u2).coeffs
            bound = spec.flags.c2 * np.linalg.norm(u1.coeffs - u2.coeffs)
            assert np.linalg.norm(df) <= bound + 1e-12


def test_f4_split_matches_weighted_killing_part(sphere8, kb, tr8):
    # P_K f4 = +/- P_K(|x - p| u_K), f4_NK = u_NK, both verified nodally
    p = np.array([0.0, 0.0, 1.0])
    s = random_band_limited(tr8, 21)
    for tag, sign in (("f4_plus", 1.0), ("f4_minus", -1.0)):
        spec = make_catalog_forcing(tag, {"p": p}, kb)
        out = _apply(spec, s)
        f_nodal = tr8.synthesize(out)
        fk, fnk = pk_project(kb, f_nodal)
        # oracle: weight the nodal Killing part and project by quadrature
        uk_nodal, unk_nodal = pk_project(kb, tr8.synthesize(s))
        w = np.linalg.norm(sphere8.nodes - p[None, :], axis=1)
        weighted = geo.TangentialField(sphere8, w[:, None] * uk_nodal.comps)
        wk, _ = pk_project(kb, weighted)
        assert np.abs(fk.comps - sign * wk.comps).max() <= 1e-9
        assert np.abs(fnk.comps - unk_nodal.comps).max() <= 1e-9


def test_hypothesis_check_flags_violations(sphere8, kb):
    # declare a too-small Lipschitz constant and watch the audit notice
    spec = make_catalog_forcing("f3_plus", {}, kb)
    spec.flags.c2 = 0.5
    rep = hypothesis_check(spec, 15, seed=2)
    assert not rep.ok
    assert any("c2" in v for v in rep.violations)


def test_hypothesis_check_needs_samples(sphere8, kb):
    with pytest.raises(ParameterError):
        hypothesis_check(make_catalog_forcing("zero", {}, kb), 5, 1)


def test_f4_hypothesis_audit(sphere8, kb):
    p = np.array([0.0, 0.0, 1.0])
    for tag in ("f4_plus", "f4_minus"):
        spec = make_catalog_forcing(tag, {"p": p}, kb)
        rep = hypothesis_check(spec, 15, seed=6)
        assert rep.ok
        # f4's non-Killing power is exactly ||u_NK||^2
        assert rep.c5_hat == pytest.approx(1.0, abs=1e-6)


def test_f4_f5_match_nodal_routes(sphere8, sphere8_r2):
    # oracle: the nodal synthesis/analysis routes, against the closed-form
    # maps on the coefficients (f4's 3x3 Killing block, f5's (R - 1) c)
    for grid in (sphere8, sphere8_r2):
        kb = killing_basis(grid)
        tr = get_transform(grid, 8)
        p = grid.R * np.array([1.0, 2.0, 2.0]) / 3.0
        wdist = np.linalg.norm(grid.nodes - p[None, :], axis=1)[:, None]
        radius = np.linalg.norm(grid.nodes, axis=1)[:, None]
        for i in range(3):
            s = random_band_limited(tr, 60 + i)
            u = tr.synthesize(s)
            cw = tr.analyze(geo.TangentialField(grid, radius * u.comps)).coeffs
            cw[:3] = 0.0
            out = _apply(make_catalog_forcing("f5", {}, kb), s)
            assert np.abs(out.coeffs - (cw - s.coeffs)).max() <= 1e-13

            uk = sum(a * v.comps for a, v in zip(kb.alpha(s.coeffs), kb.fields))
            weighted = geo.TangentialField(grid, wdist * uk)
            beta = np.array([geo.l2_inner(grid, weighted, v) for v in kb.fields])
            for tag, sign in (("f4_plus", 1.0), ("f4_minus", -1.0)):
                expected = s.coeffs.copy()
                expected[:3] = sign * kb.l1_map.T @ beta
                out = _apply(make_catalog_forcing(tag, {"p": p}, kb), s)
                assert np.abs(out.coeffs - expected).max() <= 1e-13


def _catalog(grid):
    """Every catalog tag on ``grid``, each with the parameters it reads."""
    kb = killing_basis(grid)
    tr = get_transform(grid, 8)
    g = geo.TangentialField(grid, tr.toroidal_basis_field(3, 0).comps
                            + 0.5 * tr.toroidal_basis_field(1, 1).comps)
    params = {"g": g, "v": tr.toroidal_basis_field(2, 1), "c": 2.0, "axis": 1,
              "p": grid.R * np.array([1.0, 2.0, 2.0]) / 3.0}
    return [make_catalog_forcing(tag, params, kb) for tag in TAGS]


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_every_tag_is_its_affine_map(sphere8, sphere8_r2, R):
    # F(a x + (1 - a) y) = a F(x) + (1 - a) F(y), and F(c) - F(0) is K c on
    # the Killing rows and s c on the others
    rng = np.random.default_rng(23)
    a = 0.3
    for spec in _catalog(sphere8 if R == 1.0 else sphere8_r2):
        x, y = rng.standard_normal((2, 3, n_modes(8)))
        fx, fy = apply_forcing(spec, x), apply_forcing(spec, y)
        mixed = apply_forcing(spec, a * x + (1 - a) * y)
        assert np.abs(mixed - (a * fx + (1 - a) * fy)).max() <= 1e-13, spec.tag
        lin = fx - apply_forcing(spec, np.zeros((1, n_modes(8))))
        assert np.abs(lin[:, :3] - x[:, :3] @ spec.K.T).max() <= 1e-13, spec.tag
        assert np.abs(lin[:, 3:] - spec.s * x[:, 3:]).max() <= 1e-13, spec.tag


def test_fixed_part_prefix_is_each_truncation(sphere8, kb, tr8):
    # F(0) is analyzed once at the grid's L = 8; in the degree-major layout
    # every lower truncation reads its prefix
    for tag, key, norm_killing in (("constant_field", "g", None), ("f2_minus", "v", 0.0)):
        g = tr8.synthesize(random_band_limited(tr8, 31, norm_killing=norm_killing))
        spec = make_catalog_forcing(tag, {key: g}, kb)
        for l in range(1, 9):
            ref = get_transform(sphere8, l).analyze(g).coeffs
            assert np.abs(spec.f[:n_modes(l)] - ref).max() <= 1e-14 * np.abs(spec.f).max()


def test_apply_forcing_rejects_a_stack_wider_than_its_grid(sphere8):
    for spec in _catalog(sphere8):
        with pytest.raises(ParameterError):
            apply_forcing(spec, np.zeros((1, n_modes(10))))


def test_catalog_forcing_is_sphere_only(torus64):
    kb = killing_basis(torus64)
    for tag in TAGS:
        with pytest.raises(ParameterError, match="sphere-only"):
            make_catalog_forcing(tag, {}, kb)
