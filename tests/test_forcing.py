"""Forcing catalog flags, hypothesis audits, and the exact splits."""

import dataclasses

import numpy as np
import pytest

from conftest import mode_row
from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.forcing import (TAGS, _hypothesis_constants, apply_forcing,
                            make_catalog_forcing)
from surfns.geometry import grid_truncation
from surfns.harmonics import (SpectralState, SphereTransform, mode_index, n_modes,
                              random_band_limited)
from surfns.harness import build_forcing, default_config
from surfns.killing import killing_basis
from test_killing import pk_project


# --- the Monte-Carlo audit: the sampled oracle for the derived constants -----

def _rowdot(X, Y):
    """Dot product of each row pair of two (k, n) stacks, summed as np.dot."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


@dataclasses.dataclass
class HypothesisReport:
    tag: str
    n_samples: int
    c1_hat: float
    sup_f0_nodal: float
    c2_hat: float
    c5_hat: float
    c6_hat: float
    killing_power_min: float
    killing_power_max: float
    violations: list

    @property
    def ok(self):
        return not self.violations


def hypothesis_check(spec, n_samples, seed):
    """Monte-Carlo estimates of the hypothesis constants and flag audit on
    the grid of ``spec.basis``.

    Violations of declared flags become report entries, never exceptions.
    c1_hat and c2_hat are lower bounds of c1 and c2; c5_hat and c6_hat are
    a least-squares fit of the non-Killing power, not bounds.
    """
    if n_samples < 10:
        raise ParameterError("need at least 10 samples")
    grid = spec.basis.grid
    L = min(8, grid_truncation(grid))
    tr = SphereTransform(grid, L)
    tol = 1e-8
    violations = []

    f0 = apply_forcing(spec, np.zeros((1, n_modes(L))))[0]
    c1_hat = float(np.linalg.norm(f0))
    sup_f0 = float(np.abs(tr.engine.synthesize(f0[None], tr.FIELD)).max())
    if c1_hat > spec.flags.c1 + tol:
        violations.append(f"c1: measured {c1_hat:.6g} > declared {spec.flags.c1:.6g}")

    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 63 - 1, size=2 * n_samples)
    U = np.array([random_band_limited(tr, int(s)).coeffs for s in seeds])
    U1, U2 = U[:n_samples], U[n_samples:]
    F1 = apply_forcing(spec, U1)
    df = np.linalg.norm(F1 - apply_forcing(spec, U2), axis=1)
    du = np.linalg.norm(U1 - U2, axis=1)
    c2_hat = float(np.max(df[du > 0] / du[du > 0], initial=0.0))
    if c2_hat > spec.flags.c2 + tol:
        violations.append(f"c2: measured {c2_hat:.6g} > declared {spec.flags.c2:.6g}")

    # per sample: Killing and non-Killing power, ||u_NK||, the audit scale
    power_k = _rowdot(F1[:, :3], U1[:, :3])
    power_nk = _rowdot(F1[:, 3:], U1[:, 3:])
    b = np.sqrt(_rowdot(U1[:, 3:], U1[:, 3:]))
    scale = np.maximum(1.0, _rowdot(U1, U1))
    declared = spec.flags.c5 * b ** 2 + spec.flags.c6 * b
    audits = np.stack([spec.flags.nega & (power_k > tol * scale),
                       spec.flags.pos & (power_k < -tol * scale),
                       power_nk > declared + tol * scale], axis=1)
    texts = ("nega: sample {i} has Killing power {k:.3e}",
             "pos: sample {i} has Killing power {k:.3e}",
             "extra: sample {i} non-Killing power {n:.3e} exceeds envelope {d:.3e}")
    violations += [texts[j].format(i=i, k=power_k[i], n=power_nk[i], d=declared[i])
                   for i, j in zip(*np.nonzero(audits))]

    coef, *_ = np.linalg.lstsq(np.stack([b ** 2, b], axis=1), power_nk, rcond=None)
    c5_hat, c6_hat = (float(max(v, 0.0)) for v in coef)

    return HypothesisReport(spec.tag, n_samples, c1_hat, sup_f0, c2_hat,
                            c5_hat, c6_hat, float(power_k.min()), float(power_k.max()),
                            violations)


# --- the catalog ---------------------------------------------------------------


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


def test_f2_requires_nonkilling_direction(kb):
    for m in (-1, 0, 1):
        with pytest.raises(ParameterError, match="orthogonal to the Killing space"):
            make_catalog_forcing("f2_plus", {"v": mode_row(8, 1, m) + mode_row(8, 2, m)}, kb)


def test_fixed_field_must_be_a_row_of_the_grid_truncation(kb):
    # the grid resolves L = 8: a row of another truncation, or nodal
    # components, is refused
    for tag, key in (("constant_field", "g"), ("f2_plus", "v")):
        for row in (np.ones(n_modes(7)), np.ones(n_modes(9)), kb.fields[0].comps):
            with pytest.raises(ParameterError, match="coefficients"):
                make_catalog_forcing(tag, {key: row}, kb)


@pytest.mark.parametrize("tag", ["constant_field", "f2_plus", "f2_minus"])
def test_build_forcing_puts_the_amplitude_on_one_row(sphere8, kb, tag):
    # exactly: no synthesis and analysis of the mode leaves rounding noise
    cfg = dict(default_config(), **{"forcing.tag": tag, "forcing.mode_l": 3,
                                    "forcing.mode_m": -2, "forcing.amplitude": 0.7})
    want = np.zeros(n_modes(8))
    want[mode_index(8, 3, -2)] = 0.7
    assert build_forcing(cfg, sphere8, kb).f.tobytes() == want.tobytes()


def test_f4_point_must_lie_on_surface(kb):
    with pytest.raises(ParameterError):
        make_catalog_forcing("f4_plus", {"p": np.array([0.0, 0.0, 2.0])}, kb)


def test_f3_minus_sign_on_samples(sphere8, kb):
    rep = hypothesis_check(make_catalog_forcing("f3_minus", {}, kb), 25, seed=3)
    assert rep.ok
    assert rep.killing_power_max <= 0.0


def test_f2_plus_c1_estimate(sphere8, kb, tr8):
    spec = make_catalog_forcing("f2_plus",
                                {"v": mode_row(8, 2, 0)}, kb)
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
        make_catalog_forcing("f2_plus", {"v": mode_row(8, 2, 1)}, kb),
        make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb),
        make_catalog_forcing("f3_plus", {}, kb),
        make_catalog_forcing("f3_minus", {}, kb),
        make_catalog_forcing("constant_field",
                             {"g": mode_row(8, 3, 0)}, kb),
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
        tr = SphereTransform(grid, 8)
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
    params = {"g": mode_row(8, 3, 0) + 0.5 * mode_row(8, 1, 1), "v": mode_row(8, 2, 1),
              "c": 2.0, "axis": 1,
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
    # F(0) holds the coefficients at the grid's L = 8; in the degree-major
    # layout every lower truncation's analysis of its field is their prefix
    for tag, key, norm_killing in (("constant_field", "g", None), ("f2_minus", "v", 0.0)):
        c = random_band_limited(tr8, 31, norm_killing=norm_killing).coeffs
        g = tr8.synthesize(SpectralState(8, c))
        spec = make_catalog_forcing(tag, {key: c}, kb)
        for l in range(1, 9):
            ref = SphereTransform(sphere8, l).analyze(g).coeffs
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


# --- the hypothesis constants derived from (f, K, s) ---------------------------

# The table the catalog declared by hand before its constants were derived:
# (c1, c2, nega, pos, c5, c6, independent_of_u) of every tag of _catalog(grid).
_DECLARED_R1 = {
    "zero": (0.0, 0.0, True, True, 0.0, 0.0, True),
    "constant_field": (1.1180339887498953, 0.0, False, False, 0.0, 1.0000000000000004, True),
    "f2_plus": (0.9999999999999999, 1.0, False, True, 0.0, 0.9999999999999999, False),
    "f2_minus": (0.9999999999999999, 1.0, True, False, 0.0, 0.9999999999999999, False),
    "f3_plus": (0.0, 1.0, False, True, 1.0, 0.0, False),
    "f3_minus": (0.0, 1.0, True, False, 0.0, 0.0, False),
    "f4_plus": (0.0, 1.9982804969366292, False, True, 1.0, 0.0, False),
    "f4_minus": (0.0, 1.9982804969366292, True, False, 1.0, 0.0, False),
    "f5": (0.0, 1.0, True, False, 0.0, 0.0, False),
    "constant_killing": (2.0, 0.0, False, False, 0.0, 0.0, True),
}
_DECLARED = {
    1.0: _DECLARED_R1,
    2.0: {**_DECLARED_R1,
          "f4_plus": (0.0, 3.9965609938732585, False, True, 1.0, 0.0, False),
          "f4_minus": (0.0, 3.9965609938732585, True, False, 1.0, 0.0, False),
          "f5": (0.0, 1.0, True, False, 1.0, 0.0, False)},
    0.5: {"f4_plus": (0.0, 1.0, False, True, 1.0, 0.0, False),
          "f4_minus": (0.0, 1.0, True, False, 1.0, 0.0, False),
          "f5": (0.0, 1.0, True, False, 0.0, 0.0, False)},
}


@pytest.mark.parametrize("R", sorted(_DECLARED))
def test_derived_constants_match_the_declared_table(R):
    for spec in _catalog(geo.build_sphere_grid(8, R)):
        if spec.tag not in _DECLARED[R]:
            continue
        declared = _DECLARED[R][spec.tag]
        derived = dataclasses.astuple(spec.flags)
        assert derived[2:4] == declared[2:4] and derived[6] == declared[6], spec.tag
        if spec.tag.startswith("f4"):
            # the old bound max(1, max |x - p|) against the exact max(||K||_2, s);
            # ||K||_2 is 1.37 R, so s = 1 sets c2 at R = 0.5 alone
            assert derived[1] == max(np.linalg.norm(spec.K, 2), 1.0) <= declared[1], spec.tag
            declared = declared[:1] + derived[1:2] + declared[2:]
        np.testing.assert_allclose(derived, declared, rtol=0, atol=1e-12, err_msg=spec.tag)


@pytest.mark.parametrize("R", [1.0, 2.0])
@pytest.mark.parametrize("seed", [17, 3])
def test_audit_finds_no_violation_of_the_derived_constants(sphere8, sphere8_r2, R, seed):
    for spec in _catalog(sphere8 if R == 1.0 else sphere8_r2):
        rep = hypothesis_check(spec, 20, seed)
        assert rep.ok, (spec.tag, rep.violations)
        # only c1_hat and c2_hat bound their constants from below; the
        # least-squares c5_hat may exceed c5
        assert rep.c1_hat == pytest.approx(spec.flags.c1, abs=1e-12)
        assert rep.c2_hat <= spec.flags.c2 + 1e-12


@pytest.mark.parametrize("R,tag,field,value", [
    (1.0, "f3_plus", "c2", 0.5),
    (2.0, "f5", "c5", 0.0),
    (1.0, "f3_minus", "pos", True),
])
def test_audit_catches_a_misdeclared_constant(sphere8, sphere8_r2, R, tag, field, value):
    spec = make_catalog_forcing(tag, {}, killing_basis(sphere8 if R == 1.0 else sphere8_r2))
    assert getattr(spec.flags, field) != value
    spec.flags = dataclasses.replace(spec.flags, **{field: value})
    assert not hypothesis_check(spec, 20, seed=17).ok


def test_indefinite_killing_map_has_no_sign(kb):
    # no catalog K is indefinite: nega and pos read the two extreme eigenvalues
    K = np.diag([1.0, -1.0, 0.5])
    spec = make_catalog_forcing("zero", {}, kb)
    spec = dataclasses.replace(spec, K=K, flags=_hypothesis_constants(spec.f, K, 0.0))
    assert not spec.flags.nega and not spec.flags.pos and spec.flags.c2 == 1.0
    assert hypothesis_check(spec, 20, seed=17).ok
