"""Killing basis, the orthogonal projector, and Korn constants."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.harmonics import SpectralState, get_transform, random_band_limited
from surfns.killing import (killing_basis, killing_coefficients, korn_constant,
                            pk_project)


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


def test_sphere_dimension_and_gram(sphere8, kb):
    assert kb.n == 3
    gram = np.array([[geo.l2_inner(sphere8, a, b) for b in kb.fields]
                     for a in kb.fields])
    assert np.abs(gram - np.eye(3)).max() <= 1e-12


def test_sphere_strain_residual(sphere8, kb):
    for v in kb.fields:
        assert geo.strain_norm(sphere8, v) <= 1e-9 * geo.h1_norm(sphere8, v)


def test_sphere_normalization_oracle(sphere8, kb, rotation_field):
    # v_j = (e_j x x) sqrt(3/(8 pi)) up to sign; ||e_j x x||^2 = 8 pi / 3
    scale = np.sqrt(3.0 / (8.0 * np.pi))
    for j in range(3):
        rot = rotation_field(sphere8, j)
        assert abs(abs(geo.l2_inner(sphere8, kb.fields[j], rot))
                   - np.sqrt(8 * np.pi / 3)) <= 1e-10
        dev = np.abs(np.abs(kb.fields[j].comps) - scale * np.abs(rot.comps)).max()
        assert dev <= 1e-10


def test_torus_killing(torus64):
    b = killing_basis(torus64)
    assert b.n == 1
    v = b.fields[0]
    assert geo.strain_norm(torus64, v) <= 1e-9 * geo.h1_norm(torus64, v)
    # tangent to the toroidal (azimuthal) direction
    assert np.abs(v.comps[:, 1]).max() <= 1e-12


def test_unsupported_geometry_raises(sphere8):
    fake = sphere8.with_rotated_frame(0.0)
    fake.kind = "plane"
    with pytest.raises(ParameterError):
        killing_basis(fake)


def test_pk_project_basis_vector(sphere8, kb):
    uk, unk = pk_project(kb, kb.fields[0])
    assert np.abs(uk.comps - kb.fields[0].comps).max() <= 1e-12
    assert np.abs(unk.comps).max() <= 1e-12


def test_pk_project_toroidal_mode(sphere8, kb, tr8):
    f20 = tr8.toroidal_basis_field(2, 0)
    uk, unk = pk_project(kb, f20)
    assert geo.l2_norm(sphere8, uk) <= 1e-10


def test_pk_project_pythagoras(sphere8, kb, tr8):
    f20 = tr8.toroidal_basis_field(2, 0)
    u = geo.TangentialField(sphere8, 2.0 * kb.fields[0].comps + f20.comps)
    uk, unk = pk_project(kb, u)
    assert geo.l2_norm(sphere8, uk) == pytest.approx(2.0, abs=1e-10)
    assert geo.l2_norm(sphere8, unk) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(uk.comps + unk.comps - u.comps).max() <= 1e-12
    for v in kb.fields:
        assert abs(geo.l2_inner(sphere8, unk, v)) <= 1e-10
    total = geo.l2_inner(sphere8, u, u)
    split = geo.l2_inner(sphere8, uk, uk) + geo.l2_inner(sphere8, unk, unk)
    assert abs(total - split) <= 1e-10 * total


def test_projector_idempotent(sphere8, kb, tr8):
    s = random_band_limited(tr8, 64)
    u = tr8.synthesize(s)
    uk, _ = pk_project(kb, u)
    uk2, rest = pk_project(kb, uk)
    assert np.abs(uk2.comps - uk.comps).max() <= 1e-12
    assert np.abs(rest.comps).max() <= 1e-12


def test_killing_coefficients_examples(sphere8, kb):
    a = killing_coefficients(kb, kb.fields[1])
    assert np.abs(a - [0.0, 1.0, 0.0]).max() <= 1e-12
    zero = geo.TangentialField(sphere8, np.zeros((sphere8.n_nodes, 2)))
    assert np.abs(killing_coefficients(kb, zero)).max() == 0.0
    combo = geo.TangentialField(
        sphere8, 3.0 * kb.fields[0].comps - 4.0 * kb.fields[2].comps)
    assert np.linalg.norm(killing_coefficients(kb, combo)) == pytest.approx(5.0, abs=1e-10)


def test_alpha_from_state_matches_quadrature(sphere8, kb, tr8):
    s = random_band_limited(tr8, 17)
    u = tr8.synthesize(s)
    a_quad = killing_coefficients(kb, u)
    a_spec = kb.alpha_from_state(s)
    assert np.abs(a_quad - a_spec).max() <= 1e-10


def test_killing_h1_ratio_constant(sphere8, kb):
    # finite-dimensional norm equivalence: the H1/L2 ratio is the same for
    # every unit Killing combination
    rng = np.random.default_rng(6)
    ratios = []
    for _ in range(8):
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        v = geo.TangentialField(
            sphere8, sum(c * f.comps for c, f in zip(w, kb.fields)))
        ratios.append(geo.h1_norm(sphere8, v) / geo.l2_norm(sphere8, v))
    assert max(ratios) - min(ratios) <= 1e-8


def test_korn_strain_form_excludes_killing(sphere8, tr8):
    # the strain form evaluated on the degree-1 block vanishes
    G = np.stack([tr8.grad_synthesize(SpectralState(8, e)).comps
                  for e in np.eye(tr8.n_modes)[:3]])
    E = 0.5 * (G + np.swapaxes(G, 2, 3))
    w4 = np.repeat(sphere8.weights, 4)
    kill = (E[:3].reshape(3, -1) * w4[None, :]) @ E[:3].reshape(3, -1).T
    assert np.abs(kill).max() <= 1e-10


def test_korn_constant_value_and_convergence(sphere8, sphere16):
    res8 = korn_constant(sphere8, 8)
    res16 = korn_constant(sphere16, 16)
    assert abs(res16.c_p - res8.c_p) <= 1e-2 * res16.c_p
    # analytic extremizer is degree 2: C_P^2 = 2 l (l+1) / (l(l+1) - 2) at l = 2
    assert res16.c_p == pytest.approx(np.sqrt(3.0), rel=1e-10)
    quots = [res16.per_degree[l] for l in sorted(res16.per_degree)]
    assert all(a >= b for a, b in zip(quots, quots[1:]))


def test_korn_inequality_random_samples(sphere16):
    res = korn_constant(sphere16, 16)
    tr = get_transform(sphere16, 16)
    for i in range(100):
        s = random_band_limited(tr, 8000 + i, norm_killing=0.0)
        v = tr.synthesize(s)
        lhs = geo.h1_norm(sphere16, v)
        rhs = res.c_p * geo.strain_norm(sphere16, v)
        assert lhs <= (1.0 + 1e-8) * rhs


def test_korn_bad_truncation(sphere8):
    with pytest.raises(ParameterError):
        korn_constant(sphere8, 1)


def test_torus_korn(torus64):
    res = korn_constant(torus64)
    assert np.isfinite(res.c_p) and res.c_p > 1.0
    # cap convergence: richer stream-function family, same constant
    res2 = korn_constant(torus64, fourier_cap=10)
    assert abs(res2.c_p - res.c_p) <= 5e-2 * res.c_p


def test_korn_constant_closed_form():
    # the extremizer is degree 2, where C_P^2 = (R^2 + 5) / 2
    for R in (1.0, 2.0):
        for L in (8, 16, 32):
            res = korn_constant(geo.build_sphere_grid(L, R), L)
            exact = np.sqrt((R * R + 5.0) / 2.0)
            assert abs(res.c_p - exact) <= 1e-12 * exact


def test_korn_blocks_match_dense_eigensolve():
    # oracle: the full generalized eigenproblem on the l >= 2 modes
    import scipy.linalg
    for R in (1.0, 2.0):
        grid = geo.build_sphere_grid(6, R)
        tr = get_transform(grid, 6)
        every = [np.arange(tr.n_modes)]
        S = tr.gradient_form(grid.weights, parts=every)[0][3:, 3:]
        H = tr.gradient_form(grid.weights, strain=False, parts=every)[0][3:, 3:]
        mu = scipy.linalg.eigh(H + np.eye(H.shape[0]), S, eigvals_only=True)
        res = korn_constant(grid, 6)
        assert np.abs(res.eigenvalues - mu).max() <= 1e-12 * mu.max()
