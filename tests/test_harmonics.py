"""Toroidal transforms: orthonormality, round trips, Leray projection,
Parseval, reality, the dual-route gradient profiles, the per-order slot
table, the order-paired engine against a padded reference, and table
memory."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.harmonics import (SpectralState, dealias_rule, get_transform,
                              mode_index, n_modes, random_band_limited)
from surfns.operators import convective_term
from surfns._legendre import plm_tables


def test_dealias_rule_values():
    assert dealias_rule(8).degree == 12
    assert dealias_rule(16).degree == 24
    assert dealias_rule(21).degree == 32
    rule = dealias_rule(8)
    assert rule.n_lat == 13 and rule.n_lon == 26


def test_mode_layout():
    assert n_modes(8) == 80
    assert mode_index(8, 1, 0) == 0
    assert mode_index(8, 1, 1) == 1
    assert mode_index(8, 1, -1) == 2
    assert mode_index(8, 2, 0) == 3
    with pytest.raises(ParameterError):
        mode_index(8, 9, 0)


def test_transform_mode_labels_match_mode_index():
    grid = geo.build_sphere_grid(12, 1.0)
    for L in range(1, 13):
        tr = get_transform(grid, L)
        assert tr.mode_l.size == tr.mode_m.size == n_modes(L)
        for l in range(1, L + 1):
            for m in range(-l, l + 1):
                k = mode_index(L, l, m)
                assert (tr.mode_l[k], tr.mode_m[k]) == (l, m)


def test_slot_layout():
    # every mode sits in exactly one valid slot, at row 2|m| + (m < 0) and
    # column l - 1; the invalid slots read mode 0
    for L in (1, 2, 8, 13):
        tr = get_transform(geo.build_sphere_grid(max(L, 2), 1.0), L)
        valid = tr.slot_valid
        assert valid.shape == (2 * L + 2, L)
        assert np.array_equal(np.sort(tr.slot_mode[valid]), np.arange(tr.n_modes))
        row, col = np.nonzero(valid)
        k = tr.slot_mode[valid]
        assert np.array_equal(row, 2 * np.abs(tr.mode_m[k]) + (tr.mode_m[k] < 0))
        assert np.array_equal(col, tr.mode_l[k] - 1)
        assert not tr.slot_mode[~valid].any()
        # valid slots are l >= max(1, m), bar the sine row of m = 0: they trail each row
        m, s = np.divmod(np.arange(2 * L + 2), 2)
        expected = np.arange(1, L + 1) >= np.maximum(m, 1)[:, None]
        expected[(m == 0) & (s == 1)] = False
        assert np.array_equal(valid, expected)


def test_transform_tabulates_legendre_to_its_own_degree(monkeypatch):
    # the transform reads degrees <= L only, whatever the grid resolves; its
    # engine tabulates the Legendre functions
    import surfns.geometry
    asked = []

    def record(lmax, x, real=surfns.geometry.plm_tables):
        asked.append(lmax)
        return real(lmax, x)
    monkeypatch.setattr(surfns.geometry, "plm_tables", record)
    for L in (8, 16):
        get_transform(geo.build_sphere_grid(L, 1.0), L)
    assert asked == [8, 16]


def test_basis_orthonormality_low_degrees(sphere8, tr8):
    k = n_modes(4)
    basis = np.stack([tr8.synthesize(SpectralState(8, e)).comps
                      for e in np.eye(tr8.n_modes)[:k]])
    gram = np.einsum("knc,lnc,n->kl", basis, basis, sphere8.weights)
    assert np.abs(gram - np.eye(k)).max() <= 1e-12


def test_degree0_rejected(tr8):
    with pytest.raises(ParameterError):
        tr8.toroidal_basis_field(0, 0)


def test_degree1_is_rotation(sphere8, tr8, rotation_field):
    # (l=1, m=0) is parallel to the projected rotation about e3, unit norm
    f10 = tr8.toroidal_basis_field(1, 0)
    rot = rotation_field(sphere8, 2)
    ip = geo.l2_inner(sphere8, f10, rot)
    assert abs(abs(ip) - geo.l2_norm(sphere8, rot)) <= 1e-10
    assert abs(geo.l2_norm(sphere8, f10) - 1.0) <= 1e-12


def test_mode_orthogonality_2_3(sphere8, tr8):
    a = tr8.toroidal_basis_field(2, 1)
    b = tr8.toroidal_basis_field(3, 1)
    assert abs(geo.l2_inner(sphere8, a, b)) <= 1e-12


def test_basis_strain_thresholds(sphere8, tr8):
    # independent oracle: strain by the geometry module's quadrature
    for m in (-1, 0, 1):
        assert geo.strain_norm(sphere8, tr8.toroidal_basis_field(1, m)) <= 1e-10
    for m in (-2, 0, 2):
        assert geo.strain_norm(sphere8, tr8.toroidal_basis_field(2, m)) > 0.1


def test_round_trip_single_mode(tr8):
    s = SpectralState(8)
    s.set(2, 0, 1.0)
    out = tr8.analyze(tr8.synthesize(s))
    assert abs(out.get(2, 0) - 1.0) <= 1e-12
    out.set(2, 0, 0.0)
    assert np.abs(out.coeffs).max() <= 1e-12


def test_zero_field_analyzes_to_zero(sphere8, tr8):
    z = geo.TangentialField(sphere8, np.zeros((sphere8.n_nodes, 2)))
    assert tr8.analyze(z).norm() == 0.0


def test_analysis_linearity(sphere8, tr8, rotation_field):
    # analyze(a + b) equals analyze(a) + analyze(b) computed separately
    rot = rotation_field(sphere8, 0)
    f32 = tr8.toroidal_basis_field(3, 2)
    combo = geo.TangentialField(sphere8, rot.comps + f32.comps)
    ca = tr8.analyze(rot).coeffs
    cb = tr8.analyze(f32).coeffs
    cc = tr8.analyze(combo).coeffs
    assert np.abs(cc - ca - cb).max() <= 1e-12
    assert abs(cc[mode_index(8, 3, 2)] - 1.0) <= 1e-10
    assert np.linalg.norm(cc[3:]) == pytest.approx(1.0, abs=1e-10)


def test_round_trip_random():
    # L = 11 has an odd dealiased degree ceil(3L/2)
    for L in (8, 11, 32):
        tr = get_transform(geo.build_sphere_grid(L, 1.0), L)
        rng = np.random.default_rng(12)
        s = SpectralState(L, rng.standard_normal(tr.n_modes))
        out = tr.analyze(tr.synthesize(s))
        assert np.abs(out.coeffs - s.coeffs).max() <= 1e-12
        u = tr.synthesize(s)
        u2 = tr.synthesize(out)
        assert np.abs(u.comps - u2.comps).max() <= 1e-10


def test_leray_kills_gradients(sphere8, tr8):
    gr = geo.surface_gradient(sphere8, sphere8.nodes[:, 2])
    assert tr8.analyze(gr).norm() <= 1e-10
    p = np.cos(3 * sphere8.lat).repeat(sphere8.n_lon) * np.cos(2 * np.tile(sphere8.lon, sphere8.n_lat))
    gr2 = geo.surface_gradient(sphere8, p)
    s = tr8.analyze(gr2)
    u = tr8.synthesize(s)
    assert abs(geo.l2_inner(sphere8, u, gr2)) <= 1e-10


def test_leray_identity_on_divergence_free(sphere8, tr8):
    s = random_band_limited(tr8, 31)
    u = tr8.synthesize(s)
    out = tr8.analyze(u)
    assert np.abs(out.coeffs - s.coeffs).max() <= 1e-10


def test_leray_mixed_field(sphere8, tr8):
    f20 = tr8.toroidal_basis_field(2, 0)
    gr = geo.surface_gradient(sphere8, sphere8.nodes[:, 2])
    v = geo.TangentialField(sphere8, f20.comps + gr.comps)
    c = tr8.analyze(v).coeffs
    assert abs(c[mode_index(8, 2, 0)] - 1.0) <= 1e-10
    c[mode_index(8, 2, 0)] = 0.0
    assert np.abs(c).max() <= 1e-10


def test_leray_idempotent(sphere8, tr8):
    rng = np.random.default_rng(8)
    v = geo.TangentialField(sphere8, rng.standard_normal((sphere8.n_nodes, 2)))
    once = tr8.analyze(v)
    twice = tr8.analyze(tr8.synthesize(once))
    assert np.abs(once.coeffs - twice.coeffs).max() <= 1e-12


def test_parseval_random_fields(sphere8, tr8):
    for i in range(100):
        s = random_band_limited(tr8, 7000 + i)
        u = tr8.synthesize(s)
        quad = geo.l2_inner(sphere8, u, u)
        assert abs(quad - s.norm() ** 2) <= 1e-10 * max(s.norm() ** 2, 1e-30)


def test_reality_condition(tr8, complex_view):
    rng = np.random.default_rng(2)
    s = SpectralState(8, rng.standard_normal(tr8.n_modes))
    cv = complex_view(8, s.coeffs)
    for l, row in cv.items():
        for m in range(0, l + 1):
            lhs = row[l - m]
            rhs = (-1) ** m * np.conj(row[l + m])
            assert abs(lhs - rhs) <= 1e-12


def test_complex_view_parseval(tr8, complex_view):
    rng = np.random.default_rng(21)
    s = SpectralState(8, rng.standard_normal(tr8.n_modes))
    total = sum(float(np.sum(np.abs(row) ** 2)) for row in complex_view(8, s.coeffs).values())
    assert abs(total - s.norm() ** 2) <= 1e-10 * s.norm() ** 2


def test_grad_tables_match_geometry_route():
    # dual route: closed-form covariant-derivative profiles against the
    # ambient-interpolant differentiation of the geometry module.  Not run at
    # L = 32: there the geometry route, differentiating the rounding noise of
    # even a correctly rounded nodal field up to degree 48, is off by 1.3e-11
    # at the polar nodes while the closed form stays within 2e-13.
    for L in (8, 11):
        grid = geo.build_sphere_grid(L, 1.0)
        tr = get_transform(grid, L)
        s = random_band_limited(tr, 77)
        T_tab = tr.engine.synthesize(s.coeffs[None], tr.GRAD)[:, 0].T.reshape(-1, 2, 2)
        T_geo = geo.covariant_derivative(grid, tr.synthesize(s))
        assert np.abs(T_tab - T_geo.comps).max() <= 1e-11


def test_grad_norm_table_closed_form(sphere8, tr8):
    # ||grad Phi_lm||^2 = (l(l+1) - 1) / R^2 on the sphere
    for l in (1, 2, 4, 7):
        k = mode_index(8, l, 0)
        assert tr8.grad_norm2[k] == pytest.approx(l * (l + 1) - 1.0, abs=1e-10)


def _h1_norm2(tr, s):
    """||u||_{H1}^2 via Parseval plus per-mode gradient energies."""
    return float(np.dot(1.0 + tr.grad_norm2, s.coeffs ** 2))


def test_h1_norm_consistency(sphere8, tr8):
    s = random_band_limited(tr8, 13)
    via_tables = np.sqrt(_h1_norm2(tr8, s))
    via_quadrature = geo.h1_norm(sphere8, tr8.synthesize(s))
    assert abs(via_tables - via_quadrature) <= 1e-10 * via_tables


def test_radius_independent_normalization(sphere8_r2):
    tr = get_transform(sphere8_r2, 8)
    f = tr.toroidal_basis_field(3, 1)
    assert abs(geo.l2_norm(sphere8_r2, f) - 1.0) <= 1e-12


def test_transform_requires_canonical_frame(sphere8):
    from surfns.harmonics import SphereTransform
    gR = sphere8.with_rotated_frame(0.5)
    with pytest.raises(ParameterError):
        SphereTransform(gR, 4)


def test_random_state_norm_prescription(tr8):
    s = random_band_limited(tr8, 5, norm_killing=0.25, norm_nonkilling=1.5)
    assert s.killing_norm() == pytest.approx(0.25, abs=1e-12)
    assert s.nonkilling_norm() == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("L", [8, 16, 32])
def test_random_state_draws_degree_by_degree(L):
    # oracle: one draw of 2l + 1 normals with standard deviation 1/l^2 per
    # degree, in ascending order; degrees above l_max stay zero
    tr = get_transform(geo.build_sphere_grid(L, 1.0), L)
    for l_max in (-1, 1, L // 2, L):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expect = np.zeros(n_modes(L))
            for l in range(1, l_max + 1):
                expect[tr.mode_l == l] = rng.normal(0.0, 1.0 / l ** 2, 2 * l + 1)
            got = random_band_limited(tr, seed, l_max=l_max).coeffs
            assert np.array_equal(got, expect), (l_max, seed)


def _held_bytes(obj, skip, seen):
    """Bytes of the arrays reachable from obj, not counting those in skip."""
    if id(obj) in seen or id(obj) in skip:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_held_bytes(v, skip, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(v, skip, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return _held_bytes(vars(obj), skip, seen)
    return 0


def test_transform_tables_stay_small_at_l32():
    # the bound admits O(L^3) per-order profiles (about 6 MB here), not
    # per-mode nodal tables (334 MB)
    grid = geo.build_sphere_grid(32, 1.0)
    tr = get_transform(grid, 32)
    s = random_band_limited(tr, 4)
    tr.engine.synthesize(s.coeffs[None], tr.GRAD)
    convective_term(tr, s.coeffs[None])
    own = {id(grid)} | {
        id(v) for v in vars(grid).values() if isinstance(v, np.ndarray)}
    held = _held_bytes([tr, grid._caches], own, set())
    assert held <= 20e6
    # order pairs: (ceil(L/2) + 1)(L + 1) degree rows per component, 1.54 MB
    n_pairs, n_rows, n_comp, _ = tr.engine.X.shape
    assert n_pairs * n_rows == (-(-32 // 2) + 1) * 33 and n_comp == 7
    assert tr.engine.X.nbytes <= 1.6e6


TOROIDAL_SHIFTED = (True, False, False, True, False, False, True)
SCALAR_SHIFTED = (False, False, True)


def _scalar_profiles(grid):
    """The scalar harmonics and their gradient along (e_theta, e_phi)."""
    s = np.sin(grid.lat)

    def profiles(m, l, P, dP, d2P):
        fac = np.where(m > 0, np.sqrt(2.0), 1.0)
        return fac * P, fac * dP / grid.R, -m * fac * P / (grid.R * s)
    return profiles


def _padded_synthesis(grid, lmin, lmax, profiles, shifted):
    """Reference synthesis matrix (comp, node, flat mode): per order m, the
    zero-padded latitude profiles (degree, n_lat) times cos/sin(m phi)."""
    m = np.arange(lmax + 1)
    X = np.stack(profiles(m[:, None, None], m[None, :, None], *plm_tables(lmax, grid.glx)))
    mphi = np.outer(m, grid.lon)
    in_phase = np.stack([np.cos(mphi), np.sin(mphi)], 1)       # (order, part, n_lon)
    quarter = np.stack([np.sin(mphi), -np.cos(mphi)], 1)
    cols = []
    for l in range(lmin, lmax + 1):
        cols += [(0, 0, l)] + [(mm, p, l) for mm in range(1, l + 1) for p in (0, 1)]
    S = []
    for Xc, sh in zip(X, shifted):
        per_order = np.einsum("mli,mpj->mplij", Xc, quarter if sh else in_phase)
        S.append(np.stack([per_order[mm, p, l].ravel() for mm, p, l in cols], -1))
    return np.stack(S)


def _indexed_synthesis(eng, c, comps=slice(None)):
    """Synthesis with the buffer filled by a three-array scatter: the
    engine's flat-index fill must match it bit for bit."""
    X = eng.X[:, :, comps]
    n_pairs, n_rows, n_comp, n_lat = X.shape
    k = c.shape[0]
    Z = np.zeros((n_pairs, 4, k, n_rows))
    pair, sub, row = eng._index
    Z[pair, sub, :, row] = c.T
    F = Z.reshape(n_pairs, 4 * k, n_rows) @ X.reshape(n_pairs, n_rows, -1)
    F = F.reshape(n_pairs, 4, k, n_comp, n_lat).transpose(3, 2, 4, 0, 1)
    f = F.reshape(n_comp, k * n_lat, 4 * n_pairs) @ eng.trig[comps]
    return f.reshape(n_comp, k, n_lat * eng.n_lon)


def _indexed_adjoint(eng, f, comps=slice(None)):
    """The adjoint with its product read back by a three-array gather."""
    X = eng.X[:, :, comps]
    n_pairs, n_rows, n_comp, n_lat = X.shape
    k = f.shape[1]
    G = f.reshape(n_comp, k * n_lat, eng.n_lon) @ eng.trig_t[comps]
    G = G.reshape(n_comp, k, n_lat, n_pairs, 4).transpose(3, 0, 2, 4, 1)
    Z = X.reshape(n_pairs, n_rows, -1) @ G.reshape(n_pairs, n_comp * n_lat, 4 * k)
    pair, sub, row = eng._index
    return Z.reshape(n_pairs, n_rows, 4, k)[pair, row, sub].T


@pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
def test_paired_engine_matches_padded_reference(L):
    # the toroidal engine at degree L and the scalar engine of the grid
    # (degree 3, 3, 5, 6, 12): odd and even degrees, so with and without a
    # self-paired middle order; stacks in C and Fortran order, of heights
    # that change from call to call
    grid = geo.build_sphere_grid(max(L, 2), 1.3)
    tr = get_transform(grid, L)
    rng = np.random.default_rng(L)
    for eng, lmin, lmax, profiles, shifted in (
            (tr.engine, 1, L, tr._profiles, TOROIDAL_SHIFTED),
            (geo._scalar_engine(grid), 0, grid.max_degree, _scalar_profiles(grid), SCALAR_SHIFTED)):
        S = _padded_synthesis(grid, lmin, lmax, profiles, shifted)
        scale = np.abs(S).max()
        for k, order in ((0, "C"), (1, "C"), (3, "F"), (8, "C"), (3, "C"), (1, "F"), (8, "F")):
            c = np.asarray(rng.standard_normal((k, S.shape[2])), order=order)
            f = np.asarray(rng.standard_normal((len(shifted), k, grid.n_nodes)), order=order)
            np.testing.assert_array_equal(eng.synthesize(c), _indexed_synthesis(eng, c))
            np.testing.assert_array_equal(eng.synthesize(c, slice(1, 3)),
                                          _indexed_synthesis(eng, c, slice(1, 3)))
            np.testing.assert_array_equal(eng.adjoint(f), _indexed_adjoint(eng, f))
            np.testing.assert_allclose(eng.synthesize(c), np.einsum("cxn,kn->ckx", S, c),
                                       rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(eng.adjoint(f), np.einsum("cxn,ckx->kn", S, f),
                                       rtol=0, atol=1e-13 * scale * grid.n_nodes)
            np.testing.assert_allclose(eng.synthesize(c, slice(1, 3)),
                                       np.einsum("cxn,kn->ckx", S[1:3], c),
                                       rtol=0, atol=1e-13 * scale)
            # adjointness: <S c, f> = <c, S^T f>
            lhs, rhs = np.sum(eng.synthesize(c) * f), np.sum(c * eng.adjoint(f))
            assert abs(lhs - rhs) <= 1e-13 * max(np.linalg.norm(c) * np.linalg.norm(f), 1e-300)
