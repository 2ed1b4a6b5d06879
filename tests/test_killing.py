"""Killing basis, its spectral coordinates against the nodal projector, and
Korn constants."""

import copy
from functools import partial

import numpy as np
import pytest

from conftest import dense_form, l2_norm, tangential_project, toroidal_basis_field
from surfns import geometry as geo
from surfns import harmonics, killing
from surfns.errors import ConsistencyError, ParameterError
from surfns.harmonics import (SpectralState, degree_norms, SphereTransform, mode_index,
                              random_band_limited)
from surfns.killing import (SPHERE_L1_MAP, _gram, _korn_eigvals, _torus_family,
                            killing_basis, korn_constant)
from test_harmonics import sq_norms
import nodal_oracle as nodal


def killing_coefficients(basis, u):
    """Oracle for ``KillingBasis.alpha``: the coordinates alpha_j = (u, v_j)
    of a nodal field's Killing component, by quadrature."""
    return np.array([geo.l2_inner(basis.grid, u, v) for v in basis.fields])


def pk_project(basis, u):
    """Split a nodal field u = u_K + u_NK by the orthogonal projector onto
    the Killing space, by quadrature."""
    uk = sum(a * v.comps for a, v in zip(killing_coefficients(basis, u), basis.fields))
    return geo.TangentialField(basis.grid, uk), geo.TangentialField(basis.grid, u.comps - uk)


def _spectral_split(tr, u):
    """The solver's split of a nodal field: its degree-1 block and the rest,
    synthesized."""
    c = tr.analyze(u).coeffs
    k = np.concatenate([c[:3], np.zeros(c.size - 3)])
    return tr.synthesize(SpectralState(tr.L, k)), tr.synthesize(SpectralState(tr.L, c - k))


def _nodal_family(grid, cap):
    """Oracle for ``_torus_family``: the same fields as nodal stacks through
    the geometry route.  Each stream function is evaluated at every node and
    differentiated by FFT, the poloidal circulation generator joins at
    jt = 0, the nodal Killing field is projected out of every block, and
    ``geo.covariant_derivatives`` gives the tensors; fields (k, 2, n_nodes),
    tensors (k, 2, 2, n_nodes).
    """
    cap_p = min(cap, grid.n_lat // 2 - 1)
    cap_t = min(cap, grid.n_lon // 2 - 1)
    pol, tor = np.meshgrid(grid.lat, grid.lon, indexing="ij")
    vk = killing_basis(grid).fields[0].comps.T
    for jt in range(cap_t + 1):
        phases = np.array([jp * pol + sign * jt * tor for jp in range(cap_p + 1)
                           for sign in ((1, -1) if jp and jt else (1,)) if jp or jt])
        chi = np.stack([np.cos(phases), np.sin(phases)], axis=1).reshape(-1, grid.n_nodes)
        g = geo._torus_directional(grid, chi)
        # n x grad(chi) has frame components (-g2, g1)
        V = np.stack([-g[:, 1], g[:, 0]], axis=1)
        if jt == 0:
            gen = np.zeros((1, 2, grid.n_nodes))
            gen[0, 1] = 1.0 / (grid.R + grid.r * np.cos(pol.reshape(-1)))
            V = np.concatenate([V, gen])
        V -= np.einsum("kan,n,an->k", V, grid.weights, vk)[:, None, None] * vk
        yield V, geo.covariant_derivatives(grid, V)


def _nodal_gram(grid, X):
    """Weighted L2 Gram matrix of a stack of nodal fields or tensors."""
    Xw = (X * np.sqrt(grid.weights)).reshape(X.shape[0], -1)
    return Xw @ Xw.T


def _at_nodes(grid, X, jt):
    """Profiles (..., p, n_pol) of block jt evaluated at every node."""
    trig = np.stack([np.cos(jt * grid.lon), np.sin(jt * grid.lon)])[:X.shape[-2]]
    return np.einsum("...pi,pj->...ij", X, trig).reshape(X.shape[:-2] + (grid.n_nodes,))


def _nodal_rotations(grid):
    """Oracle for the sphere's Killing basis: the rotation fields e_j x x at
    every node, projected onto the tangent plane, then L2-normalized by one
    Gram-Schmidt sweep in the axis order e1, e2, e3."""
    fields = []
    for axis in np.eye(3):
        c = tangential_project(grid, np.cross(axis, grid.nodes)).comps
        for w in fields:
            c = c - geo.l2_inner(grid, geo.TangentialField(grid, c), w) * w.comps
        fields.append(geo.TangentialField(grid, c / l2_norm(grid, geo.TangentialField(grid, c))))
    return fields


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


@pytest.mark.parametrize("L", [8, 16, 32])
@pytest.mark.parametrize("R", [1.0, 1.3])
def test_sphere_basis_is_the_synthesized_degree1_map(L, R):
    # oracle: the transform's synthesis of the exact degree-1 map, row j the
    # unit rotation about e_j
    grid = geo.build_sphere_grid(L, R)
    tr = SphereTransform(grid, L)
    want = tr.engine.synthesize(np.pad(SPHERE_L1_MAP, ((0, 0), (0, tr.n_modes - 3))), tr.FIELD)
    got = np.stack([v.comps for v in killing_basis(grid).fields])
    assert np.abs(got - want.transpose(1, 2, 0)).max() <= 1e-14


def test_sphere_dimension_and_gram(sphere8, kb):
    assert kb.n == 3
    gram = np.array([[geo.l2_inner(sphere8, a, b) for b in kb.fields]
                     for a in kb.fields])
    assert np.abs(gram - np.eye(3)).max() <= 1e-12


def test_sphere_strain_residual(sphere8, kb):
    for v in kb.fields:
        assert nodal.strain_norm(sphere8, v) <= 1e-9 * nodal.h1_norm(sphere8, v)


def test_sphere_normalization_oracle(sphere8, kb, rotation_field):
    # v_j = (e_j x x) sqrt(3/(8 pi)) up to sign; ||e_j x x||^2 = 8 pi / 3
    scale = np.sqrt(3.0 / (8.0 * np.pi))
    for j in range(3):
        rot = rotation_field(sphere8, j)
        assert abs(abs(geo.l2_inner(sphere8, kb.fields[j], rot))
                   - np.sqrt(8 * np.pi / 3)) <= 1e-10
        dev = np.abs(np.abs(kb.fields[j].comps) - scale * np.abs(rot.comps)).max()
        assert dev <= 1e-10


@pytest.mark.parametrize("L", [2, 8, 32, 64])
@pytest.mark.parametrize("R", [1e-8, 1.0, 1.3, 1e8])
def test_sphere_basis_is_the_exact_degree1_map(L, R):
    # oracle: the nodal rotation fields, analyzed onto the degree-1 block,
    # give the map, and the basis is those fields
    grid = geo.build_sphere_grid(L, R)
    kb = killing_basis(grid)
    assert kb.l1_map.tobytes() == SPHERE_L1_MAP.tobytes()
    oracle = _nodal_rotations(grid)
    tr = SphereTransform(grid, geo.grid_truncation(grid))
    analyzed = np.stack([tr.analyze(v).coeffs[:3] for v in oracle])
    assert np.abs(analyzed - SPHERE_L1_MAP).max() <= 1e-14
    for v, w in zip(kb.fields, oracle):
        assert np.abs(v.comps - w.comps).max() <= 1e-13 * np.abs(w.comps).max()
    gram = np.array([[geo.l2_inner(grid, a, b) for b in kb.fields] for a in kb.fields])
    assert np.abs(gram - np.eye(3)).max() <= 1e-14


def test_torus_killing(torus64):
    b = killing_basis(torus64)
    assert b.n == 1
    v = b.fields[0]
    assert geo.strain_norm(torus64, v) <= 1e-9 * geo.h1_norm(torus64, v)
    # tangent to the toroidal (azimuthal) direction
    assert np.abs(v.comps[:, 1]).max() <= 1e-12


def test_unsupported_geometry_raises(sphere8):
    fake = copy.copy(sphere8)
    fake.kind = "plane"
    with pytest.raises(ParameterError):
        killing_basis(fake)


def test_pk_project_basis_vector(sphere8, kb, tr8):
    # the nodal projector and the solver's degree-1 split agree
    for uk, unk in (pk_project(kb, kb.fields[0]), _spectral_split(tr8, kb.fields[0])):
        assert np.abs(uk.comps - kb.fields[0].comps).max() <= 1e-12
        assert np.abs(unk.comps).max() <= 1e-12


def test_pk_project_toroidal_mode(sphere8, kb, tr8):
    f20 = toroidal_basis_field(tr8, 2, 0)
    for uk, unk in (pk_project(kb, f20), _spectral_split(tr8, f20)):
        assert l2_norm(sphere8, uk) <= 1e-10


def test_pk_project_pythagoras(sphere8, kb, tr8):
    f20 = toroidal_basis_field(tr8, 2, 0)
    u = geo.TangentialField(sphere8, 2.0 * kb.fields[0].comps + f20.comps)
    splits = [pk_project(kb, u), _spectral_split(tr8, u)]
    for uk, unk in splits:
        assert l2_norm(sphere8, uk) == pytest.approx(2.0, abs=1e-10)
        assert l2_norm(sphere8, unk) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(uk.comps + unk.comps - u.comps).max() <= 1e-12
        for v in kb.fields:
            assert abs(geo.l2_inner(sphere8, unk, v)) <= 1e-10
        total = geo.l2_inner(sphere8, u, u)
        split = geo.l2_inner(sphere8, uk, uk) + geo.l2_inner(sphere8, unk, unk)
        assert abs(total - split) <= 1e-10 * total
    assert np.abs(splits[0][0].comps - splits[1][0].comps).max() <= 1e-12


def test_projector_idempotent(sphere8, kb, tr8):
    s = random_band_limited(tr8, 64)
    u = tr8.synthesize(s)
    for split in (partial(pk_project, kb), partial(_spectral_split, tr8)):
        uk, _ = split(u)
        uk2, rest = split(uk)
        assert np.abs(uk2.comps - uk.comps).max() <= 1e-12
        assert np.abs(rest.comps).max() <= 1e-12
    # the solver's Killing part of s is its degree-1 block
    k = SpectralState(8, np.concatenate([s.coeffs[:3], np.zeros(tr8.n_modes - 3)]))
    assert np.abs(pk_project(kb, u)[0].comps - tr8.synthesize(k).comps).max() <= 1e-12


def test_killing_coefficients_examples(sphere8, kb, tr8):
    # KillingBasis.alpha of each field's coefficients, against the nodal oracle
    zero = geo.TangentialField(sphere8, np.zeros((sphere8.n_nodes, 2)))
    combo = geo.TangentialField(
        sphere8, 3.0 * kb.fields[0].comps - 4.0 * kb.fields[2].comps)
    for u, want in ((kb.fields[1], [0.0, 1.0, 0.0]), (combo, [3.0, 0.0, -4.0])):
        for a in (kb.alpha(tr8.analyze(u).coeffs), killing_coefficients(kb, u)):
            assert np.abs(a - want).max() <= 1e-12
            assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(want), abs=1e-10)
    assert np.abs(kb.alpha(tr8.analyze(zero).coeffs)).max() == 0.0
    assert np.abs(killing_coefficients(kb, zero)).max() == 0.0


def test_alpha_from_state_matches_quadrature(sphere8, kb, tr8):
    s = random_band_limited(tr8, 17)
    u = tr8.synthesize(s)
    a_quad = killing_coefficients(kb, u)
    a_spec = kb.alpha(s.coeffs)
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
        ratios.append(nodal.h1_norm(sphere8, v) / l2_norm(sphere8, v))
    assert max(ratios) - min(ratios) <= 1e-8


def test_korn_strain_form_excludes_killing(sphere8, tr8):
    # the strain form evaluated on the degree-1 block vanishes
    G = tr8.engine.synthesize(np.eye(tr8.n_modes)[:3], tr8.GRAD).transpose(1, 2, 0)
    G = G.reshape(3, -1, 2, 2)
    E = 0.5 * (G + np.swapaxes(G, 2, 3))
    w4 = np.repeat(sphere8.weights, 4)
    kill = (E[:3].reshape(3, -1) * w4[None, :]) @ E[:3].reshape(3, -1).T
    assert np.abs(kill).max() <= 1e-10


def korn_quotients(grid, L):
    """The sphere's Korn eigenvalue of each degree l = 2..L, shared by its
    2l + 1 modes: (1 + ||grad Phi_l||^2) / ||eps(Phi_l)||^2 from
    ``degree_norms``."""
    strain, grad = degree_norms(grid, L)
    return (1.0 + grad[1:]) / strain[1:]


def sphere_korn_spectrum(grid, L):
    """Every eigenvalue of the sphere's Korn problem on degrees 2..L, sorted."""
    l = np.arange(2, L + 1)
    return np.sort(np.repeat(korn_quotients(grid, L), 2 * l + 1))


def torus_korn_spectrum(grid, cap):
    """Every eigenvalue of the torus Korn problem, sorted: each |jt| block of
    ``_torus_family`` solved by ``_korn_eigvals``, as ``korn_constant`` does."""
    mu = []
    for V, T in _torus_family(grid, cap):
        S = _gram(grid, 0.5 * (T + T.swapaxes(1, 2)))
        mu.append(_korn_eigvals(_gram(grid, T) + _gram(grid, V), S))
    return np.sort(np.concatenate(mu))


def test_korn_constant_value_and_convergence(sphere8, sphere16):
    c_p8 = korn_constant(sphere8, 8)
    c_p16 = korn_constant(sphere16, 16)
    assert isinstance(c_p16, float)
    assert abs(c_p16 - c_p8) <= 1e-2 * c_p16
    # analytic extremizer is degree 2: C_P^2 = 2 l (l+1) / (l(l+1) - 2) at l = 2
    assert c_p16 == pytest.approx(np.sqrt(3.0), rel=1e-10)
    quots = korn_quotients(sphere16, 16)
    assert all(a >= b for a, b in zip(quots, quots[1:]))
    assert c_p16 == np.sqrt(quots.max())


def test_korn_inequality_random_samples(sphere16):
    c_p = korn_constant(sphere16, 16)
    tr = SphereTransform(sphere16, 16)
    for i in range(100):
        s = random_band_limited(tr, 8000 + i, norm_killing=0.0)
        v = tr.synthesize(s)
        lhs = nodal.h1_norm(sphere16, v)
        rhs = c_p * nodal.strain_norm(sphere16, v)
        assert lhs <= (1.0 + 1e-8) * rhs


def test_sphere_korn_builds_no_transform(monkeypatch):
    # the quotients come from the zonal modes alone; the oracle is the
    # per-mode route through transforms, every order of every degree
    grid = geo.build_sphere_grid(32, 1.0)
    built, init = [], harmonics.SphereTransform.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(harmonics.SphereTransform, "__init__", counted)
    results = {L: (korn_constant(grid, L), korn_quotients(grid, L), sphere_korn_spectrum(grid, L))
               for L in (2, 8, 16, 32)}
    assert not built
    monkeypatch.undo()
    for L, (c_p, per_degree, spectrum) in results.items():
        tr = SphereTransform(grid, L)
        quotient = (1.0 + sq_norms(tr.engine, tr.GRAD)[3:]) / tr.strain_norm2[tr.mode_l[3:] - 1]
        want = np.sort(quotient)
        assert np.abs(spectrum - want).max() <= 1e-13 * want.max()
        assert abs(c_p / np.sqrt(want[-1]) - 1.0) <= 1e-13
        for l, q in zip(range(2, L + 1), per_degree):
            assert abs(q / quotient[mode_index(L, l, 0) - 3] - 1.0) <= 1e-13


def test_korn_bad_truncation(sphere8):
    with pytest.raises(ParameterError):
        korn_constant(sphere8, 1)


def test_torus_korn(torus64):
    c_p = korn_constant(torus64)
    assert isinstance(c_p, float) and np.isfinite(c_p) and c_p > 1.0
    # cap convergence: richer stream-function family, same constant
    assert abs(korn_constant(torus64, fourier_cap=10) - c_p) <= 5e-2 * c_p


def test_korn_constant_closed_form():
    # the extremizer is degree 2, where C_P^2 = (R^2 + 5) / 2
    for R in (1.0, 2.0):
        for L in (8, 16, 32):
            c_p = korn_constant(geo.build_sphere_grid(L, R), L)
            exact = np.sqrt((R * R + 5.0) / 2.0)
            assert abs(c_p - exact) <= 1e-12 * exact


def test_korn_per_degree_closed_form(sphere64):
    # degree l has the quotient 2 (R^2 + l(l+1) - 1) / (l(l+1) - 2)
    grids = [(16, geo.build_sphere_grid(16, R)) for R in (1.0, 2.0)]
    for L, grid in grids + [(64, sphere64[1.0]), (64, sphere64[2.0])]:
        R = grid.R
        l = np.arange(2, L + 1)
        exact = 2.0 * (R * R + l * (l + 1) - 1.0) / (l * (l + 1) - 2.0)
        got = korn_quotients(grid, L)
        assert np.abs(got - exact).max() <= 1e-12 * exact.min()
        assert korn_constant(grid, L) == np.sqrt(got.max())


def test_korn_blocks_match_dense_eigensolve():
    # oracle: the full generalized eigenproblem on the l >= 2 modes
    import scipy.linalg
    for R in (1.0, 2.0):
        grid = geo.build_sphere_grid(6, R)
        tr = SphereTransform(grid, 6)
        S = dense_form(tr, grid.weights)[3:, 3:]
        G = tr.engine.synthesize(np.eye(tr.n_modes), tr.GRAD)
        H = np.einsum("cjn,n,ckn->jk", G, grid.weights, G)[3:, 3:]
        mu = scipy.linalg.eigh(H + np.eye(H.shape[0]), S, eigvals_only=True)
        spectrum = sphere_korn_spectrum(grid, 6)
        assert spectrum.size == mu.size
        assert np.abs(spectrum - mu).max() <= 1e-12 * mu.max()
        assert abs(korn_constant(grid, 6) - np.sqrt(mu.max())) <= 1e-12 * np.sqrt(mu.max())


def test_torus_profiles_match_nodal_family(torus64):
    # oracle: the nodal family.  Its tensors are taken on twice the poloidal
    # nodes, whose even rows are this grid's: FFT derivatives of the
    # 1/(R + r cos phi) factors alias on the grid itself (9e-11 at 32 nodes)
    for grid, cap in ((torus64, 8), (geo.build_torus_grid(32, 24, 2.0, 0.5), 4),
                      (geo.build_torus_grid(64, 64, 3.0, 1.0), 8)):
        fine = geo.build_torus_grid(2 * grid.n_lat, grid.n_lon, grid.R, grid.r)
        blocks = zip(_torus_family(grid, cap), _nodal_family(grid, cap),
                     _nodal_family(fine, cap))
        for jt, ((V, T), (Vo, To), (_, Tf)) in enumerate(blocks):
            assert V.shape[2] == T.shape[3] == (2 if jt else 1)
            Tf = Tf.reshape(Tf.shape[:3] + (fine.n_lat, fine.n_lon))[..., ::2, :]
            Tf = Tf.reshape(To.shape)
            assert np.abs(_at_nodes(grid, V, jt) - Vo).max() <= 1e-12 * np.abs(Vo).max()
            assert np.abs(_at_nodes(grid, T, jt) - Tf).max() <= 1e-12 * np.abs(Tf).max()
            # the theta-trapezoid Gram matrices equal the nodal quadrature
            for X, Xo in ((V, Vo), (T, To)):
                G, Go = _gram(grid, X), _nodal_gram(grid, Xo)
                assert np.abs(G - Go).max() <= 1e-12 * np.abs(Go).max()


def test_torus_korn_blocks_match_dense_eigensolve(torus64):
    # oracle: one generalized eigensolve on the whole nodal family, every
    # |jt| at once; the family is a basis, so no Gram rank cut is needed
    import scipy.linalg
    for grid, cap, count in ((torus64, 8, 289), (geo.build_torus_grid(32, 24, 2.0, 0.5), 4, 81),
                             (geo.build_torus_grid(64, 64, 3.0, 1.0), 8, 289)):
        blocks = list(_nodal_family(grid, cap))
        V = np.concatenate([b[0] for b in blocks])
        T = np.concatenate([b[1] for b in blocks])
        jt = np.repeat(np.arange(len(blocks)), [b[0].shape[0] for b in blocks])
        M = _nodal_gram(grid, V)
        S = _nodal_gram(grid, 0.5 * (T + T.swapaxes(1, 2)))
        H = _nodal_gram(grid, T) + M
        for F in (M, S, H):
            assert np.abs(F[jt[:, None] != jt]).max() <= 1e-12 * np.abs(F).max()
        mval = np.linalg.eigvalsh(M)
        assert mval[0] >= 1e-4 * mval[-1]
        mu = scipy.linalg.eigh(H, S, eigvals_only=True)
        spectrum = torus_korn_spectrum(grid, cap)
        assert spectrum.size == mu.size == count
        assert np.abs(spectrum - mu).max() <= 1e-12 * mu.max()
        assert korn_constant(grid, fourier_cap=cap) == np.sqrt(spectrum[-1])
    exact = 2.179449471770338      # the one-pass dense solve on the 64 x 64 grid
    assert abs(korn_constant(torus64) - exact) <= 1e-12 * exact
    # the family is band-limited: the largest grid gives the same constant
    big = geo.build_torus_grid(geo.TORUS_N_MAX, geo.TORUS_N_MAX, 2.0, 0.5)
    assert abs(korn_constant(big) - exact) <= 1e-12 * exact


def test_korn_eigensolve_matches_scipy(monkeypatch, torus64):
    # oracle: LAPACK's generalized solver on every block korn_constant solves
    import scipy.linalg
    errors = []

    def checked(H, S):
        mu = _korn_eigvals(H, S)
        ref = scipy.linalg.eigh(H, S, eigvals_only=True)
        errors.append(np.abs(mu - ref).max() / np.abs(ref).max())
        return mu

    monkeypatch.setattr(killing, "_korn_eigvals", checked)
    korn_constant(torus64)
    assert len(errors) == 9                       # one block per |jt| <= 8
    assert max(errors) <= 1e-12


def test_korn_eigensolve_rejects_singular_strain(monkeypatch, torus64):
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 6))
    H = B @ B.T + np.eye(6)
    v = rng.standard_normal((6, 5))
    for S in (v @ v.T, v @ v.T - 1e-12 * np.eye(6), np.zeros((6, 6))):
        with pytest.raises(ConsistencyError):
            _korn_eigvals(H, S)

    # a torus family that keeps the Killing field (h, 0), h = R + r cos(phi):
    # its covariant derivative is antisymmetric, so its strain vanishes
    family = killing._torus_family
    z, sin = np.zeros(torus64.n_lat), np.sin(torus64.lat)
    vk = np.array([[[torus64.R + torus64.r * np.cos(torus64.lat)], [z]]])
    tk = np.array([[[[z], [-sin]], [[sin], [z]]]])

    def with_killing(grid, cap):
        for jt, (V, T) in enumerate(family(grid, cap)):
            if jt == 0:
                V, T = np.concatenate([V, vk]), np.concatenate([T, tk])
            yield V, T

    monkeypatch.setattr(killing, "_torus_family", with_killing)
    with pytest.raises(ConsistencyError):
        korn_constant(torus64)
