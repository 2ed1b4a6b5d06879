"""Stokes form assembly, application, convective term, forcing dispatch."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.forcing import apply_forcing, make_catalog_forcing
from surfns.harmonics import (SpectralState, SphereTransform, get_transform,
                              random_band_limited)
from surfns.killing import killing_basis, korn_constant
from surfns.operators import assemble_stokes, convective_term


@pytest.fixture(scope="module")
def form1(sphere8):
    return assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)


@pytest.fixture(scope="module")
def formv(sphere8):
    nu = geo.ViscosityField(sphere8, 1.0 + 0.5 * sphere8.nodes[:, 2])
    return assemble_stokes(sphere8, nu, 8)


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


def _quad_form(form, c):
    """c . A c = int 2 nu |eps(u)|^2 dS for the represented field."""
    return float(c @ form.apply(c[None])[0])


def _h1_norm2(tr, s):
    """||u||_{H1}^2 via Parseval plus per-mode gradient energies."""
    return float(np.dot(1.0 + tr.grad_norm2, s.coeffs ** 2))


def _dense(form):
    """Dense n_modes x n_modes matrix of the form's blocks."""
    A = np.zeros((form.transform.n_modes,) * 2)
    for g, v, b in zip(*form.layout, form.blocks):
        A[np.ix_(g[v], g[v])] = b[np.ix_(v, v)]
    return A


def _a_prime(form):
    """Dense explicit remainder A' = A - nu_min diag(D)."""
    return _dense(form) - form.nu_min * np.diag(form.D)


def _row(f, s, *args):
    """f(*args, c) on the one-row stack c of the SpectralState s, as a state."""
    return SpectralState(s.L, f(*args, s.coeffs[None])[0], s.t)


def test_lambda1_zero(form1):
    assert abs(form1.lam_by_degree[1]) <= 1e-10


def test_constant_nu_diagonal(form1):
    A = _dense(form1)
    off = A - np.diag(np.diag(A))
    assert np.abs(off).max() <= 1e-10


def test_eigenvalue_closed_form(form1):
    # lambda_l = l(l+1) - 2 on the unit sphere
    for l in range(1, 9):
        assert form1.lam_by_degree[l] == pytest.approx(l * (l + 1) - 2.0, abs=1e-10)


def test_linearity_in_nu(sphere8, form1):
    form_c = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 2.5), 8)
    A = _dense(form_c)
    assert np.abs(A - 2.5 * _dense(form1)).max() <= 1e-12 * np.abs(A).max()


def test_symmetry_and_psd(formv):
    A = _dense(formv)
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10
    # kernel is exactly the degree-1 block
    assert np.sort(eigs)[:3].max() <= 1e-10
    assert np.sort(eigs)[3] > 0.1


def test_variable_nu_killing_rows(formv):
    assert np.abs(_dense(formv)[:3]).max() <= 1e-10


def test_stokes_apply_kernel(form1):
    s = SpectralState(8)
    s.coeffs[:3] = [1.0, -0.5, 0.25]
    out = _row(form1.apply, s)
    assert np.abs(out.coeffs).max() <= 1e-10


def test_stokes_apply_eigenmode(form1):
    s = SpectralState(8)
    s.set(2, 0, 1.0)
    out = _row(form1.apply, s)
    lam2 = form1.lam_by_degree[2]
    assert abs(out.get(2, 0) - lam2) <= 1e-10
    out.set(2, 0, 0.0)
    assert np.abs(out.coeffs).max() <= 1e-10


def test_quadratic_form_oracle(sphere8, formv, tr8):
    # c.(A c) equals the quadrature of 2 nu |eps(u)|^2 computed through the
    # geometry module
    s = random_band_limited(tr8, 42)
    u = tr8.synthesize(s)
    E = geo.rate_of_strain(sphere8, u)
    integrand = 2.0 * formv.nu.values * np.einsum("nij,nij->n", E.comps, E.comps)
    oracle = float(np.dot(sphere8.weights, integrand))
    assert abs(_quad_form(formv, s.coeffs) - oracle) <= 1e-10 * max(oracle, 1.0)


def test_stokes_apply_never_feeds_killing(formv, tr8):
    s = random_band_limited(tr8, 9)
    out = _row(formv.apply, s)
    assert np.linalg.norm(out.coeffs[:3]) <= 1e-10 * s.norm()


def test_explicit_remainder_psd(formv):
    ap = _a_prime(formv)
    eigs = np.linalg.eigvalsh(0.5 * (ap + ap.T))
    assert eigs.min() >= -1e-10


def test_spectrum_rotation_invariance(sphere8):
    # assembling with nu(x) and nu(Rx) for a rotation about e3 gives the
    # same spectrum
    x, y = sphere8.nodes[:, 0], sphere8.nodes[:, 1]
    nu_a = geo.ViscosityField(sphere8, 1.0 + 0.3 * x)
    nu_b = geo.ViscosityField(sphere8, 1.0 + 0.3 * y)
    ea = np.linalg.eigvalsh(_dense(assemble_stokes(sphere8, nu_a, 8)))
    eb = np.linalg.eigvalsh(_dense(assemble_stokes(sphere8, nu_b, 8)))
    assert np.abs(ea - eb).max() <= 1e-8


def test_convective_energy_orthogonality(sphere8, tr8):
    for i in range(5):
        s = random_band_limited(tr8, 300 + i)
        n = _row(convective_term, s, tr8)
        h1 = np.sqrt(_h1_norm2(tr8, s))
        assert abs(float(n.coeffs @ s.coeffs)) <= 1e-9 * s.norm() ** 2 * max(h1, 1.0)


def test_convective_killing_projection_vanishes(sphere8, tr8, kb):
    for i in range(5):
        s = random_band_limited(tr8, 600 + i)
        n = _row(convective_term, s, tr8)
        scale = max(s.norm() ** 2, 1.0)
        assert np.abs(kb.alpha(n.coeffs)).max() <= 1e-9 * scale


def test_convective_killing_self_transport(sphere8, kb, tr8):
    s = SpectralState(8)
    s.coeffs[:3] = [0.7, -0.1, 0.4]
    n = _row(convective_term, s, tr8)
    assert abs(float(n.coeffs @ s.coeffs)) <= 1e-12


def test_convective_zonal_mode_is_gradient(sphere8, tr8):
    # brute-force oracle: nodal transport through the geometry module's
    # covariant derivative, then the Leray projection by quadrature
    s = SpectralState(8)
    s.set(2, 0, 1.0)
    u = tr8.synthesize(s)
    T = geo.covariant_derivative(sphere8, u)
    adv = np.einsum("nij,nj->ni", T.comps, u.comps)
    oracle = tr8.analyze(geo.TangentialField(sphere8, adv))
    assert oracle.norm() <= 1e-9
    assert _row(convective_term, s, tr8).norm() <= 1e-9


def test_convective_single_degree_is_gradient():
    # oracle: a state on one degree l has vorticity -l(l+1)/R^2 times its
    # stream function, so its transport is a gradient, whatever the orders
    rng = np.random.default_rng(21)
    for L in (8, 16, 32):
        for R in (1.0, 1.3):
            tr = get_transform(geo.build_sphere_grid(L, R), L)
            l = np.arange(1, L + 1)[:, None]
            c = np.where(tr.mode_l == l, rng.standard_normal((L, tr.n_modes)), 0.0)
            n = convective_term(tr, c)
            assert np.all(np.linalg.norm(n, axis=1) <= 1e-12 * (c * c).sum(1))
            # two degrees interact (|N| = 0.08-0.19 at |c| = 1): not vacuous
            c = np.where((tr.mode_l == 3) | (tr.mode_l == 4), rng.standard_normal(tr.n_modes), 0.0)
            c /= np.linalg.norm(c)
            assert np.linalg.norm(convective_term(tr, c[None])[0]) >= 1e-2


def _transport_form(tr, c):
    """The oracle: P[(u . grad) u] as P[T u], with T the covariant derivative."""
    f = tr.engine.synthesize(c)
    u, T = f[tr.FIELD], f[tr.GRAD].reshape(2, 2, *f.shape[1:])
    return tr.engine.analyze(T[:, 0] * u[0] + T[:, 1] * u[1], tr.FIELD)


def _row_rel(a, b):
    """Largest row-wise relative 2-norm distance of stack a from stack b."""
    return float((np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)).max())


def test_convective_rotation_form_matches_transport_form():
    # (u . grad) u = grad(|u|^2 / 2) + omega n x u, and the gradient has no
    # toroidal part, so P[omega n x u] must equal P[T u] to rounding.  The
    # comparison separates the mutants: omega with its sign flipped, and the
    # transport form kept beside the rotation term, are both off by O(1)
    rng = np.random.default_rng(17)
    for L in (8, 16, 32):
        for R in (1.0, 1.3):
            tr = get_transform(geo.build_sphere_grid(L, R), L)
            for k in (1, 8):
                c = rng.standard_normal((k, tr.n_modes))
                oracle = _transport_form(tr, c)
                n = convective_term(tr, c)
                assert _row_rel(n, oracle) <= 1e-13, (L, R, k)
                u_theta, u_phi, omega = tr.engine.synthesize(c, tr.VORT)
                flipped = tr.engine.analyze(np.stack([omega * u_phi, -omega * u_theta]), tr.FIELD)
                assert _row_rel(flipped, oracle) >= 1.9
                assert _row_rel(oracle + n, oracle) >= 0.9


def test_convective_energy_orthogonal_to_rounding():
    # (omega n x u) . u = 0 at every node, so c . N(c) is rounding only
    rng = np.random.default_rng(19)
    for L in (8, 11, 16, 32):
        tr = get_transform(geo.build_sphere_grid(L, 1.3), L)
        c = rng.standard_normal((4, tr.n_modes))
        n = convective_term(tr, c)
        dots = np.abs(np.einsum("kn,kn->k", c, n))
        assert np.all(dots <= 1e-14 * np.linalg.norm(c, axis=1) * np.linalg.norm(n, axis=1))


def test_operators_accept_empty_stack(formv, tr8, kb):
    c = np.zeros((0, tr8.n_modes))
    spec = make_catalog_forcing("f3_minus", {}, kb)
    for out in (formv.apply(c), convective_term(tr8, c), apply_forcing(spec, c)):
        assert out.shape == (0, tr8.n_modes)


def test_convective_zero(sphere8, tr8):
    assert _row(convective_term, SpectralState(8), tr8).norm() == 0.0


def test_convective_matches_bruteforce():
    for L in (8, 11, 32):
        grid = geo.build_sphere_grid(L, 1.0)
        tr = get_transform(grid, L)
        s = random_band_limited(tr, 123)
        u = tr.synthesize(s)
        T = geo.covariant_derivative(grid, u)
        adv = np.einsum("nij,nj->ni", T.comps, u.comps)
        oracle = tr.analyze(geo.TangentialField(grid, adv))
        fast = _row(convective_term, s, tr)
        assert np.abs(fast.coeffs - oracle.coeffs).max() <= 1e-11


def test_semidiscrete_energy_identity(sphere8, formv, kb, tr8):
    # d/dt (1/2 ||u||^2) from the assembled RHS equals -int 2nu|eps|^2 + int f.u
    spec = make_catalog_forcing("f2_minus",
                                {"v": tr8.toroidal_basis_field(2, 1)}, kb)
    for i in range(5):
        s = random_band_limited(tr8, 900 + i)
        rhs = (-_row(formv.apply, s).coeffs
               - _row(convective_term, s, tr8).coeffs
               + _row(apply_forcing, s, spec).coeffs)
        lhs = float(rhs @ s.coeffs)
        expected = -_quad_form(formv, s.coeffs) + float(
            _row(apply_forcing, s, spec).coeffs @ s.coeffs)
        scale = max(abs(expected), s.norm() ** 2, 1.0)
        assert abs(lhs - expected) <= 1e-9 * scale


def test_forcing_apply_examples(sphere8, kb, tr8):
    s = random_band_limited(tr8, 55)
    # f3- is exactly -u
    f3m = make_catalog_forcing("f3_minus", {}, kb)
    assert np.abs(_row(apply_forcing, s, f3m).coeffs + s.coeffs).max() == 0.0
    # constant Killing forcing is independent of the state
    fk = make_catalog_forcing("constant_killing", {"c": 1.0, "axis": 0}, kb)
    out1 = _row(apply_forcing, s, fk)
    out2 = _row(apply_forcing, SpectralState(8), fk)
    assert np.abs(out1.coeffs - out2.coeffs).max() == 0.0
    assert np.linalg.norm(out1.coeffs[:3]) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(out1.coeffs[3:]).max() == 0.0
    # f2+ with v = Phi_20: v-part plus the Killing block of s
    f2p = make_catalog_forcing("f2_plus",
                               {"v": tr8.toroidal_basis_field(2, 0)}, kb)
    out = _row(apply_forcing, s, f2p)
    assert out.get(2, 0) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(out.coeffs[:3] - s.coeffs[:3]).max() <= 1e-12


def test_assemble_requires_dealiased_grid(sphere8):
    nu = geo.ViscosityField(sphere8, 1.0)
    with pytest.raises(ParameterError):
        assemble_stokes(sphere8, nu, 12)   # grid resolves degree 12 < 18


def test_unknown_forcing_tag(kb):
    with pytest.raises(ParameterError):
        make_catalog_forcing("f9", {}, kb)


def test_assembly_with_general_bandlimited_viscosity(sphere8):
    # degree-2 viscosity profile: still exactly integrated, still symmetric
    # PSD with the degree-1 kernel
    nu = geo.ViscosityField(sphere8, 1.0 + 0.3 * sphere8.nodes[:, 2] ** 2)
    form = assemble_stokes(sphere8, nu, 8)
    A = _dense(form)
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10
    assert np.abs(A[:3]).max() <= 1e-10


def _weights(grid, kind):
    x, z = grid.nodes[:, 0] / grid.R, grid.nodes[:, 2] / grid.R
    nu = {"linear_x3": 1.0 + 0.5 * z, "x3_squared": 1.0 + 0.3 * z * z, "x": 1.0 + 0.3 * x}
    return 2.0 * grid.weights * nu[kind]


def test_blocks_match_single_part_form():
    # signed-order blocks of row-constant weights, from the latitude
    # profiles, against the dense probe in slot order
    for L in (8, 12, 32):
        for R in (1.0, 1.3):
            grid = geo.build_sphere_grid(L, R)
            tr = get_transform(grid, L)
            for kind in ("linear_x3", "x3_squared"):
                w = _weights(grid, kind)
                blocks = tr.axisymmetric_form(w)
                assert blocks.shape == (2 * L + 2, L, L)
                # exactly zero on the invalid slots
                assert not blocks[~(tr.slot_valid[:, :, None] & tr.slot_valid[:, None, :])].any()
                dense = tr.gradient_form(w)
                scale = np.abs(dense).max()
                for g, v, b in zip(tr.slot_mode, tr.slot_valid, blocks):
                    idx = g[v]
                    assert np.abs(b[np.ix_(v, v)] - dense[np.ix_(idx, idx)]).max(
                        initial=0.0) <= 1e-13 * scale


def test_eigenvalue_count_is_n_modes():
    # one eigenvalue per mode: the padding slots never reach the eigensolve
    for L in (8, 12):
        grid = geo.build_sphere_grid(L, 1.3)
        x, z = grid.nodes[:, 0] / grid.R, grid.nodes[:, 2] / grid.R
        for values in (2.5, 1.0 + 0.5 * z, 1.0 + 0.3 * x):
            form = assemble_stokes(grid, geo.ViscosityField(grid, values), L)
            assert form.eigenvalues().shape == (L * (L + 2),)


def test_cross_order_entries_vanish():
    # the dense linear_x3 form couples no two signed orders
    grid = geo.build_sphere_grid(12, 1.0)
    tr = get_transform(grid, 12)
    A = tr.gradient_form(_weights(grid, "linear_x3"))
    cross = tr.mode_m[:, None] != tr.mode_m[None, :]
    assert np.abs(A[cross]).max() <= 1e-12 * np.abs(A).max()


@pytest.fixture(scope="module")
def form_x(sphere8):
    return assemble_stokes(sphere8, geo.ViscosityField(
        sphere8, 1.0 + 0.3 * sphere8.nodes[:, 0]), 8)


def test_row_constant_viscosity_needs_no_probes(monkeypatch, sphere8):
    # constant and linear_x3 viscosities, and the sphere Korn constant,
    # assemble from latitude profiles; only an x-dependent viscosity probes
    def probe(self, weight):
        raise RuntimeError("probe path")
    monkeypatch.setattr(SphereTransform, "gradient_form", probe)
    tr = get_transform(sphere8, 8)
    for values in (1.0, 1.0 + 0.5 * sphere8.nodes[:, 2]):
        form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, values), 8)
        # the slot rows that hold a mode: all but the sine row of m = 0
        assert form.blocks.shape == (17, 8, 8)
        assert np.array_equal(form.layout[0], np.delete(tr.slot_mode, 1, 0))
        assert np.array_equal(form.layout[1], np.delete(tr.slot_valid, 1, 0))
    assert korn_constant(sphere8, 8).c_p == pytest.approx(np.sqrt(3.0), rel=1e-12)
    with pytest.raises(RuntimeError, match="probe path"):
        assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0 + 0.3 * sphere8.nodes[:, 0]), 8)


def _indexed_apply(form, c):
    """A c with the stack gathered into (row, block, slot) order by fancy
    indexing: the form's flat-index apply must match it bit for bit."""
    gather, valid = form.layout
    scatter = np.flatnonzero(valid)[np.argsort(gather[valid])]
    y = c[:, gather].transpose(1, 0, 2) @ form.blocks
    return y.transpose(1, 0, 2).reshape(c.shape[0], gather.size)[:, scatter]


def test_apply_matches_dense(formv, form_x):
    # stacks in C and Fortran order, of heights that change from call to call
    rng = np.random.default_rng(5)
    for form in (formv, form_x):
        A = _dense(form)
        for k, order in ((0, "C"), (1, "C"), (3, "F"), (8, "C"), (3, "C"), (1, "F"), (8, "F")):
            c = np.asarray(rng.normal(size=(k, A.shape[0])), order=order)
            dense = c @ A.T
            err = np.abs(form.apply(c) - dense).max(initial=0.0)
            assert err <= 1e-13 * np.abs(dense).max(initial=0.0)
            np.testing.assert_array_equal(form.apply(c), _indexed_apply(form, c))


def test_block_eigenvalues_match_dense(formv, form_x):
    for form in (formv, form_x):
        ev = np.linalg.eigvalsh(_dense(form))
        ap = _a_prime(form)
        rho = np.linalg.eigvalsh(0.5 * (ap + ap.T)).max()
        scale = ev.max()
        assert np.abs(form.eigenvalues() - ev).max() <= 1e-12 * scale
        assert abs(form.rho_full() - ev.max()) <= 1e-12 * scale
        assert abs(form.rho_explicit() - rho) <= 1e-12 * rho


def test_constant_nu_eigenvalues_closed_form(sphere8, sphere8_r2, sphere64):
    # nu (l(l+1) - 2) / R^2 with multiplicity 2l + 1; lambda_l at nu = 1
    for L, grid in ((8, sphere8), (8, sphere8_r2), (64, sphere64[1.0]), (64, sphere64[2.0])):
        form = assemble_stokes(grid, geo.ViscosityField(grid, 2.5), L)
        l = np.arange(1, L + 1)
        lam = (l * (l + 1) - 2.0) / grid.R ** 2
        exact = np.sort(np.repeat(2.5 * lam, 2 * l + 1))
        assert np.abs(form.eigenvalues() - exact).max() <= 1e-12 * exact.max()
        assert np.abs(form.lam_by_degree[1:] - lam).max() <= 1e-12 * lam.max()
