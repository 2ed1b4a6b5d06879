"""Stokes form assembly, application, convective term, forcing dispatch."""

import numpy as np
import pytest

from conftest import dense_form, dense_stokes_form, mode_row
from surfns import geometry as geo
from surfns.diagnostics import enstrophy_cosine, record, strain_dissipation
from surfns.errors import ParameterError
from surfns.forcing import apply_forcing, make_catalog_forcing
from surfns.harmonics import (SpectralState, SphereTransform,
                              mode_index, random_band_limited)
from surfns.killing import killing_basis, korn_constant
from surfns.operators import _order_pair_blocks, assemble_stokes, convective_term
from surfns.scenarios import _gap
from surfns.timestepper import SimState
from test_harmonics import signed_order
import nodal_oracle as nodal


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
    """Dense n_modes x n_modes matrix of the form's blocks, or of its
    diagonal apply when it holds none."""
    if form.blocks is None:
        return form.apply(np.eye(form.transform.n_modes))
    A = np.zeros((form.transform.n_modes,) * 2)
    for g, b in zip(form.gather, form.blocks):
        A[np.ix_(g, g)] = b
    return A


def _a_prime(form):
    """Dense explicit remainder A' = A - nu_min diag(D)."""
    return _dense(form) - form.nu_min * np.diag(form.D)


def _row(f, s, *args):
    """f(*args, c) on the one-row stack c of the SpectralState s, as a state."""
    return SpectralState(s.L, f(*args, s.coeffs[None])[0], s.t)


def test_lambda1_zero(form1):
    assert abs(form1.lam_by_degree[1]) <= 1e-10


def test_constant_nu_diagonal():
    # why a constant-nu form may hold no blocks: the per-order blocks the
    # latitude profiles give for the weight 2 w nu are nu diag(D)
    for L in (8, 16, 32):
        for R in (1.0, 2.0):
            grid = geo.build_sphere_grid(L, R)
            tr = SphereTransform(grid, L)
            for nu in (1.0, 2.5):
                form = assemble_stokes(grid, geo.ViscosityField(grid, nu), L)
                assert form.blocks is None and form.gather is None
                blocks, gather = _order_pair_blocks(tr, 2.0 * grid.weights * nu)
                err = np.abs(blocks - nu * form.D[gather][:, :, None] * np.eye(L)).max()
                assert err <= 1e-12 * nu * form.D.max(), (L, R, nu)


def test_constant_nu_form_is_its_diagonal(sphere8, form1):
    # no explicit remainder, and apply matches the dense probe of 2 w nu
    rng = np.random.default_rng(13)
    for nu in (1.0, 2.5):
        form = form1 if nu == 1.0 else assemble_stokes(
            sphere8, geo.ViscosityField(sphere8, nu), 8)
        assert form.rho_explicit() == 0.0
        assert form.rho_full() == nu * form.D.max()
        np.testing.assert_array_equal(form.eigenvalues(), np.sort(nu * form.D))
        dense = dense_form(form.transform, 2.0 * sphere8.weights * nu)
        for k in (0, 1, 8):
            c = rng.normal(size=(k, dense.shape[0]))
            oracle = c @ dense
            err = np.abs(form.apply(c) - oracle).max(initial=0.0)
            assert err <= 1e-13 * np.abs(oracle).max(initial=0.0)


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
    assert abs(out.coeffs[mode_index(8, 2, 0)] - lam2) <= 1e-10
    out.set(2, 0, 0.0)
    assert np.abs(out.coeffs).max() <= 1e-10


def test_quadratic_form_oracle(sphere8, formv, tr8):
    # c.(A c) equals the quadrature of 2 nu |eps(u)|^2 computed through the
    # nodal oracle
    s = random_band_limited(tr8, 42)
    u = tr8.synthesize(s)
    E = nodal.rate_of_strain(sphere8, u)
    integrand = 2.0 * formv.nu.values * np.einsum("nij,nij->n", E, E)
    oracle = float(np.dot(sphere8.weights, integrand))
    assert abs(_quad_form(formv, s.coeffs) - oracle) <= 1e-10 * max(oracle, 1.0)


def test_stokes_apply_never_feeds_killing(formv, tr8):
    s = random_band_limited(tr8, 9)
    out = _row(formv.apply, s)
    assert np.linalg.norm(out.coeffs[:3]) <= 1e-10 * np.linalg.norm(s.coeffs)


def test_explicit_remainder_psd(formv):
    ap = _a_prime(formv)
    eigs = np.linalg.eigvalsh(0.5 * (ap + ap.T))
    assert eigs.min() >= -1e-10


def test_spectrum_rotation_invariance(sphere8):
    # the dense forms of nu(x) and nu(Rx) for a rotation about e3 have the
    # same spectrum
    x, y = sphere8.nodes[:, 0], sphere8.nodes[:, 1]
    nu_a = geo.ViscosityField(sphere8, 1.0 + 0.3 * x)
    nu_b = geo.ViscosityField(sphere8, 1.0 + 0.3 * y)
    ea = np.linalg.eigvalsh(_dense(dense_stokes_form(sphere8, nu_a, 8)))
    eb = np.linalg.eigvalsh(_dense(dense_stokes_form(sphere8, nu_b, 8)))
    assert np.abs(ea - eb).max() <= 1e-8


def test_convective_energy_orthogonality(sphere8, tr8):
    for i in range(5):
        s = random_band_limited(tr8, 300 + i)
        n = _row(convective_term, s, tr8)
        h1, energy = np.sqrt(_h1_norm2(tr8, s)), np.linalg.norm(s.coeffs) ** 2
        assert abs(float(n.coeffs @ s.coeffs)) <= 1e-9 * energy * max(h1, 1.0)


def test_convective_killing_projection_vanishes(sphere8, tr8, kb):
    for i in range(5):
        s = random_band_limited(tr8, 600 + i)
        n = _row(convective_term, s, tr8)
        scale = max(np.linalg.norm(s.coeffs) ** 2, 1.0)
        assert np.abs(kb.alpha(n.coeffs)).max() <= 1e-9 * scale


def test_convective_killing_self_transport(sphere8, kb, tr8):
    s = SpectralState(8)
    s.coeffs[:3] = [0.7, -0.1, 0.4]
    n = _row(convective_term, s, tr8)
    assert abs(float(n.coeffs @ s.coeffs)) <= 1e-12


def test_convective_zonal_mode_is_gradient(sphere8, tr8):
    # brute-force oracle: nodal transport through the nodal oracle's
    # covariant derivative, then the Leray projection by quadrature
    s = SpectralState(8)
    s.set(2, 0, 1.0)
    u = tr8.synthesize(s)
    T = nodal.covariant_derivative(sphere8, u)
    adv = np.einsum("nij,nj->ni", T, u.comps)
    oracle = tr8.analyze(geo.TangentialField(sphere8, adv))
    assert np.linalg.norm(oracle.coeffs) <= 1e-9
    assert np.linalg.norm(_row(convective_term, s, tr8).coeffs) <= 1e-9


def test_convective_single_degree_is_gradient():
    # oracle: a state on one degree l has vorticity -l(l+1)/R^2 times its
    # stream function, so its transport is a gradient, whatever the orders
    rng = np.random.default_rng(21)
    for L in (8, 16, 32):
        for R in (1.0, 1.3):
            tr = SphereTransform(geo.build_sphere_grid(L, R), L)
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
            tr = SphereTransform(geo.build_sphere_grid(L, R), L)
            for k in (1, 8):
                c = rng.standard_normal((k, tr.n_modes))
                oracle = _transport_form(tr, c)
                n = convective_term(tr, c)
                assert _row_rel(n, oracle) <= 1e-13, (L, R, k)
                u_theta, u_phi, omega = tr.engine.synthesize(c, tr.VORT)
                flipped = tr.engine.analyze(np.stack([omega * u_phi, -omega * u_theta]), tr.FIELD)
                assert _row_rel(flipped, oracle) >= 1.9
                assert _row_rel(oracle + n, oracle) >= 0.9


def test_folded_convective_table_matches_the_unfolded_product():
    # the synthesis table carries (1, -1, w) on (u_theta, u_phi, omega); the
    # unfolded product is a plain synthesis, omega (-u_phi, u_theta) w at each
    # node, then the adjoint
    rng = np.random.default_rng(23)
    for L in (8, 16, 32):
        tr = SphereTransform(geo.build_sphere_grid(L, 1.0), L)
        for k in (1, 8):
            c = rng.standard_normal((k, tr.n_modes))
            u_theta, u_phi, omega = tr.engine.synthesize(c, tr.VORT)
            w_omega = omega * tr.engine.weights
            unfolded = tr.engine.adjoint(np.stack([-w_omega * u_phi, w_omega * u_theta]), tr.FIELD)
            assert _row_rel(convective_term(tr, c), unfolded) <= 1e-14, (L, k)


def test_convective_energy_orthogonal_to_rounding():
    # (omega n x u) . u = 0 at every node, so c . N(c) is rounding only
    rng = np.random.default_rng(19)
    for L in (8, 11, 16, 32):
        tr = SphereTransform(geo.build_sphere_grid(L, 1.3), L)
        c = rng.standard_normal((4, tr.n_modes))
        n = convective_term(tr, c)
        dots = np.abs(np.einsum("kn,kn->k", c, n))
        assert np.all(dots <= 1e-14 * np.linalg.norm(c, axis=1) * np.linalg.norm(n, axis=1))


def test_operators_accept_empty_stack(form1, formv, form_x, tr8, kb):
    # every operator on a k = 0 stack through the plans it makes for the call,
    # on the diagonal, order-pair and dense forms
    c = np.zeros((0, tr8.n_modes))
    spec = make_catalog_forcing("f3_minus", {}, kb)
    sim = SimState([SpectralState(8)], dt=1e-3).take([])
    for form in (form1, formv, form_x):
        for out in (form.apply(c), *form.cn_solve(c, 1e-3), convective_term(tr8, c),
                    apply_forcing(spec, c)):
            assert out.shape == (0, tr8.n_modes)
        assert record(form, spec, sim).shape == (0,)


def test_convective_zero(sphere8, tr8):
    assert np.abs(_row(convective_term, SpectralState(8), tr8).coeffs).max() == 0.0


def test_convective_matches_bruteforce():
    for L in (8, 11, 32):
        grid = geo.build_sphere_grid(L, 1.0)
        tr = SphereTransform(grid, L)
        s = random_band_limited(tr, 123)
        u = tr.synthesize(s)
        T = nodal.covariant_derivative(grid, u)
        adv = np.einsum("nij,nj->ni", T, u.comps)
        oracle = tr.analyze(geo.TangentialField(grid, adv))
        fast = _row(convective_term, s, tr)
        assert np.abs(fast.coeffs - oracle.coeffs).max() <= 1e-11


def test_semidiscrete_energy_identity(sphere8, formv, kb, tr8):
    # d/dt (1/2 ||u||^2) from the assembled RHS equals -int 2nu|eps|^2 + int f.u
    spec = make_catalog_forcing("f2_minus",
                                {"v": mode_row(8, 2, 1)}, kb)
    for i in range(5):
        s = random_band_limited(tr8, 900 + i)
        rhs = (-_row(formv.apply, s).coeffs
               - _row(convective_term, s, tr8).coeffs
               + _row(apply_forcing, s, spec).coeffs)
        lhs = float(rhs @ s.coeffs)
        expected = -_quad_form(formv, s.coeffs) + float(
            _row(apply_forcing, s, spec).coeffs @ s.coeffs)
        scale = max(abs(expected), np.linalg.norm(s.coeffs) ** 2, 1.0)
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
                               {"v": mode_row(8, 2, 0)}, kb)
    out = _row(apply_forcing, s, f2p)
    assert out.coeffs[mode_index(8, 2, 0)] == pytest.approx(1.0, abs=1e-10)
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
    # order-pair blocks of row-constant weights, from the latitude
    # profiles, against the dense probe on their gathered modes
    for L in (8, 12, 32):
        for R in (1.0, 1.3):
            grid = geo.build_sphere_grid(L, R)
            tr = SphereTransform(grid, L)
            for kind in ("linear_x3", "x3_squared"):
                w = _weights(grid, kind)
                blocks, gather = _order_pair_blocks(tr, w)
                assert blocks.shape == (L + 2, L, L)
                dense = dense_form(tr, w)
                scale = np.abs(dense).max()
                for g, b in zip(gather, blocks):
                    assert np.abs(b - dense[np.ix_(g, g)]).max() <= 1e-13 * scale


def _slot_blocks(tr, weight):
    """Oracle: the order-pair (blocks, gather) built independently, from a
    slot table.  Slot (2m + s, l - 1) holds mode (l, m) with its cos (s = 0)
    or sin (s = 1) part, each order's form is re-indexed by degree, and the
    slot rows pair by sorting their counts of valid slots."""
    L, eng = tr.L, tr.engine
    order, part, _ = eng.layout
    slot = (2 * order + part, tr.mode_l - 1)
    slot_mode = np.zeros((2 * L + 2, L), dtype=int)
    slot_mode[slot] = np.arange(tr.n_modes)
    valid = np.zeros(slot_mode.shape, dtype=bool)
    valid[slot] = True
    orders = np.arange(L + 1)
    pair, which, offset = eng.placement
    X = eng.X[pair, :, tr.GRAD]
    E = np.stack([X[:, :, 0], 0.5 * (X[:, :, 1] + X[:, :, 2]), X[:, :, 3]], 1)
    w = np.reshape(weight, (tr.grid.n_lat, -1))[:, 0]
    G = (E * w) @ E.swapaxes(-1, -2)
    Gm = np.zeros((orders.size, 3, L + 1, L + 1))
    for j, (m, o) in enumerate(zip(orders, offset)):
        Gm[j, :, m:, m:] = G[j, :, m - o:L + 1 - o, m - o:L + 1 - o]
    trig = eng.trig[tr.GRAD][[0, 1, 3]].reshape(3, -1, 2, 2, tr.grid.n_lon)
    tau = (trig[:, pair, which] ** 2).sum(-1) * np.array([1.0, 2.0, 1.0])[:, None, None]
    full = (tau.transpose(1, 2, 0) @ Gm.reshape(orders.size, 3, -1)).reshape(-1, L + 1, L + 1)
    forms = 0.5 * (full[:, 1:, 1:] + full[:, 1:, 1:].swapaxes(-1, -2))
    count = valid.sum(1)
    rows = np.argsort(count, kind="stable")
    rows = rows[count[rows] > 0]
    full_rows, part_rows = rows[count[rows] == L], rows[count[rows] < L]
    a = np.concatenate((full_rows, part_rows[:part_rows.size // 2]))
    b = np.concatenate((full_rows, part_rows[::-1][:part_rows.size // 2]))
    j, n_a = np.arange(L), count[a][:, None]
    first = j < n_a
    row = np.where(first, a[:, None], b[:, None])
    col = np.where(first, j + L - n_a, j)
    blocks = forms[row[:, :, None], col[:, :, None], col[:, None, :]]
    return np.where(row[:, :, None] == row[:, None, :], blocks, 0.0), slot_mode[row, col]


@pytest.mark.parametrize("L", [2, 3, 5, 8, 13, 16, 32])
def test_order_pair_blocks_match_the_slot_construction(L):
    # bit for bit: the blocks, their gather and the eigenvalues
    for R in (1.0, 1.3):
        grid = geo.build_sphere_grid(L, R)
        z = grid.nodes[:, 2] / R
        for nu in (1.0 + 0.5 * z + 0.3 * z * z, 1.0 + 0.9 * z + 0.3 * z * z):
            form = assemble_stokes(grid, geo.ViscosityField(grid, nu), L)
            blocks, gather = _slot_blocks(form.transform, 2.0 * grid.weights * nu)
            assert form.blocks.tobytes() == blocks.tobytes()
            assert np.array_equal(form.gather, gather)
            assert form.eigenvalues().tobytes() == np.sort(
                np.linalg.eigvalsh(blocks), axis=None).tobytes()


def test_eigenvalue_count_is_n_modes():
    # one eigenvalue per mode, on the diagonal, order-pair and dense storages
    for L in (8, 12):
        grid = geo.build_sphere_grid(L, 1.3)
        x, z = grid.nodes[:, 0] / grid.R, grid.nodes[:, 2] / grid.R
        for values, build in ((2.5, assemble_stokes), (1.0 + 0.5 * z, assemble_stokes),
                              (1.0 + 0.3 * x, dense_stokes_form)):
            form = build(grid, geo.ViscosityField(grid, values), L)
            assert form.eigenvalues().shape == (L * (L + 2),)


def test_cross_order_entries_vanish():
    # the dense linear_x3 form couples no two signed orders
    grid = geo.build_sphere_grid(12, 1.0)
    tr = SphereTransform(grid, 12)
    A = dense_form(tr, _weights(grid, "linear_x3"))
    mode_m = signed_order(tr)
    cross = mode_m[:, None] != mode_m[None, :]
    assert np.abs(A[cross]).max() <= 1e-12 * np.abs(A).max()


@pytest.fixture(scope="module")
def form_x(sphere8):
    return dense_stokes_form(sphere8, geo.ViscosityField(
        sphere8, 1.0 + 0.3 * sphere8.nodes[:, 0]), 8)


def test_row_constant_viscosity_needs_no_probes(monkeypatch, sphere8):
    # a constant viscosity holds no blocks; linear_x3 and the sphere Korn
    # constant assemble from latitude profiles
    def probe(self, weight):
        raise RuntimeError("probe path")
    with monkeypatch.context() as m:
        m.setattr(SphereTransform, "order_forms", probe)
        form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)
    assert form.blocks is None and form.gather is None
    tr = SphereTransform(sphere8, 8)
    z = sphere8.nodes[:, 2]
    form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0 + 0.5 * z), 8)
    # orders 0 and 1 (cos and sin) fill a block each, and m >= 2 pairs with
    # L + 2 - m: every mode once, the blocks the slot construction's
    assert form.blocks.shape == (10, 8, 8)
    assert np.array_equal(np.sort(form.gather, axis=None), np.arange(tr.n_modes))
    blocks, gather = _slot_blocks(tr, 2.0 * sphere8.weights * (1.0 + 0.5 * z))
    dense = np.zeros((tr.n_modes,) * 2)
    for g, b in zip(gather, blocks):
        dense[np.ix_(g, g)] = b
    np.testing.assert_array_equal(_dense(form), dense)
    assert korn_constant(sphere8, 8) == pytest.approx(np.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize("R", [1.0, 1.3])
def test_longitude_varying_viscosity_is_refused_before_any_transform(monkeypatch, R):
    # nu = 1 + 0.3 x1 / R couples every order: assembly names the
    # requirement and builds no transform
    grid = geo.build_sphere_grid(8, R)
    built, init = [], SphereTransform.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(SphereTransform, "__init__", counted)
    nu = geo.ViscosityField(grid, 1.0 + 0.3 * grid.nodes[:, 0] / R)
    with pytest.raises(ParameterError, match="constant along each latitude row"):
        assemble_stokes(grid, nu, 8)
    assert not built


def _indexed_apply(form, c):
    """A c with the stack gathered into (row, block, slot) order by fancy
    indexing: the form's flat-index apply must match it bit for bit."""
    gather = form.gather
    y = c[:, gather].transpose(1, 0, 2) @ form.blocks
    return y.transpose(1, 0, 2).reshape(c.shape[0], gather.size)[:, np.argsort(gather, axis=None)]


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


def test_cn_solve_matches_dense(form1, formv, form_x):
    # (2 m, dt A m / 2) with m = (I + dt A / 2)^-1 y, for the diagonal, order-pair
    # and dense storage, at two alternating dts and changing stack heights
    rng = np.random.default_rng(17)
    for form in (form1, formv, form_x):
        A = _dense(form)
        for dt, k in ((1e-2, 1), (0.3, 3), (1e-2, 8), (0.3, 0), (1e-2, 3)):
            y = rng.normal(size=(k, A.shape[0]))
            m = np.linalg.solve(np.eye(A.shape[0]) + 0.5 * dt * A, y.T).T
            out = form.cn_solve(y, dt)
            assert out.shape == (2,) + y.shape
            for got, want in zip(out, (2.0 * m, 0.5 * dt * m @ A.T)):
                assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)
            # m + a A m = y, the identity the solve is built on
            defect = np.abs(out[1] + 0.5 * out[0] - y).max(initial=0.0)
            assert defect <= np.finfo(float).eps * np.abs(y).max(initial=0.0)


def test_block_eigenvalues_match_dense(formv, form_x):
    for form in (formv, form_x):
        ev = np.linalg.eigvalsh(_dense(form))
        scale = ev.max()
        assert np.abs(form.eigenvalues() - ev).max() <= 1e-12 * scale
        assert abs(form.rho_full() - ev.max()) <= 1e-12 * scale
        assert form.rho_explicit() == 0.0     # the IMEX step has no explicit part of A


def test_constant_nu_eigenvalues_closed_form(sphere8, sphere8_r2, sphere64):
    # nu (l(l+1) - 2) / R^2 with multiplicity 2l + 1; lambda_l at nu = 1
    for L, grid in ((8, sphere8), (8, sphere8_r2), (64, sphere64[1.0]), (64, sphere64[2.0])):
        form = assemble_stokes(grid, geo.ViscosityField(grid, 2.5), L)
        l = np.arange(1, L + 1)
        lam = (l * (l + 1) - 2.0) / grid.R ** 2
        exact = np.sort(np.repeat(2.5 * lam, 2 * l + 1))
        assert np.abs(form.eigenvalues() - exact).max() <= 1e-12 * exact.max()
        assert np.abs(form.lam_by_degree[1:] - lam).max() <= 1e-12 * lam.max()


def test_spectral_gap_of_constant_viscosity():
    # the decay checks' sigma is nu lambda_2 for any constant nu
    grid = geo.build_sphere_grid(8, 1.3)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 2.5), 8)
    assert abs(_gap(form) - 2.5 * form.lam_by_degree[2]) <= 1e-12 * form.lam_by_degree[2]


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("R", [1.0, 2.0])
@pytest.mark.parametrize("a", [0.5, 0.9])
def test_spectral_gap_meets_korn_bound(L, R, a):
    # A's kernel is exactly the three Killing modes, and Korn bounds the
    # rest: (A v, v) >= 2 nu_min ||eps(v)||^2 >= 2 nu_min / C_P^2 ||v||^2
    grid = geo.build_sphere_grid(L, R)
    nu = geo.ViscosityField(grid, 1.0 + a * grid.nodes[:, 2] / R)
    form = assemble_stokes(grid, nu, L)
    ev = form.eigenvalues()
    assert np.abs(ev[:3]).max() <= 1e-12 * ev[-1]
    # lambda_1 sums (e_i w_i) e_i >= 0 with no clamp
    assert form.lam_by_degree[1] >= 0.0
    sigma, c_p = _gap(form), korn_constant(grid, L)
    assert sigma >= 2.0 * nu.nu_min / c_p ** 2 > 0.0


def dissipation_defect(L, R, a, seed=3, k=4):
    """Largest relative gap, over k seeded rows c, between (c, A c) from the
    assembled form of nu = 1 + a x3 / R and ``strain_dissipation``'s
    quadrature sum_n 2 nu_n w_n |eps(u)|^2_n of the gradient synthesis of c."""
    grid = geo.build_sphere_grid(L, R)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0 + a * grid.nodes[:, 2] / R), L)
    c = np.random.default_rng(seed).normal(size=(k, form.D.size))
    quad = strain_dissipation(form, c)
    return float(np.max(np.abs(np.einsum("kn,kn->k", c, form.apply(c)) - quad) / quad))


@pytest.mark.parametrize("L", [8, 16])
def test_dissipation_matches_the_strain_quadrature(L):
    # the assembled form against int 2 nu |eps(u)|^2 from the nodal nu: the
    # identity (u, A u) of the weak form, read without blocks or gather
    for R in (1.0, 1.3):
        for a in (0.5, 0.9):
            assert dissipation_defect(L, R, a) <= 1e-12, (R, a)


def enstrophy_defect(grid, L, seeds=range(5)):
    """Largest ``enstrophy_cosine`` |(N(c), D c)| / (||N|| ||D c||) over
    seeded rows c, N the convective term on ``grid`` at truncation L (through
    the package's binding, which a mutant may patch) and
    D = (l(l+1) - 2) / R^2."""
    tr = SphereTransform(grid, L)
    c = np.stack([random_band_limited(tr, seed).coeffs for seed in seeds])
    return float(enstrophy_cosine(tr, c).max())


@pytest.mark.parametrize("L,aliased", [(8, 6), (11, 8), (16, 11), (32, 22)])
def test_convective_term_conserves_enstrophy(L, aliased):
    # (u . grad omega, omega) = 0 makes N orthogonal to D c as well as to c
    # when the quadrature is exact; a grid of degree L + 1 breaks it
    for R in (1.0, 1.3):
        assert enstrophy_defect(geo.build_sphere_grid(L, R), L) <= 1e-14, R
        grid = geo.build_sphere_grid(aliased, R)
        assert grid.max_degree == L + 1
        assert enstrophy_defect(grid, L) >= 1e-6, R


def test_enstrophy_cosine_rows():
    # on a grid of degree L + 1 the cosines are O(1e-3), so the 8-row chunks
    # must give each row its own; a row where N or D c vanishes (zero, or
    # Killing rows only, where D = 0) reads 0, not nan
    tr = SphereTransform(geo.build_sphere_grid(6, 1.0), 8)
    c = np.stack([random_band_limited(tr, seed).coeffs for seed in range(11)])
    c[3] = 0.0
    c[9, 3:] = 0.0
    cos = enstrophy_cosine(tr, c)
    assert cos.shape == (11,) and cos[3] == cos[9] == 0.0
    alone = np.array([enstrophy_cosine(tr, row[None])[0] for row in c])
    assert np.abs(cos - alone).max() <= 1e-12 * cos.max()
    assert np.delete(cos, [3, 9]).min() >= 1e-6
