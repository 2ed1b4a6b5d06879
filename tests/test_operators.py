"""Stokes form assembly, application, convective term, forcing dispatch."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.errors import ParameterError
from surfns.forcing import apply_forcing, make_catalog_forcing
from surfns.harmonics import SpectralState, get_transform, random_band_limited
from surfns.killing import killing_basis
from surfns.operators import assemble_stokes, convective_term, stokes_apply


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


def test_lambda1_zero(form1):
    assert abs(form1.lam_by_degree[1]) <= 1e-10


def test_constant_nu_diagonal(form1):
    off = form1.A - np.diag(np.diag(form1.A))
    assert np.abs(off).max() <= 1e-10


def test_eigenvalue_closed_form(form1):
    # lambda_l = l(l+1) - 2 on the unit sphere
    for l in range(1, 9):
        assert form1.lam_by_degree[l] == pytest.approx(l * (l + 1) - 2.0, abs=1e-10)


def test_linearity_in_nu(sphere8, form1):
    form_c = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 2.5), 8)
    assert np.abs(form_c.A - 2.5 * form1.A).max() <= 1e-12 * np.abs(form_c.A).max()


def test_symmetry_and_psd(formv):
    assert np.abs(formv.A - formv.A.T).max() <= 1e-12 * np.abs(formv.A).max()
    eigs = np.linalg.eigvalsh(formv.A)
    assert eigs.min() >= -1e-10
    # kernel is exactly the degree-1 block
    assert np.sort(eigs)[:3].max() <= 1e-10
    assert np.sort(eigs)[3] > 0.1


def test_variable_nu_killing_rows(formv):
    assert np.abs(formv.A[:3]).max() <= 1e-10


def test_stokes_apply_kernel(form1):
    s = SpectralState(8)
    s.coeffs[:3] = [1.0, -0.5, 0.25]
    out = stokes_apply(form1, s)
    assert np.abs(out.coeffs).max() <= 1e-10


def test_stokes_apply_eigenmode(form1):
    s = SpectralState(8)
    s.set(2, 0, 1.0)
    out = stokes_apply(form1, s)
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
    assert abs(formv.quad_form(s.coeffs) - oracle) <= 1e-10 * max(oracle, 1.0)


def test_stokes_apply_never_feeds_killing(formv, tr8):
    s = random_band_limited(tr8, 9)
    out = stokes_apply(formv, s)
    assert np.linalg.norm(out.coeffs[:3]) <= 1e-10 * s.norm()


def test_explicit_remainder_psd(formv):
    ap = formv.A_prime
    eigs = np.linalg.eigvalsh(0.5 * (ap + ap.T))
    assert eigs.min() >= -1e-10


def test_spectrum_rotation_invariance(sphere8):
    # assembling with nu(x) and nu(Rx) for a rotation about e3 gives the
    # same spectrum
    x, y = sphere8.nodes[:, 0], sphere8.nodes[:, 1]
    nu_a = geo.ViscosityField(sphere8, 1.0 + 0.3 * x)
    nu_b = geo.ViscosityField(sphere8, 1.0 + 0.3 * y)
    ea = np.linalg.eigvalsh(assemble_stokes(sphere8, nu_a, 8).A)
    eb = np.linalg.eigvalsh(assemble_stokes(sphere8, nu_b, 8).A)
    assert np.abs(ea - eb).max() <= 1e-8


def test_convective_energy_orthogonality(sphere8, tr8):
    for i in range(5):
        s = random_band_limited(tr8, 300 + i)
        n = convective_term(sphere8, s)
        h1 = np.sqrt(tr8.h1_norm2(s))
        assert abs(float(n.coeffs @ s.coeffs)) <= 1e-9 * s.norm() ** 2 * max(h1, 1.0)


def test_convective_killing_projection_vanishes(sphere8, tr8, kb):
    for i in range(5):
        s = random_band_limited(tr8, 600 + i)
        n = convective_term(sphere8, s)
        scale = max(s.norm() ** 2, 1.0)
        assert np.abs(kb.alpha_from_state(n)).max() <= 1e-9 * scale


def test_convective_killing_self_transport(sphere8, kb, tr8):
    s = SpectralState(8)
    s.coeffs[:3] = [0.7, -0.1, 0.4]
    n = convective_term(sphere8, s)
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
    assert convective_term(sphere8, s).norm() <= 1e-9


def test_convective_zero(sphere8):
    assert convective_term(sphere8, SpectralState(8)).norm() == 0.0


def test_convective_matches_bruteforce():
    for L in (8, 11, 32):
        grid = geo.build_sphere_grid(L, 1.0)
        tr = get_transform(grid, L)
        s = random_band_limited(tr, 123)
        u = tr.synthesize(s)
        T = geo.covariant_derivative(grid, u)
        adv = np.einsum("nij,nj->ni", T.comps, u.comps)
        oracle = tr.analyze(geo.TangentialField(grid, adv))
        fast = convective_term(grid, s)
        assert np.abs(fast.coeffs - oracle.coeffs).max() <= 1e-11


def test_semidiscrete_energy_identity(sphere8, formv, kb, tr8):
    # d/dt (1/2 ||u||^2) from the assembled RHS equals -int 2nu|eps|^2 + int f.u
    spec = make_catalog_forcing("f2_minus",
                                {"v": tr8.toroidal_basis_field(2, 1)}, kb)
    for i in range(5):
        s = random_band_limited(tr8, 900 + i)
        rhs = (-stokes_apply(formv, s).coeffs
               - convective_term(sphere8, s).coeffs
               + apply_forcing(spec, sphere8, kb, s).coeffs)
        lhs = float(rhs @ s.coeffs)
        expected = -formv.quad_form(s.coeffs) + float(
            apply_forcing(spec, sphere8, kb, s).coeffs @ s.coeffs)
        scale = max(abs(expected), s.norm() ** 2, 1.0)
        assert abs(lhs - expected) <= 1e-9 * scale


def test_forcing_apply_examples(sphere8, kb, tr8):
    s = random_band_limited(tr8, 55)
    # f3- is exactly -u
    f3m = make_catalog_forcing("f3_minus", {}, kb)
    assert np.abs(apply_forcing(f3m, sphere8, kb, s).coeffs + s.coeffs).max() == 0.0
    # constant Killing forcing is independent of the state
    fk = make_catalog_forcing("constant_killing", {"c": 1.0, "axis": 0}, kb)
    out1 = apply_forcing(fk, sphere8, kb, s)
    out2 = apply_forcing(fk, sphere8, kb, SpectralState(8))
    assert np.abs(out1.coeffs - out2.coeffs).max() == 0.0
    assert np.linalg.norm(out1.coeffs[:3]) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(out1.coeffs[3:]).max() == 0.0
    # f2+ with v = Phi_20: v-part plus the Killing block of s
    f2p = make_catalog_forcing("f2_plus",
                               {"v": tr8.toroidal_basis_field(2, 0)}, kb)
    out = apply_forcing(f2p, sphere8, kb, s)
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
    assert np.abs(form.A - form.A.T).max() <= 1e-12 * np.abs(form.A).max()
    eigs = np.linalg.eigvalsh(form.A)
    assert eigs.min() >= -1e-10
    assert np.abs(form.A[:3]).max() <= 1e-10


def _weights(grid, kind):
    x, z = grid.nodes[:, 0], grid.nodes[:, 2]
    nu = 1.0 + 0.5 * z / grid.R if kind == "linear_x3" else 1.0 + 0.3 * x / grid.R
    return 2.0 * grid.weights * nu


def test_blocks_match_single_part_form():
    # signed-order blocks of the axisymmetric form, and the one-part
    # fallback for an x-dependent viscosity, against the one-part probe
    for L in (8, 12):
        grid = geo.build_sphere_grid(L, 1.0)
        tr = get_transform(grid, L)
        for kind, n_parts in (("linear_x3", 2 * L + 1), ("x", 1)):
            w = _weights(grid, kind)
            parts = tr.partition(w)
            assert len(parts) == n_parts
            assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(tr.n_modes))
            blocks = tr.gradient_form(w, parts=parts)
            dense = tr.gradient_form(w, parts=[np.arange(tr.n_modes)])[0]
            scale = np.abs(dense).max()
            for idx, b in zip(parts, blocks):
                s = idx.size
                assert np.abs(b[:s, :s] - dense[np.ix_(idx, idx)]).max() <= 1e-13 * scale
                assert not b[s:].any() and not b[:, s:].any()


def test_cross_order_entries_vanish():
    # the dense linear_x3 form couples no two signed orders
    grid = geo.build_sphere_grid(12, 1.0)
    tr = get_transform(grid, 12)
    A = tr.gradient_form(_weights(grid, "linear_x3"), parts=[np.arange(tr.n_modes)])[0]
    cross = tr.mode_m[:, None] != tr.mode_m[None, :]
    assert np.abs(A[cross]).max() <= 1e-12 * np.abs(A).max()


@pytest.fixture(scope="module")
def form_x(sphere8):
    return assemble_stokes(sphere8, geo.ViscosityField(
        sphere8, 1.0 + 0.3 * sphere8.nodes[:, 0]), 8)


def test_apply_matches_dense(formv, form_x):
    rng = np.random.default_rng(5)
    for form in (formv, form_x):
        A = form.A
        for k in (1, 3):
            c = rng.normal(size=(k, A.shape[0]))
            dense = c @ A.T
            assert np.abs(form.apply(c) - dense).max() <= 1e-13 * np.abs(dense).max()


def test_block_eigenvalues_match_dense(formv, form_x):
    for form in (formv, form_x):
        ev = np.linalg.eigvalsh(form.A)
        ap = form.A_prime
        rho = np.linalg.eigvalsh(0.5 * (ap + ap.T)).max()
        scale = ev.max()
        assert np.abs(form.eigenvalues() - ev).max() <= 1e-12 * scale
        assert abs(form.rho_full() - ev.max()) <= 1e-12 * scale
        assert abs(form.rho_explicit() - rho) <= 1e-12 * rho


def test_constant_nu_eigenvalues_closed_form(sphere8, sphere8_r2):
    # nu (l(l+1) - 2) / R^2 with multiplicity 2l + 1
    for grid in (sphere8, sphere8_r2):
        form = assemble_stokes(grid, geo.ViscosityField(grid, 2.5), 8)
        exact = np.sort(np.concatenate(
            [np.full(2 * l + 1, 2.5 * (l * (l + 1) - 2) / grid.R ** 2) for l in range(1, 9)]))
        assert np.abs(form.eigenvalues() - exact).max() <= 1e-12 * exact.max()
