"""Grid construction, quadrature exactness, and tangential calculus."""

import numpy as np
import pytest

from conftest import tangential_project, toroidal_basis_field
from surfns import geometry as geo
from surfns.errors import GeometryError, GridMismatchError, ParameterError
from surfns.harmonics import random_band_limited
from surfns._legendre import plm_tables
import nodal_oracle as nodal


def surface_gradient(grid, p):
    """Tangential gradient of a nodal scalar by the spectral interpolant: its
    derivatives along the frame, from ``nodal.directional_derivatives``."""
    return geo.TangentialField(grid, nodal.directional_derivatives(grid, np.asarray(p, float)).T)


def surface_divergence(grid, u):
    """Trace of ``nodal.covariant_derivative``, one scalar per node."""
    T = nodal.covariant_derivative(grid, u)
    return T[:, 0, 0] + T[:, 1, 1]


def _as_2d(grid, values):
    """View per-node values as (n_lat, n_lon, ...)."""
    values = np.asarray(values)
    return values.reshape((grid.n_lat, grid.n_lon) + values.shape[1:])


def test_sphere_area_unit(sphere8):
    assert abs(sphere8.area - 4 * np.pi) <= 1e-12 * 4 * np.pi


def test_sphere_area_scaling(sphere8_r2):
    assert abs(sphere8_r2.area - 16 * np.pi) <= 1e-12 * 16 * np.pi


def test_sphere_moment_x3sq(sphere16):
    # closed form: 2 pi int_0^pi cos^2(t) sin(t) dt = 4 pi / 3
    val = float((sphere16.nodes[:, 2] ** 2 * sphere16.weights).sum())
    assert abs(val - 4 * np.pi / 3) <= 1e-12


def test_sphere_frame_orthonormal(sphere8):
    g = sphere8
    normals = np.cross(g.e1, g.e2)
    # e1 x e2 is the outward unit normal
    assert np.abs(normals - g.nodes / g.R).max() <= 1e-12
    for a, b in ((g.e1, g.e1), (g.e2, g.e2)):
        assert np.abs(np.einsum("ij,ij->i", a, b) - 1).max() <= 1e-12
    assert np.abs(np.einsum("ij,ij->i", g.e1, g.e2)).max() <= 1e-12


def test_sphere_bad_parameters():
    with pytest.raises(ParameterError):
        geo.build_sphere_grid(1, 1.0)
    with pytest.raises(ParameterError):
        geo.build_sphere_grid(8, -1.0)


def test_grids_reject_non_finite_radii():
    for R in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            geo.build_sphere_grid(8, R)
    for R, r in ((np.inf, 0.5), (np.nan, 0.5), (2.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(GeometryError):
            geo.build_torus_grid(32, 32, R, r)


def test_torus_area(torus64):
    assert abs(torus64.area - 4 * np.pi ** 2) <= 1e-10 * torus64.area


def test_torus_x3_symmetry(torus64):
    assert abs((torus64.nodes[:, 2] * torus64.weights).sum()) <= 1e-12


def test_torus_area_32():
    t = geo.build_torus_grid(32, 32, 3.0, 1.0)
    assert abs(t.area - 12 * np.pi ** 2) <= 1e-10 * t.area


def test_torus_bad_parameters():
    with pytest.raises(GeometryError):
        geo.build_torus_grid(32, 32, 1.0, 2.0)
    with pytest.raises(ParameterError):
        geo.build_torus_grid(7, 32, 2.0, 0.5)
    with pytest.raises(ParameterError):
        geo.build_torus_grid(32, geo.TORUS_N_MAX + 2, 2.0, 0.5)


def test_tangential_project_examples(sphere8):
    g = sphere8
    v = np.tile([1.0, 2.0, 3.0], (g.n_nodes, 1))
    u = tangential_project(g, v)
    normals = np.cross(g.e1, g.e2)
    expect = v - np.einsum("ij,ij->i", v, normals)[:, None] * normals
    assert np.abs(u.comps[:, :1] * g.e1 + u.comps[:, 1:] * g.e2 - expect).max() <= 1e-12

    zero = tangential_project(g, normals)
    assert np.abs(zero.comps).max() <= 1e-12

    e1 = tangential_project(g, g.e1.copy())
    assert np.abs(e1.comps - [1.0, 0.0]).max() <= 1e-12


def test_surface_gradient_constant(sphere8):
    gr = surface_gradient(sphere8, np.ones(sphere8.n_nodes))
    assert np.abs(gr.comps).max() <= 1e-12


def test_surface_gradient_x3(sphere8):
    # grad of cos(theta) has magnitude sin(theta); cross-check against a
    # second-order finite difference along the colatitude lines
    g = sphere8
    p = g.nodes[:, 2]
    gr = surface_gradient(g, p)
    mag = np.hypot(gr.comps[:, 0], gr.comps[:, 1])
    st = np.sin(np.repeat(g.lat, g.n_lon))
    assert np.abs(mag - st).max() <= 1e-12

    p2d = _as_2d(g, p)
    fd = np.gradient(p2d, g.lat, axis=0)
    gth = _as_2d(g, gr.comps)[:, :, 0]
    # one-sided end stencils are low order on the nonuniform grid
    assert np.abs(fd[1:-1] - gth[1:-1]).max() <= 2e-2


def test_surface_gradient_bilinear_symmetry(sphere8):
    g = sphere8
    rng = np.random.default_rng(3)
    p = np.cos(2 * g.nodes[:, 0]) + g.nodes[:, 1] * g.nodes[:, 2]
    q = np.sin(g.nodes[:, 2]) + rng.normal(0, 0.0, g.n_nodes) + g.nodes[:, 0]
    gp, gq = surface_gradient(g, p), surface_gradient(g, q)
    assert abs(geo.l2_inner(g, gp, gq) - geo.l2_inner(g, gq, gp)) <= 1e-12


def test_strain_of_killing_rotation(sphere8, rotation_field):
    u = rotation_field(sphere8, 2)
    assert nodal.strain_norm(sphere8, u) <= 1e-10


def test_toroidal_mode_divergence_free(sphere8, tr8):
    for l, m in ((1, 0), (2, 0), (3, 2), (5, -4)):
        u = toroidal_basis_field(tr8, l, m)
        assert np.abs(surface_divergence(sphere8, u)).max() <= 1e-10


def test_laplacian_of_x3(sphere8):
    # degree-1 harmonic: div grad x3 = -2 x3 on the unit sphere
    g = sphere8
    p = g.nodes[:, 2]
    dv = surface_divergence(g, surface_gradient(g, p))
    assert np.abs(dv + 2 * p).max() <= 1e-8


def test_trace_strain_equals_divergence(sphere8, tr8):
    g = sphere8
    for i in range(100):
        s = random_band_limited(tr8, 5000 + i)
        u = tr8.synthesize(s)
        E = nodal.rate_of_strain(g, u)
        dv = surface_divergence(g, u)
        trace = E[:, 0, 0] + E[:, 1, 1]
        assert np.abs(trace - dv).max() <= 1e-12 * max(1.0, np.abs(dv).max())


def test_l2_inner_positive_definite(sphere8):
    g = sphere8
    rng = np.random.default_rng(0)
    u = geo.TangentialField(g, rng.standard_normal((g.n_nodes, 2)))
    assert geo.l2_inner(g, u, u) > 0
    z = geo.TangentialField(g, np.zeros((g.n_nodes, 2)))
    assert geo.l2_inner(g, z, z) == 0.0


def test_rotation_norm_oracle(sphere8, rotation_field):
    # 2 pi int sin^3 = 8 pi / 3
    u = rotation_field(sphere8, 2)
    assert abs(geo.l2_inner(sphere8, u, u) - 8 * np.pi / 3) <= 1e-10


def test_grid_mismatch_raises(sphere8, sphere16):
    u = geo.TangentialField(sphere8, np.zeros((sphere8.n_nodes, 2)))
    v = geo.TangentialField(sphere16, np.zeros((sphere16.n_nodes, 2)))
    with pytest.raises(GridMismatchError):
        geo.l2_inner(sphere8, u, v)


def test_quadrature_orthonormality_of_harmonics(sphere8):
    # scalar harmonics integrate to delta_{ll'} delta_{mm'} for l + l'
    # within the dealiasing degree
    g = sphere8
    M = g.max_degree
    P, _, _ = plm_tables(6, g.glx)
    dphi = 2 * np.pi / g.n_lon
    vals = {}
    for l in range(0, 7):
        for m in range(0, l + 1):
            fac = np.sqrt(2.0) if m > 0 else 1.0
            lat = P[m, l]
            vals[(l, m, "c")] = fac * np.outer(lat, np.cos(m * g.lon))
            if m > 0:
                vals[(l, m, "s")] = fac * np.outer(lat, np.sin(m * g.lon))
    w2 = g.weights.reshape(g.n_lat, g.n_lon)
    keys = sorted(vals)
    rng = np.random.default_rng(7)
    for _ in range(200):
        ka, kb = keys[rng.integers(len(keys))], keys[rng.integers(len(keys))]
        if ka[0] + kb[0] > 2 * M:
            continue
        ip = float((vals[ka] * vals[kb] * w2).sum())
        assert abs(ip - (1.0 if ka == kb else 0.0)) <= 1e-12


def test_covariant_derivatives_stack_matches_single(sphere8, torus64):
    # smooth ambient fields, k = 1 and 5; the torus through the geometry
    # module, the sphere through the nodal oracle
    rng = np.random.default_rng(7)
    for grid, calc in ((sphere8, nodal), (torus64, geo)):
        x = grid.nodes / np.abs(grid.nodes).max()
        basis = np.stack([np.sin(x[:, 1]), x[:, 0] * x[:, 2], np.cos(2 * x[:, 0]),
                          np.ones(grid.n_nodes), x[:, 1] ** 2])
        for k in (1, 5):
            amb = np.einsum("kcb,bn->knc", rng.standard_normal((k, 3, 5)), basis)
            fields = [tangential_project(grid, a) for a in amb]
            T = calc.covariant_derivatives(grid, np.stack([f.comps.T for f in fields]))
            for Tk, f in zip(T, fields):
                ref = calc.covariant_derivative(grid, f)
                assert np.abs(Tk.transpose(2, 0, 1) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_nodal_calculus_refuses_the_sphere(sphere8, tr8):
    # the sphere's derivatives come from the transform's GRAD tables alone;
    # without the refusal these calls would run the torus's FFT route
    u = toroidal_basis_field(tr8, 2, 1)
    for call in (lambda: geo.covariant_derivatives(sphere8, u.comps.T[None]),
                 lambda: geo.covariant_derivative(sphere8, u),
                 lambda: geo.h1_norm(sphere8, u), lambda: geo.strain_norm(sphere8, u)):
        with pytest.raises(ParameterError, match="GRAD"):
            call()


def _grad_inf(nu):
    """Discrete gradient sup-norm of a viscosity (a W^{1,inf} proxy)."""
    if np.ptp(nu.values) == 0.0:
        return 0.0
    return float(np.abs(surface_gradient(nu.grid, nu.values).comps).max())


def test_viscosity_field_validation(sphere8):
    with pytest.raises(ParameterError):
        geo.ViscosityField(sphere8, -0.5)
    nu = geo.ViscosityField(sphere8, 1.0 + 0.5 * sphere8.nodes[:, 2])
    assert nu.nu_min > 0.49
    assert _grad_inf(nu) == pytest.approx(0.5, rel=1e-6)
    const = geo.ViscosityField(sphere8, 2.0)
    assert _grad_inf(const) == 0.0


def test_laplacian_degree2_harmonic(sphere8):
    # x1 x3 restricted to the unit sphere is degree 2: div grad = -6 x1 x3
    g = sphere8
    p = g.nodes[:, 0] * g.nodes[:, 2]
    dv = surface_divergence(g, surface_gradient(g, p))
    assert np.abs(dv + 6.0 * p).max() <= 1e-10


def test_torus_divergence_metric_formula(torus64):
    # ambient-interpolant route against the coordinate expression
    # (1/(r h)) d_pol(h u_pol) + (1/h) d_tor(u_tor), h = R + r cos
    from surfns.geometry import _fft_deriv
    t = torus64
    pol = t.lat[:, None]
    h = t.R + t.r * np.cos(pol)
    u1 = np.broadcast_to(np.cos(2 * pol + 3 * t.lon[None, :]) * np.sin(pol),
                         (t.n_lat, t.n_lon)).copy()
    u2 = np.broadcast_to(np.sin(pol) + 0.3 * np.cos(t.lon[None, :] + 2 * pol),
                         (t.n_lat, t.n_lon)).copy()
    u = geo.TangentialField(t, np.stack([u1.reshape(-1), u2.reshape(-1)], axis=1))
    dv = _as_2d(t, surface_divergence(t, u))
    oracle = _fft_deriv(h * u2, axis=0) / (t.r * h) + _fft_deriv(u1, axis=1) / h
    assert np.abs(dv - oracle).max() <= 1e-12
