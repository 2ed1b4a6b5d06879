"""Diagnostics: records, decay fits, Killing identities, monotonicity,
dependence ratios, and the backward-uniqueness quotient."""

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mode_row, toroidal_basis_field
from surfns import geometry as geo
from surfns.diagnostics import (check_killing_identity, check_monotonicity,
                                continuous_dependence_ratio, fit_decay_rate,
                                lambda_series, record)
from surfns.errors import ParameterError
from surfns.forcing import make_catalog_forcing
from surfns.harmonics import SpectralState, random_band_limited
from surfns.killing import killing_basis
from surfns.operators import assemble_stokes
from surfns.timestepper import SimState, StepperConfig, run, step_imex
from test_killing import killing_coefficients


def fk_of(spec):
    """f_K: the Killing coordinates of F(0)'s degree-1 rows."""
    return spec.basis.alpha(spec.f[:3])


def log_norm_slope(times, rows):
    """The least-squares slope of L(t) = -log ||u(t)|| over the rows."""
    return np.polyfit(times, -np.log(np.linalg.norm(rows, axis=1)), 1)[0]


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


@pytest.fixture(scope="module")
def form1(sphere8):
    return assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)


@pytest.fixture(scope="module")
def spec0(kb):
    return make_catalog_forcing("zero", {}, kb)


def test_record_killing_state(sphere8, kb, form1, spec0):
    s = SpectralState(8)
    s.coeffs[0] = 1.0
    rec = record(form1, spec0, SimState([s]))[0]
    assert rec.dissipation <= 1e-10
    assert rec.lam <= 1e-10 and np.isfinite(rec.lam)
    assert rec.norm_uK == pytest.approx(1.0, abs=1e-12)
    assert rec.norm_uNK == 0.0


def test_record_eigenmode_lambda(sphere8, kb, form1, spec0):
    s = SpectralState(8)
    s.set(2, 0, 0.5)
    rec = record(form1, spec0, SimState([s]))[0]
    assert rec.lam == pytest.approx(form1.lam_by_degree[2], abs=1e-10)


def test_record_zero_state(sphere8, kb, form1, spec0):
    rec = record(form1, spec0, SimState([SpectralState(8)]))[0]
    assert not np.isfinite(rec.lam)
    assert rec.norm_u == 0.0 and rec.energy == 0.0


def test_record_orthogonal_split(sphere8, kb, form1, spec0, tr8):
    for i in range(10):
        s = random_band_limited(tr8, 400 + i)
        rec = record(form1, spec0, SimState([s]))[0]
        gap = abs(rec.norm_u ** 2 - rec.norm_uK ** 2 - rec.norm_uNK ** 2)
        assert gap <= 1e-10 * rec.norm_u ** 2


def test_lambda_scale_invariance(sphere8, kb, form1, spec0, tr8):
    s = random_band_limited(tr8, 77)
    rec1 = record(form1, spec0, SimState([s]))[0]
    s2 = SpectralState(8, 37.5 * s.coeffs)
    rec2 = record(form1, spec0, SimState([s2]))[0]
    assert abs(rec1.lam - rec2.lam) <= 1e-12 * max(rec1.lam, 1.0)


def test_batched_record_matches_one_row_records(sphere8, kb, tr8):
    # linear_x3 viscosity and f2_minus forcing, so work and alpha are nonzero;
    # a few steps give every row its own ledger
    form = assemble_stokes(sphere8, geo.ViscosityField(
        sphere8, 1.0 + 0.5 * sphere8.nodes[:, 2]), 8)
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    sim = SimState([random_band_limited(tr8, 500 + i, norm_killing=0.5)
                    for i in range(3)], dt=1e-3)
    for _ in range(5):
        sim = step_imex(sim, form, spec, 1e-3)
    batch = record(form, spec, sim)
    assert len(batch) == 3
    for j, rec in enumerate(batch):
        (solo,) = record(form, spec, sim.take([j]))
        assert solo.work != 0.0 and np.abs(solo.alpha).max() > 0.0
        assert rec.t == solo.t
        for name in ("norm_u", "norm_uK", "norm_uNK", "energy", "dissipation",
                     "work", "energy_residual", "lam"):
            a, b = getattr(rec, name), getattr(solo, name)
            assert abs(a - b) <= 1e-13 * abs(b), name
        assert np.abs(rec.alpha - solo.alpha).max() <= 1e-13 * np.abs(solo.alpha).max()


def test_fit_decay_synthetic_pure(sphere8):
    t = np.linspace(0.0, 20.0, 600)
    zeta, omega = fit_decay_rate(t, np.exp(-3.0 * t))
    assert abs(zeta - 3.0) <= 1e-3
    assert omega <= 1e-12


def test_fit_decay_synthetic_plateau(sphere8):
    t = np.linspace(0.0, 20.0, 600)
    zeta, omega = fit_decay_rate(t, np.exp(-2.0 * t) + 0.5)
    assert abs(zeta - 2.0) <= 1e-2
    assert abs(omega - 0.5) <= 1e-3


def test_fit_decay_guards():
    with pytest.raises(ParameterError):
        fit_decay_rate([0, 1], [1.0, 0.5])
    t = np.linspace(0, 1, 20)
    with pytest.raises(ParameterError):
        fit_decay_rate(t, -np.ones_like(t))


def test_fit_decay_real_run(sphere8, form1, spec0):
    # slowest-mode dominance: ||u_NK||^2 decays at 2 lambda_2 at late times
    c0 = SpectralState(8)
    c0.set(2, 0, 0.5)
    c0.set(3, 1, 0.5)
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=4.0, stride=10)
    _, records = run(cfg, sphere8, form1, spec0, c0)
    ts = np.array([r.t for r in records])
    ys = np.array([r.norm_uNK ** 2 for r in records])
    zeta, _ = fit_decay_rate(ts, ys, window=(1.0, 3.0))
    lam2 = form1.lam_by_degree[2]
    assert 2 * lam2 * (1 - 1e-3) <= zeta <= 2 * lam2 * (1 + 1e-3)


def test_killing_identity_quadratic_growth(sphere8, form1, kb):
    spec = make_catalog_forcing("constant_killing", {"c": 1.0, "axis": 0}, kb)
    cfg = StepperConfig(dt=1e-3, t_end=2.0, stride=50)
    _, records = run(cfg, sphere8, form1, spec, SpectralState(8))
    rep = check_killing_identity(records, spec)
    assert rep.quadratic_law_dev <= 1e-6
    assert rep.affine_law_dev <= 1e-8
    # spot check ||u_K(t)||^2 = t^2 at the sampled times 0.5, 1, 2
    for target in (0.5, 1.0, 2.0):
        rec = min(records, key=lambda r: abs(r.t - target))
        assert abs(rec.norm_uK ** 2 - rec.t ** 2) <= 1e-6


def test_killing_identity_slope(sphere8, form1, kb):
    spec = make_catalog_forcing("constant_killing", {"c": 2.0, "axis": 1}, kb)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=50)
    u0 = SpectralState(8)
    u0.coeffs[:3] = [0.1, -0.3, 0.2]
    _, records = run(cfg, sphere8, form1, spec, u0)
    rep = check_killing_identity(records, spec)
    # (fd): the power integral grows linearly with slope ||f_K||^2 = 4
    assert np.linalg.norm(fk_of(spec)) == pytest.approx(2.0, abs=1e-12)
    assert rep.linear_law_dev <= 1e-8
    # ||alpha(t)||^2 = ||alpha(0)||^2 + 2 t (f_K, alpha(0)) + t^2 ||f_K||^2
    assert rep.quadratic_law_dev <= 1e-8


def test_killing_identity_conservation(sphere8, form1, kb, tr8):
    spec = make_catalog_forcing("constant_field",
                                {"g": mode_row(8, 2, 0)}, kb)
    u0 = random_band_limited(tr8, 51, l_max=4, norm_killing=0.6,
                             norm_nonkilling=0.4)
    cfg = StepperConfig(dt=1e-3, t_end=5.0, stride=500)
    _, records = run(cfg, sphere8, form1, spec, u0)
    rep = check_killing_identity(records, spec)
    assert np.linalg.norm(fk_of(spec)) <= 1e-10
    assert rep.drift <= 1e-10


def test_killing_identity_needs_u_independent_killing_part(kb, tr8):
    series = SimpleNamespace(t=0.1 * np.arange(3), alpha=np.zeros((3, 3)))
    params = {"g": mode_row(8, 2, 0), "v": mode_row(8, 2, 1),
              "p": np.array([0.0, 0.0, 1.0])}
    for tag in ("f2_plus", "f2_minus", "f3_plus", "f3_minus", "f4_plus",
                "f4_minus", "f5"):
        with pytest.raises(ParameterError, match="u-independent"):
            check_killing_identity(series, make_catalog_forcing(tag, params, kb))
    for tag in ("zero", "constant_field", "constant_killing"):
        rep = check_killing_identity(series, make_catalog_forcing(tag, params, kb))
        assert np.isfinite(astuple(rep)).all()


def test_killing_identity_reads_f_k_of_a_constant_field(sphere8, kb, tr8, rotation_field):
    # g has a degree-1 part, so f_K from its coefficients must match the
    # nodal Killing coordinates of its synthesis
    g = geo.TangentialField(sphere8, toroidal_basis_field(tr8, 3, 1).comps
                            + 0.7 * rotation_field(sphere8, 2).comps
                            - 0.4 * rotation_field(sphere8, 0).comps)
    fk = killing_coefficients(kb, g)
    a0 = np.array([0.2, -0.1, 0.3])
    ts = np.array([0.0, 0.5, 1.0])
    series = SimpleNamespace(t=ts, alpha=a0 + ts[:, None] * fk)
    spec = make_catalog_forcing("constant_field", {"g": tr8.analyze(g).coeffs}, kb)
    rep = check_killing_identity(series, spec)
    assert np.linalg.norm(fk) > 0.5
    assert np.abs(fk_of(spec) - fk).max() <= 1e-12
    assert rep.affine_law_dev <= 1e-12
    assert rep.linear_law_dev <= 1e-12 and rep.quadratic_law_dev <= 1e-12


def test_monotonicity_f3(sphere8, form1, kb):
    u0 = SpectralState(8)
    u0.coeffs[:3] = [0.8, 0.0, 0.6]
    for tag, direction, factor in (("f3_minus", "nonincreasing", np.exp(-1)),
                                   ("f3_plus", "nondecreasing", np.e)):
        spec = make_catalog_forcing(tag, {}, kb)
        cfg = StepperConfig(dt=5e-4, t_end=1.0, stride=50)
        _, records = run(cfg, sphere8, form1, spec, u0)
        rep = check_monotonicity(records, direction)
        assert rep.ok
        assert abs(records[-1].norm_uK - factor * records[0].norm_uK) <= 1e-6


def test_monotonicity_unforced_constant(sphere8, form1, spec0, tr8):
    u0 = random_band_limited(tr8, 61, norm_killing=0.5, norm_nonkilling=0.3)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=100)
    _, records = run(cfg, sphere8, form1, spec0, u0)
    assert check_monotonicity(records, "nonincreasing").ok
    assert check_monotonicity(records, "nondecreasing").ok


def test_dependence_identical_data_guard(tr8):
    s = random_band_limited(tr8, 71)
    with pytest.raises(ParameterError):
        continuous_dependence_ratio(([s.coeffs], []), ([s.coeffs.copy()], []), 1.0)


def test_dependence_sample_count_guard(tr8):
    # trajectories sampled a different number of times share no sample times
    a, b = random_band_limited(tr8, 71).coeffs, random_band_limited(tr8, 72).coeffs
    with pytest.raises(ParameterError, match="share their sample times"):
        continuous_dependence_ratio(([a, a], []), ([b], []), 1.0)


def test_dependence_linear_contraction(sphere8, form1, spec0, tr8):
    # tiny amplitudes: the dynamics are linear and purely contractive
    u0 = random_band_limited(tr8, 81, norm_killing=0.0, norm_nonkilling=1e-6)
    pert = random_band_limited(tr8, 82, norm_killing=0.0)
    pert.coeffs /= np.linalg.norm(pert.coeffs)
    ub = SpectralState(8, u0.coeffs + 1e-8 * pert.coeffs)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=20)
    ta = run(cfg, sphere8, form1, spec0, u0)
    tb = run(cfg, sphere8, form1, spec0, ub)
    assert continuous_dependence_ratio(ta, tb, 1.0) <= 1.0 + 1e-6


def test_dependence_gap_stability(sphere8, form1, kb, tr8):
    spec = make_catalog_forcing("f3_plus", {}, kb)
    u0 = random_band_limited(tr8, 91, l_max=5, norm_killing=0.5,
                             norm_nonkilling=0.8)
    pert = random_band_limited(tr8, 92, l_max=5)
    pert.coeffs /= np.linalg.norm(pert.coeffs)
    cfg = StepperConfig(dt=5e-4, t_end=1.0, stride=20)
    base = run(cfg, sphere8, form1, spec, u0)
    ratios = []
    for gap in (1e-2, 1e-3, 1e-4):
        ub = SpectralState(8, u0.coeffs + gap * pert.coeffs)
        traj = run(cfg, sphere8, form1, spec, ub)
        ratios.append(continuous_dependence_ratio(base, traj, 1.0))
    assert max(ratios) / min(ratios) <= 2.0


def test_lambda_series_killing_difference(sphere8, form1, spec0):
    # Killing-only difference: Lambda = 0 and L constant
    rows = np.zeros((11, 80))
    rows[:, 1] = 0.3
    ts = np.linspace(0, 1, 11)
    lam_max, _ = lambda_series(ts, rows, form1)
    assert lam_max <= 1e-12
    assert abs(log_norm_slope(ts, rows)) <= 1e-12


def test_lambda_series_eigenmode(sphere8, form1, spec0):
    d0 = SpectralState(8)
    d0.set(2, 0, 1e-4)
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, stride=20)
    rows, records = run(cfg, sphere8, form1, spec0, d0)
    lam_max, affine_residual = lambda_series(records.t, rows, form1)
    lam2 = form1.lam_by_degree[2]
    assert abs(lam_max - lam2) <= 1e-8
    assert np.abs(records.lam - lam2).max() <= 1e-8
    assert affine_residual <= 1e-8
    assert log_norm_slope(records.t, rows) == pytest.approx(lam2, rel=1e-6)


def test_lambda_series_truncates_at_vanishing(sphere8, form1):
    # the series stops before the first sample with ||u|| < 1e-13: the
    # degree-8 row after the vanished one is never read
    rows = np.zeros((5, 80))
    rows[:2, 4] = (1.0, 0.5)
    rows[2, 4] = 1e-14
    rows[3, -1] = 1.0
    lam_max, affine_residual = lambda_series(np.arange(5.0), rows, form1)
    assert lam_max == pytest.approx(form1.lam_by_degree[2], rel=1e-12)
    assert affine_residual <= 1e-12
    assert lam_max < form1.lam_by_degree[8] / 2
    # fewer than two samples before it: nothing to report
    assert np.isnan(lambda_series(np.arange(5.0), rows[1:], form1)).all()
    assert np.isnan(lambda_series(np.arange(5.0), np.zeros((5, 80)), form1)).all()
