"""Time integration: orders of accuracy, exact sub-dynamics, stability
guards, ledger closure, and divergence handling."""

import numpy as np
import pytest

from surfns import geometry as geo
from surfns.diagnostics import record
from surfns.errors import DivergenceError, GridMismatchError, ParameterError
from surfns.forcing import make_catalog_forcing
from surfns.harmonics import SpectralState, mode_index, n_modes, random_band_limited
from surfns.killing import killing_basis
from surfns.operators import assemble_stokes
from surfns.harness import (build_context, build_initial_state, member_seed,
                            records_to_csv, stepper_config)
from surfns.scenarios import get_scenario
from surfns.timestepper import (SimState, StepperConfig, run, run_batch,
                                step_imex, step_rk4)


@pytest.fixture(scope="module")
def kb(sphere8):
    return killing_basis(sphere8)


@pytest.fixture(scope="module")
def form1(sphere8):
    return assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)


@pytest.fixture(scope="module")
def formv(sphere8):
    nu = geo.ViscosityField(sphere8, 1.0 + 0.5 * sphere8.nodes[:, 2])
    return assemble_stokes(sphere8, nu, 8)


@pytest.fixture(scope="module")
def spec0(kb):
    return make_catalog_forcing("zero", {}, kb)


def _decay_error(sphere8, form1, spec0, scheme, dt):
    c0 = SpectralState(8)
    c0.set(2, 0, 1.0)
    cfg = StepperConfig(scheme=scheme, dt=dt, t_end=0.5, stride=10 ** 9)
    samples, _ = run(cfg, sphere8, form1, spec0, c0)
    lam2 = form1.lam_by_degree[2]
    return abs(samples[-1][mode_index(8, 2, 0)] - np.exp(-lam2 * 0.5))


def test_imex_second_order(sphere8, form1, spec0):
    e1 = _decay_error(sphere8, form1, spec0, "imex_cnab2", 2e-3)
    e2 = _decay_error(sphere8, form1, spec0, "imex_cnab2", 1e-3)
    ratio = e1 / e2
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


def test_rk4_fourth_order(sphere8, form1, spec0):
    e1 = _decay_error(sphere8, form1, spec0, "rk4", 2e-2)
    e2 = _decay_error(sphere8, form1, spec0, "rk4", 1e-2)
    ratio = e1 / e2
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_killing_state_is_equilibrium(sphere8, form1, spec0):
    c0 = SpectralState(8)
    c0.coeffs[:3] = [0.4, -0.7, 0.1]
    sim = SimState([c0], dt=1e-2)
    for _ in range(50):
        sim = step_imex(sim, form1, spec0, 1e-2)
        assert np.abs(sim.c[0] - c0.coeffs).max() <= 1e-12


def test_reality_preserved_many_steps(sphere8, form1, spec0, tr8, complex_view):
    # real coefficient storage makes the reality condition structural; a
    # long run must stay finite and exactly real-representable
    sim = SimState([random_band_limited(tr8, 3, norm_nonkilling=0.5)], dt=1e-3)
    for _ in range(10_000):
        sim = step_imex(sim, form1, spec0, 1e-3)
    assert np.all(np.isfinite(sim.c[0]))
    cv = complex_view(8, sim.c[0])
    for l, row in cv.items():
        for m in range(l + 1):
            assert abs(row[l - m] - (-1) ** m * np.conj(row[l + m])) <= 1e-12


def test_rk4_exponential_oracles(sphere8, form1, kb):
    # the Killing block under f3+- obeys d alpha/dt = +- alpha exactly
    c0 = SpectralState(8)
    c0.coeffs[0] = 1.0
    for tag, target in (("f3_plus", np.e), ("f3_minus", 1.0 / np.e)):
        spec = make_catalog_forcing(tag, {}, kb)
        cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, stride=10 ** 9)
        samples, _ = run(cfg, sphere8, form1, spec, c0)
        assert abs(samples[-1][0] - target) <= 1e-9


def test_cross_scheme_agreement(sphere8, formv, kb, tr8):
    spec = make_catalog_forcing("f2_minus",
                                {"v": tr8.toroidal_basis_field(2, 1)}, kb)
    u0 = random_band_limited(tr8, 19, l_max=4, norm_killing=0.3,
                             norm_nonkilling=0.6)
    out = {}
    for scheme in ("imex_cnab2", "rk4"):
        cfg = StepperConfig(scheme=scheme, dt=2e-4, t_end=1.0, stride=10 ** 9)
        samples, _ = run(cfg, sphere8, formv, spec, u0)
        out[scheme] = samples[-1]
    assert np.abs(out["imex_cnab2"] - out["rk4"]).max() <= 1e-6


def _single_degree_energy_error(L, R, degrees, seed):
    """Largest |E(t_n)/E(0) - G_n| of an unforced constant-nu IMEX run from a
    random state on ``degrees`` (all orders), with G_n the scheme's exact
    amplification of one degree l = degrees[0]: a Heun bootstrap step, then
    Crank-Nicolson on nu lambda_l.  Also returns the largest Killing norm."""
    grid = geo.build_sphere_grid(L, R)
    nu, dt, n_steps = 0.7, 2e-3, 100
    form = assemble_stokes(grid, geo.ViscosityField(grid, nu), L)
    spec = make_catalog_forcing("zero", {}, killing_basis(grid))
    rng = np.random.default_rng(seed)
    c = np.where(np.isin(form.transform.mode_l, degrees), rng.standard_normal(n_modes(L)), 0.0)
    cfg = StepperConfig(dt=dt, t_end=n_steps * dt, stride=1)
    _, rec = run(cfg, grid, form, spec, SpectralState(L, c / np.linalg.norm(c)))
    l = degrees[0]
    x = nu * (l * (l + 1) - 2) / R ** 2 * dt
    h = 0.5 * x
    n = np.arange(n_steps + 1)
    gain = np.where(n > 0, (1 - x + 0.5 * x * x) * ((1 - h) / (1 + h)) ** np.maximum(n - 1, 0), 1.0)
    return np.abs(rec.energy / rec.energy[0] - gain ** 2).max(), rec.norm_uK.max()


@pytest.mark.parametrize("L, R, l", [(8, 1.0, 3), (8, 1.3, 5), (16, 1.0, 7)])
def test_single_degree_decay_is_exact(L, R, l):
    # closed-form nonlinear oracle: a state on one degree is a steady state
    # of the Euler part, so with the convective term on it decays exactly as
    # the scheme's linear amplification of nu lambda_l
    err, killing = _single_degree_energy_error(L, R, [l], seed=l)
    assert err <= 1e-12
    assert killing <= 1e-15


def test_two_degree_decay_is_not_single_degree():
    # degrees 3 and 4 interact: the same check fails
    err, _ = _single_degree_energy_error(8, 1.0, [3, 4], seed=3)
    assert err > 1e-6


def test_rk4_stability_bound_checked(sphere8, form1, spec0):
    sim = SimState([SpectralState(8)], dt=1.0)
    with pytest.raises(ParameterError):
        step_rk4(sim, form1, spec0, 1.0)   # lam_max * dt = 70 >> 2.7


def test_imex_explicit_bound_checked(sphere8, spec0, kb):
    # large viscosity contrast makes the explicit remainder stiff
    nu = geo.ViscosityField(sphere8, 1.0 + 0.999 * sphere8.nodes[:, 2])
    form = assemble_stokes(sphere8, nu, 8)
    sim = SimState([SpectralState(8)], dt=1.0)
    with pytest.raises(ParameterError):
        step_imex(sim, form, spec0, 1.0)


def test_imex_bound_still_checked_after_a_cached_dt(sphere8, formv, spec0, tr8):
    # the step constants of a valid dt are cached on the form; a later
    # over-bound dt is checked afresh
    rho = formv.rho_explicit()
    sim = SimState([random_band_limited(tr8, 53)], dt=0.5 / rho)
    step_imex(step_imex(sim, formv, spec0, 0.5 / rho), formv, spec0, 0.5 / rho)
    for dt in (1.5 / rho, 0.0, -1e-3):
        with pytest.raises(ParameterError):
            step_imex(sim, formv, spec0, dt)


def test_alternating_dts_match_fresh_forms(sphere8, kb, tr8):
    # one form stepped at two alternating dts is bit-equal to a fresh form at each
    def make_form():
        nu = geo.ViscosityField(sphere8, 1.0 + 0.5 * sphere8.nodes[:, 2])
        return assemble_stokes(sphere8, nu, 8)

    spec = make_catalog_forcing("f3_minus", {}, kb)
    u0 = random_band_limited(tr8, 59, norm_killing=0.4, norm_nonkilling=0.8)
    dts = (1e-3, 7e-4)
    shared, fresh = make_form(), [make_form() for _ in dts]
    alt = [SimState([u0], dt=dt) for dt in dts]
    ref = [SimState([u0], dt=dt) for dt in dts]
    for _ in range(5):
        for i, dt in enumerate(dts):
            alt[i] = step_imex(alt[i], shared, spec, dt)
            ref[i] = step_imex(ref[i], fresh[i], spec, dt)
    for a, b in zip(alt, ref):
        assert a.t == b.t
        for name in ("c", "diss_integral", "work_integral"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_ab2_step_rejects_a_changed_dt(sphere8, form1, spec0, tr8):
    # the Adams-Bashforth weights assume the step that produced the stored
    # parts had the same dt
    sim = step_imex(SimState([random_band_limited(tr8, 61)], dt=1e-3), form1, spec0, 1e-3)
    with pytest.raises(ParameterError, match="differs from the previous step"):
        step_imex(sim, form1, spec0, 2e-3)
    assert step_imex(sim, form1, spec0, 1e-3).t == pytest.approx(2e-3)
    # an RK4 step stores no parts, so the next IMEX step bootstraps at any dt
    sim = step_rk4(sim, form1, spec0, 1e-3)
    assert sim._prev is None
    assert step_imex(sim, form1, spec0, 2e-3).t == pytest.approx(4e-3)


def test_affine_killing_law(sphere8, form1, kb):
    spec = make_catalog_forcing("constant_killing", {"c": 2.0, "axis": 1}, kb)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=100)
    samples, records = run(cfg, sphere8, form1, spec, SpectralState(8))
    for c, r in zip(samples, records):
        alpha = kb.alpha(c)
        assert abs(alpha[1] - 2.0 * r.t) <= 1e-8
        assert abs(alpha[0]) <= 1e-10 and abs(alpha[2]) <= 1e-10


def test_unforced_nonkilling_strictly_decreasing(sphere8, form1, spec0, tr8):
    u0 = random_band_limited(tr8, 23, norm_killing=0.3, norm_nonkilling=1.0)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=20)
    _, records = run(cfg, sphere8, form1, spec0, u0)
    nk = [r.norm_uNK for r in records]
    assert all(b < a for a, b in zip(nk, nk[1:]))


def test_imex_linear_decay_near_stability_bound(sphere8, formv, spec0, tr8):
    # linear regime (tiny amplitude): the PSD split keeps ||u|| nonincreasing
    # for any dt passing the explicit-remainder check
    rho = formv.rho_explicit()
    for dt in (0.5 / rho, 0.9 / rho):
        u0 = random_band_limited(tr8, 29, norm_killing=0.0,
                                 norm_nonkilling=1e-8)
        sim = SimState([u0], dt=dt)
        prev = np.linalg.norm(sim.c[0])
        for _ in range(200):
            sim = step_imex(sim, formv, spec0, dt)
            cur = np.linalg.norm(sim.c[0])
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


def test_divergence_error_carries_last_state(sphere8, form1, kb, tr8):
    with np.errstate(over="ignore"):
        spec = make_catalog_forcing(
            "constant_field", {"g": geo.TangentialField(
                sphere8, 1e300 * tr8.toroidal_basis_field(2, 0).comps)}, kb)
        u0 = random_band_limited(tr8, 31, norm_nonkilling=1.0)
        cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=10)
        with pytest.raises(DivergenceError) as err:
            run(cfg, sphere8, form1, spec, u0)
    assert err.value.last_state is not None
    assert np.all(np.isfinite(err.value.last_state.c[0]))
    assert err.value.partial is not None


def test_run_requires_commensurate_times(sphere8, form1, spec0):
    cfg = StepperConfig(dt=3e-4, t_end=1.0, stride=10)
    with pytest.raises(ParameterError):
        run(cfg, sphere8, form1, spec0, SpectralState(8))


def test_ledger_closes_on_linear_run(sphere8, formv, spec0, tr8):
    u0 = random_band_limited(tr8, 37, norm_killing=0.2, norm_nonkilling=1e-6)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=50)
    _, records = run(cfg, sphere8, formv, spec0, u0)
    # nonlinear defect scales cubically with amplitude; what remains is
    # float accumulation over the 1000 steps
    assert max(abs(r.energy_residual) for r in records) <= 1e-14


def test_ledger_integrals_monotone_when_integrands_nonnegative(
        sphere8, formv, spec0, tr8):
    u0 = random_band_limited(tr8, 41, norm_killing=0.3, norm_nonkilling=0.8)
    sim = SimState([u0], dt=1e-3)
    prev_diss = 0.0
    for _ in range(300):
        sim = step_imex(sim, formv, spec0, 1e-3)
        assert sim.diss_integral >= prev_diss - 1e-15
        assert sim.work_integral == 0.0
        prev_diss = sim.diss_integral


def test_higher_resolution_run_is_stable(kb):
    # short L=24 run: dealiased contracts and the ledger hold at higher
    # resolution too
    g = geo.build_sphere_grid(24, 1.0)
    from surfns.harmonics import get_transform
    tr = get_transform(g, 24)
    basis = killing_basis(g)
    nu = geo.ViscosityField(g, 1.0 + 0.4 * g.nodes[:, 2])
    form = assemble_stokes(g, nu, 24)
    from surfns.forcing import make_catalog_forcing as mk
    spec = mk("f3_minus", {}, basis)
    u0 = random_band_limited(tr, 77, norm_killing=0.5, norm_nonkilling=1.0)
    cfg = StepperConfig(dt=5e-4, t_end=0.1, stride=20)
    _, records = run(cfg, g, form, spec, u0)
    assert max(abs(r.energy_residual) for r in records) <= 1e-6
    assert records[-1].norm_uNK < records[0].norm_uNK


def test_run_rejects_a_foreign_grid(sphere8, form1, spec0):
    other = geo.build_sphere_grid(8, 1.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, stride=10)
    with pytest.raises(GridMismatchError):
        run(cfg, other, form1, spec0, SpectralState(8))
    with pytest.raises(GridMismatchError):
        run_batch(cfg, other, form1, spec0, [SpectralState(8)] * 2)
    with pytest.raises(GridMismatchError):
        run_batch(cfg, sphere8, form1, make_catalog_forcing(
            "zero", {}, killing_basis(other)), [SpectralState(8)])


def test_run_rejects_a_mismatched_truncation(sphere8, form1, spec0):
    form6 = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 6)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, stride=10)
    with pytest.raises(ParameterError):
        run(cfg, sphere8, form6, spec0, SpectralState(8))
    with pytest.raises(ParameterError):
        run_batch(cfg, sphere8, form1, spec0, [SpectralState(8), SpectralState(6)])


def test_run_batch_rejects_states_at_different_times(sphere8, form1, spec0):
    cfg = StepperConfig(dt=1e-3, t_end=0.01, stride=10)
    with pytest.raises(ParameterError, match="share their time"):
        run_batch(cfg, sphere8, form1, spec0, [SpectralState(8), SpectralState(8, t=5.0)])


def test_record_fn_is_called_once_per_sample(sphere8, formv, kb, tr8):
    # a pass-through like the benchmark's timing wrapper
    calls = []

    def passthrough(*args):
        calls.append(args[2].c.shape[0])
        return record(*args)

    spec = make_catalog_forcing("f2_minus", {"v": tr8.toroidal_basis_field(2, 1)}, kb)
    states = [random_band_limited(tr8, 60 + i, norm_killing=0.3) for i in range(3)]
    cfg = StepperConfig(dt=1e-3, t_end=0.1, stride=20)
    samples, recs = run(cfg, sphere8, formv, spec, states[0], record_fn=passthrough)
    assert calls == [1] * len(samples) and len(samples) == 6
    assert records_to_csv(recs, 3) == records_to_csv(
        run(cfg, sphere8, formv, spec, states[0])[1], 3)

    calls.clear()
    trajectories, _ = run_batch(cfg, sphere8, formv, spec, states, record_fn=passthrough)
    assert calls == [3] * 6
    for (_, recs), (_, ref) in zip(trajectories, run_batch(cfg, sphere8, formv, spec,
                                                           states)[0]):
        assert records_to_csv(recs, 3) == records_to_csv(ref, 3)


def _assert_matches_solo(trajectory, solo):
    (samples, records), (ref, ref_records) = trajectory, solo
    assert len(samples) == len(ref)
    for a, b, ra, rb in zip(samples, ref, records, ref_records):
        assert ra.t == rb.t
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_batch_rows_match_solo_runs():
    # the free_decay_ensemble members integrated as one stack, both schemes
    cfg = dict(get_scenario("free_decay_ensemble").config)
    cfg["run.t_end"] = 0.5
    ctx = build_context(cfg)
    states = [build_initial_state(cfg, ctx.grid, seed=member_seed(cfg["seed"], k))
              for k in range(cfg["ensemble.members"])]
    for scheme in ("imex_cnab2", "rk4"):
        cfg["run.scheme"] = scheme
        scfg = stepper_config(cfg)
        trajectories, diverged = run_batch(scfg, ctx.grid, ctx.form, ctx.fspec,
                                           states)
        assert not diverged
        for u0, trajectory in zip(states, trajectories):
            _assert_matches_solo(trajectory, run(scfg, ctx.grid, ctx.form, ctx.fspec, u0))


def test_overflowing_row_is_frozen_while_others_continue(sphere8, form1, spec0, tr8):
    good = random_band_limited(tr8, 43, norm_nonkilling=1.0)
    bad = SpectralState(8, 1e30 * random_band_limited(tr8, 47).coeffs)
    cfg = StepperConfig(dt=1e-3, t_end=0.2, stride=20)
    with np.errstate(all="ignore"):
        trajectories, diverged = run_batch(cfg, sphere8, form1, spec0, [good, bad])
    assert list(diverged) == [1]
    err = diverged[1]
    assert isinstance(err, DivergenceError)
    assert np.all(np.isfinite(err.last_state.c[0]))
    assert err.partial is trajectories[1]
    _assert_matches_solo(trajectories[0], run(cfg, sphere8, form1, spec0, good))
