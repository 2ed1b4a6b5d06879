"""Time integration: orders of accuracy, exact sub-dynamics, stability
guards, ledger closure, and divergence handling."""

import tracemalloc

import numpy as np
import pytest

from conftest import dense_stokes_form, mode_row
from surfns import geometry as geo
from surfns.diagnostics import record, rossby_haurwitz_block
from surfns.errors import DivergenceError, GridMismatchError, ParameterError
from surfns.forcing import apply_forcing, make_catalog_forcing
from surfns.harmonics import (SpectralState, SphereTransform, mode_index, n_modes,
                              random_band_limited)
from surfns.killing import killing_basis
from surfns.operators import StokesForm, _order_pair_blocks, assemble_stokes, convective_term
from surfns.harness import (build_context, build_initial_state, member_seed,
                            records_to_csv, stepper_config)
from surfns.scenarios import get_scenario, list_scenarios
from surfns.timestepper import (SimState, StepperConfig, _Workspace, run, run_batch,
                                step_imex, step_rk4)
from test_operators import _a_prime


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


def test_imex_second_order(sphere8, form1, formv, spec0, kb, tr8):
    e1 = _decay_error(sphere8, form1, spec0, "imex_cnab2", 2e-3)
    e2 = _decay_error(sphere8, form1, spec0, "imex_cnab2", 1e-3)
    ratio = e1 / e2
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15
    # linear_x3 nu (a = 0.5), forced and nonlinear: self-convergence against
    # a run at dt = 2.5e-4
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    u0 = random_band_limited(tr8, 19, norm_killing=0.3, norm_nonkilling=1.0)

    def end(dt):
        cfg = StepperConfig(dt=dt, t_end=0.5, stride=10 ** 9)
        return run(cfg, sphere8, formv, spec, u0)[0][-1]

    ref = end(2.5e-4)
    e = [np.linalg.norm(end(dt) - ref) for dt in (4e-3, 2e-3, 1e-3)]
    for ratio in (e[0] / e[1], e[1] / e[2]):
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
                                {"v": mode_row(8, 2, 1)}, kb)
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
    amplification of one degree l = degrees[0], Crank-Nicolson on nu lambda_l
    at every step.  Also returns the largest Killing norm."""
    grid = geo.build_sphere_grid(L, R)
    nu, dt, n_steps = 0.7, 2e-3, 100
    form = assemble_stokes(grid, geo.ViscosityField(grid, nu), L)
    spec = make_catalog_forcing("zero", {}, killing_basis(grid))
    rng = np.random.default_rng(seed)
    c = np.where(np.isin(form.transform.mode_l, degrees), rng.standard_normal(n_modes(L)), 0.0)
    cfg = StepperConfig(dt=dt, t_end=n_steps * dt, stride=1)
    _, rec = run(cfg, grid, form, spec, SpectralState(L, c / np.linalg.norm(c)))
    l = degrees[0]
    h = 0.5 * nu * (l * (l + 1) - 2) / R ** 2 * dt
    gain = ((1 - h) / (1 + h)) ** np.arange(n_steps + 1)
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


def rossby_haurwitz_error(L=8, R=1.0, omega=2.0, l=3, T=0.5):
    """Relative error of an unforced nu = 1 RK4 run (dt = 1e-3) at T against
    its closed form: a rigid rotation about e3 at rate omega, (1, 0)
    coefficient -omega sqrt(8 pi / 3) R^2, carries seed-3 random data on the
    one degree l.  The rotation stays, and the degree-l block follows
    ``rossby_haurwitz_block``."""
    grid = geo.build_sphere_grid(L, R)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0), L)
    spec = make_catalog_forcing("zero", {}, killing_basis(grid))
    c = np.zeros(n_modes(L))
    c[mode_index(L, 1, 0)] = -omega * np.sqrt(8.0 * np.pi / 3.0) * R ** 2
    block = slice(l * l - 1, (l + 1) ** 2 - 1)
    c[block] = np.random.default_rng(3).standard_normal(2 * l + 1)
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=T, stride=10 ** 9)
    samples, _ = run(cfg, grid, form, spec, SpectralState(L, c))
    want = c.copy()
    want[block] = rossby_haurwitz_block(c[block], omega, form.lam_by_degree[l], [T])[0]
    return np.linalg.norm(samples[-1] - want) / np.linalg.norm(want[block])


def test_rigid_rotation_carries_one_degree_at_the_rossby_haurwitz_speed():
    # the one exact nonlinear effect of a Killing part (ROADMAP item 16): it
    # turns the non-Killing pattern, which N = 0 or N -> -N gets wrong by O(1)
    assert rossby_haurwitz_error() <= 1e-9


def forced_fixed_point_error(l, m, R, scheme, dt, L=8, omega=2.0, T=5.0):
    """Relative error at T of the non-Killing part of a nu = 1 run against
    its closed-form fixed point x_inf: the rotation of ``rossby_haurwitz_error``
    is forced by the constant field of the one toroidal mode (l, m) and starts
    from zero non-Killing data.  On each degree-d (m', cos/sin) pair x_inf solves
    (lambda_d I - m' c_d omega J) x = f, J = [[0, -1], [1, 0]] (on (d, 0),
    x = f / lambda_d): the pair's transport, decay and forcing balance.  x_inf
    comes from this closed form alone, so no convective term moves it."""
    grid = geo.build_sphere_grid(L, R)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0), L)
    spec = make_catalog_forcing("constant_field", {"g": mode_row(L, l, m)}, killing_basis(grid))
    c = np.zeros(n_modes(L))
    c[mode_index(L, 1, 0)] = -omega * np.sqrt(8.0 * np.pi / 3.0) * R ** 2
    cfg = StepperConfig(scheme=scheme, dt=dt, t_end=T, stride=10 ** 9)
    samples, _ = run(cfg, grid, form, spec, SpectralState(L, c))
    want = np.zeros(n_modes(L))
    for d in range(2, L + 1):
        block = slice(d * d - 1, (d + 1) ** 2 - 1)
        f, x, lam = spec.f[block], want[block], form.lam_by_degree[d]
        k = np.arange(1, d + 1) * (1.0 - 2.0 / (d * (d + 1))) * omega
        x[0] = f[0] / lam
        x[1::2] = (lam * f[1::2] - k * f[2::2]) / (lam ** 2 + k ** 2)
        x[2::2] = (lam * f[2::2] + k * f[1::2]) / (lam ** 2 + k ** 2)
    return np.linalg.norm(samples[-1][3:] - want[3:]) / np.linalg.norm(want[3:])


@pytest.mark.parametrize("l,m,R", [(3, 2, 1.0), (5, 4, 1.3)])
@pytest.mark.parametrize("scheme,dt", [("imex_cnab2", 1e-2), ("imex_cnab2", 5e-3),
                                       ("rk4", 1e-2)])
def test_forced_rotation_settles_on_the_closed_form_fixed_point(l, m, R, scheme, dt):
    # ROADMAP item 16's forced fixed point: the forced pattern turns at the
    # Rossby-Haurwitz speed against its decay, at every dt and scheme
    assert forced_fixed_point_error(l, m, R, scheme, dt) <= 1e-12


def test_rk4_stability_bound_checked(sphere8, form1, spec0):
    sim = SimState([SpectralState(8)], dt=1.0)
    with pytest.raises(ParameterError):
        step_rk4(sim, form1, spec0, 1.0)   # lam_max * dt = 70 >> 2.7


def test_imex_bound_still_checked_after_a_cached_dt(sphere8, formv, spec0, tr8):
    # steps at a valid dt first; a later non-positive dt is checked afresh
    sim = SimState([random_band_limited(tr8, 53)], dt=1e-3)
    step_imex(step_imex(sim, formv, spec0, 1e-3), formv, spec0, 1e-3)
    for dt in (0.0, -1e-3):
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
    assert not sim.ab2
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
    # linear regime (tiny amplitude): Crank-Nicolson on all of A keeps ||u||
    # nonincreasing far past the bound 1 / rho(A') of an explicit remainder
    # A' = A - nu_min D, which the step no longer has
    rho = np.linalg.eigvalsh(_a_prime(formv)).max()
    for dt in (10.0 / rho, 100.0 / rho):
        u0 = random_band_limited(tr8, 29, norm_killing=0.0,
                                 norm_nonkilling=1e-8)
        sim = SimState([u0], dt=dt)
        prev = np.linalg.norm(sim.c[0])
        for _ in range(200):
            sim = step_imex(sim, formv, spec0, dt)
            cur = np.linalg.norm(sim.c[0])
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


def test_imex_damps_stiff_modes_from_the_first_step():
    # dt rho(A) = 13.5: an explicit first step on A would amplify degree 16
    # by |1 - x + x^2 / 2| with x = dt lambda_16 = 13.5, about 78 per step
    grid = geo.build_sphere_grid(16, 1.0)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0), 16)
    spec = make_catalog_forcing("zero", {}, killing_basis(grid))
    rng = np.random.default_rng(16)
    c = np.where(form.transform.mode_l == 16, rng.standard_normal(n_modes(16)), 0.0)
    sim = SimState([SpectralState(16, c)], dt=0.05)
    energies = [sim.energy()[0]]
    for _ in range(5):
        sim = step_imex(sim, form, spec, 0.05)
        energies.append(sim.energy()[0])
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_imex_runs_far_past_the_old_remainder_bound():
    # L = 32, nu = 1 + 0.9 x3: dt = 5e-3 is 8x the bound 1 / rho(A') = 6.3e-4
    # that an explicit A' = A - nu_min D would impose
    grid = geo.build_sphere_grid(32, 1.0)
    form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0 + 0.9 * grid.nodes[:, 2]), 32)
    spec = make_catalog_forcing("zero", {}, killing_basis(grid))
    u0 = random_band_limited(form.transform, 5, norm_killing=0.3, norm_nonkilling=1.0)
    samples, records = run(StepperConfig(dt=5e-3, t_end=1.0, stride=10), grid, form, spec, u0)
    assert np.all(np.isfinite(samples))
    assert np.all(np.diff(records.norm_uNK) < 0.0)
    assert np.abs(samples[:, :3] - samples[0, :3]).max() <= 1e-14


def test_divergence_error_carries_last_state(sphere8, form1, kb, tr8):
    with np.errstate(over="ignore"):
        spec = make_catalog_forcing("constant_field", {"g": 1e300 * mode_row(8, 2, 0)}, kb)
        u0 = random_band_limited(tr8, 31, norm_nonkilling=1.0)
        cfg = StepperConfig(dt=1e-3, t_end=1.0, stride=10)
        with pytest.raises(DivergenceError) as err:
            run(cfg, sphere8, form1, spec, u0)
    assert err.value.last_state is not None
    assert np.all(np.isfinite(err.value.last_state.c[0]))
    assert err.value.partial is not None
    _assert_failure_fields(err.value, cfg.dt)


def _assert_failure_fields(err, dt):
    """The error's step, t, dt, max|c| and ledger residual describe the
    failing step after its one-row ``last_state``."""
    last = err.last_state
    assert err.step == last.step + 1 and err.t == last.t + dt and err.dt == dt
    assert err.max_abs_c == np.abs(last.c).max() and np.isfinite(err.max_abs_c)
    np.testing.assert_equal(err.ledger_residual, last.ledger_residual()[0])


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
    basis = killing_basis(g)
    nu = geo.ViscosityField(g, 1.0 + 0.4 * g.nodes[:, 2])
    form = assemble_stokes(g, nu, 24)
    from surfns.forcing import make_catalog_forcing as mk
    spec = mk("f3_minus", {}, basis)
    u0 = random_band_limited(form.transform, 77, norm_killing=0.5, norm_nonkilling=1.0)
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

    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
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


@pytest.mark.parametrize("scheme", ["imex_cnab2", "rk4"])
def test_a_run_builds_the_blocked_plan_once(scheme, monkeypatch, sphere8, formv, kb, tr8):
    # record evaluates A c by the workspace's plan: one plan per workspace on
    # a linear_x3 form, none per sample
    real, heights = StokesForm.plan, []

    def counted(self, k):
        heights.append(k)
        return real(self, k)
    monkeypatch.setattr(StokesForm, "plan", counted)
    spec = make_catalog_forcing("f3_minus", {}, kb)
    states = [random_band_limited(tr8, 130 + i) for i in range(3)]
    cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=0.01, stride=2)
    (samples, _), *_ = run_batch(cfg, sphere8, formv, spec, states)[0]
    assert len(samples) == 6 and heights == [3]


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
    states = [build_initial_state(cfg, ctx.form, seed=member_seed(cfg["seed"], k))
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
    _assert_failure_fields(err, cfg.dt)
    assert err.step < 200 and err.t == pytest.approx(err.step * cfg.dt)
    _assert_matches_solo(trajectories[0], run(cfg, sphere8, form1, spec0, good))


def _blocked_form(grid, nu, L):
    """The constant-nu form with its assembled per-order blocks, which
    ``assemble_stokes`` skips because they are nu diag(D) to rounding."""
    form = assemble_stokes(grid, geo.ViscosityField(grid, nu), L)
    blocks, gather = _order_pair_blocks(form.transform, 2.0 * grid.weights * nu)
    return StokesForm(grid, form.transform, form.nu, L, form.lam_by_degree, blocks, gather)


def test_diagonal_form_tracks_the_blocked_form(sphere8, kb, tr8):
    # 500 nonlinear forced steps: the diagonal solve against the per-order
    # block solve of blocks equal to nu diag(D) to rounding
    nu = 0.7
    diagonal = assemble_stokes(sphere8, geo.ViscosityField(sphere8, nu), 8)
    blocked = _blocked_form(sphere8, nu, 8)
    assert diagonal.blocks is None and blocked.blocks is not None
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    states = [random_band_limited(tr8, 70 + i, norm_killing=0.5, norm_nonkilling=1.0)
              for i in range(8)]
    for stepper, k in ((step_imex, 1), (step_imex, 8), (step_rk4, 1), (step_rk4, 8)):
        a, b = SimState(states[:k], dt=1e-3), SimState(states[:k], dt=1e-3)
        for _ in range(500):
            a, b = stepper(a, diagonal, spec, 1e-3), stepper(b, blocked, spec, 1e-3)
        rel = np.linalg.norm(a.c - b.c, axis=1) / np.linalg.norm(b.c, axis=1)
        assert np.all(rel <= 1e-13), (stepper.__name__, k)
        for name in ("diss_integral", "work_integral"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.all(np.abs(x - y) <= 1e-13 * np.abs(y)), (stepper.__name__, k, name)
        assert np.abs(a.ledger_residual() - b.ledger_residual()).max() <= 1e-13


def test_scenario_forms_by_path():
    # the traffic the diagonal form serves: every constant-nu scenario that
    # integrates builds a block-less form; varnu_energy_balance has order-pair blocks
    diagonal = []
    for name, _ in list_scenarios():
        sc = get_scenario(name)
        if sc.kind == "static":
            continue
        form = build_context(dict(sc.config)).form
        if sc.config["nu.kind"] == "constant":
            assert form.blocks is None, name
            diagonal.append(name)
        else:
            assert name == "varnu_energy_balance"
            L = sc.config["geometry.L"]
            assert form.blocks.shape == (L + 2, L, L)
    assert len(diagonal) == 15


_BAD_EDGES = {
    "dt_inf": lambda grid, form, spec: StepperConfig(dt=np.inf),
    "dt_nan": lambda grid, form, spec: StepperConfig(dt=np.nan),
    "t_end_nan": lambda grid, form, spec: StepperConfig(t_end=np.nan),
    "t_end_inf": lambda grid, form, spec: StepperConfig(t_end=np.inf),
    "stride_2.5": lambda grid, form, spec: StepperConfig(stride=2.5),
    "no_states": lambda grid, form, spec: run_batch(StepperConfig(), grid, form, spec, []),
    "imex_dt_nan": lambda grid, form, spec: step_imex(SimState([SpectralState(8)]), form, spec,
                                                      np.nan),
    "imex_dt_inf": lambda grid, form, spec: step_imex(SimState([SpectralState(8)]), form, spec,
                                                      np.inf),
    "rk4_dt_nan": lambda grid, form, spec: step_rk4(SimState([SpectralState(8)]), form, spec,
                                                    np.nan),
}


@pytest.mark.parametrize("case", sorted(_BAD_EDGES))
def test_stepper_edge_rejects_with_a_parameter_error(case, sphere8, form1, spec0):
    # each of these used to run 0 steps, return a NaN state, or end in an
    # untyped ValueError, an OverflowError, a TypeError or an IndexError
    with pytest.raises(ParameterError):
        _BAD_EDGES[case](sphere8, form1, spec0)


class _Frozen:
    """A stack state of the frozen step formulas below: c in slot ``slot`` of
    the two-slot (c, F, N) history ``hist``, and ``ab2``, as on a SimState."""

    def __init__(self, hist, slot, ab2, t, step, work, diss, energy0):
        self.hist, self.slot, self.ab2, self.t, self.step = hist, slot, ab2, t, step
        self.c = hist[4 + slot]
        self.work_integral, self.diss_integral, self.energy0 = work, diss, energy0

    def ledger_residual(self):
        energy = 0.5 * np.einsum("kn,kn->k", self.c, self.c)
        return energy - self.energy0 + self.diss_integral - self.work_integral

    def take(self, rows):
        return _Frozen(self.hist[:, rows], self.slot, self.ab2, self.t, self.step,
                       self.work_integral[rows], self.diss_integral[rows], self.energy0[rows])

    def after(self, hist, ab2, dt, work, diss):
        """The state one step of dt later, its c in the other slot of ``hist``."""
        return _Frozen(hist, 1 - self.slot, ab2, self.t + dt, self.step + 1,
                       self.work_integral + work, self.diss_integral + diss, self.energy0)


def _frozen_terms(form, spec, c):
    """(F(c), N(c))"""
    out = np.empty((2,) + c.shape)
    out[0], out[1] = apply_forcing(spec, c), convective_term(form.transform, c)
    return out


def _frozen_imex(s, form, spec, dt):
    """The IMEX-CNAB2 step with every intermediate a fresh array: the rows of
    its stages applied to the history (F, N of slot 0, F, N of slot 1, c of
    slot 0, c of slot 1), a slot 1 state's slots swapped, then the solve for
    (2 m, dt A m / 2)."""
    a, cur, other = 0.5 * dt, s.slot, 1 - s.slot
    hist = s.hist.copy()
    hist[2 * cur:2 * cur + 2] = _frozen_terms(form, spec, s.c)

    def stage(rows):
        rows = np.array(rows)[:, [2, 3, 0, 1, 5, 4] if cur else slice(None)]
        y, g = (rows @ hist.reshape(6, -1)).reshape((2,) + s.c.shape)
        return form.cn_solve(y, dt), g

    if not s.ab2:
        (two_m, _), _ = stage([[a, -a, 0.0, 0.0, 1.0, 0.0], [a, 0.0, 0.0, 0.0, 0.0, 0.0]])
        hist[4 + other] = two_m - s.c
        hist[2 * other:2 * other + 2] = _frozen_terms(form, spec, hist[4 + other])
        rows = [[a / 2, -a / 2, a / 2, -a / 2, 1.0, 0.0], [a / 2, 0.0, a / 2, 0.0, 0.0, 0.0]]
    else:
        rows = [[1.5 * a, -1.5 * a, -a / 2, a / 2, 1.0, 0.0], [1.5 * a, 0.0, -a / 2, 0.0, 0.0, 0.0]]
    (two_m, a_am), g = stage(rows)
    hist[4 + other] = two_m - s.c
    diss, work = np.vecdot(np.stack([a_am, g]), two_m)
    return s.after(hist, True, dt, work, diss)


def _cnab2_oracle(s, form, spec, dt):
    """The IMEX-CNAB2 step as written before it had stage rows, a tolerance
    oracle: the terms combined first, then y = c + dt (F - N) / 2, the solve
    for m and A m, and the ledger from dt (A m, m) and dt (F, m)."""
    cur, other = s.slot, 1 - s.slot
    hist = s.hist.copy()
    fn = hist[2 * cur:2 * cur + 2] = _frozen_terms(form, spec, s.c)

    def cn_update(fn_bar):
        y = fn_bar[0] - fn_bar[1]
        y *= 0.5 * dt
        y += s.c
        two_m, a_am = form.cn_solve(y, dt)
        m = 0.5 * two_m
        return 2.0 * m - s.c, m, a_am / (0.5 * dt)

    if not s.ab2:
        fn_bar = fn + _frozen_terms(form, spec, cn_update(fn)[0])
        fn_bar *= 0.5
    else:
        fn_bar = 1.5 * fn
        fn_bar -= 0.5 * hist[2 * other:2 * other + 2]
    hist[4 + other], m, am = cn_update(fn_bar)
    diss, work = dt * np.einsum("jkn,kn->jk", np.stack([am, fn_bar[0]]), m)
    return s.after(hist, True, dt, work, diss)


def _frozen_rk4(s, form, spec, dt):
    """The RK4 step as written before the integration loop had a workspace."""
    def rhs_and_rates(cv):
        ac, (ff, nn) = form.apply(cv), _frozen_terms(form, spec, cv)
        return -ac - nn + ff, np.einsum("kn,kn->k", cv, ac), np.einsum("kn,kn->k", ff, cv)

    c = s.c
    k1, d1, w1 = rhs_and_rates(c)
    k2, d2, w2 = rhs_and_rates(c + 0.5 * dt * k1)
    k3, d3, w3 = rhs_and_rates(c + 0.5 * dt * k2)
    k4, d4, w4 = rhs_and_rates(c + dt * k3)
    hist = s.hist.copy()
    hist[5 - s.slot] = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    diss = dt / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
    work = dt / 6.0 * (w1 + 2 * w2 + 2 * w3 + w4)
    return s.after(hist, False, dt, work, diss)


def _frozen_run(cfg, form, spec, states, step=None):
    """``run_batch``'s loop on the frozen steps (or on ``step``): per row, its
    samples, records and (work, dissipation) integrals at each sample, and for
    each row that went non-finite its error's (step, t, max_abs_c,
    ledger_residual) and last finite coefficients."""
    hist = np.zeros((6, len(states), states[0].coeffs.size))
    hist[4] = [s.coeffs for s in states]
    c = hist[4]
    zero = np.zeros(len(states))
    s = _Frozen(hist, 0, False, states[0].t, 0, zero, zero, 0.5 * np.einsum("kn,kn->k", c, c))
    if step is None:
        step = _frozen_imex if cfg.scheme == "imex_cnab2" else _frozen_rk4
    n_steps = int(round(cfg.t_end / cfg.dt))
    live = list(range(len(states)))
    out = {i: ([], [], []) for i in live}
    failed = {}

    def sample():
        recs = record(form, spec, s)
        for j, i in enumerate(live):
            out[i][0].append(s.c[j].copy())
            out[i][1].append(recs[j])
            out[i][2].append((s.work_integral[j], s.diss_integral[j]))

    sample()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            new = step(s, form, spec, cfg.dt)
            bad = ~np.isfinite(new.c).all(axis=1)
            for j in np.flatnonzero(bad):
                last = s.take([j])
                failed[live[j]] = ((new.step, new.t, float(np.abs(last.c).max()),
                                    float(last.ledger_residual()[0])), last.c[0])
            if bad.any():
                live = [i for i, b in zip(live, bad) if not b]
                new = new.take(~bad)
                if not live:
                    break
            s = new
            if (n + 1) % cfg.stride == 0 or n + 1 == n_steps:
                sample()
    return out, failed


def _ledger_capture(store):
    """A ``record_fn`` that also keeps each row's (work, dissipation) integrals."""
    def capture(form, spec, sim, ws):
        store.append(np.stack([sim.work_integral, sim.diss_integral], 1).copy())
        return record(form, spec, sim, ws)
    return capture


def _assert_matches_frozen(cfg, grid, form, spec, states):
    """run_batch equals the frozen loop bit for bit: samples, every record
    field, both ledgers, and the failing rows' error fields and last state."""
    ledgers = []
    trajectories, diverged = run_batch(cfg, grid, form, spec, states, _ledger_capture(ledgers))
    ref, failed = _frozen_run(cfg, form, spec, states)
    assert sorted(diverged) == sorted(failed)
    for n, ledger in enumerate(ledgers):
        sampled = [i for i in range(len(states)) if len(ref[i][2]) > n]
        assert ledger.tobytes() == np.array([ref[i][2][n] for i in sampled]).tobytes(), n
    for i, (samples, recs) in enumerate(trajectories):
        ref_samples, ref_recs, _ = ref[i]
        assert samples.tobytes() == np.array(ref_samples).tobytes(), i
        assert len(recs) == len(ref_recs)
        for name in recs.dtype.names:
            assert recs[name].tobytes() == np.array([r[name] for r in ref_recs]).tobytes(), name
    for i, err in diverged.items():
        fields, last_c = failed[i]
        assert (err.step, err.t, err.max_abs_c, err.ledger_residual) == fields
        assert err.last_state.c[0].tobytes() == last_c.tobytes()
    return trajectories, diverged


def _dense_form(grid, L):
    """The test oracle's one-block form of a viscosity that varies along
    latitude rows, which ``assemble_stokes`` refuses."""
    form = dense_stokes_form(grid, geo.ViscosityField(grid, 1.0 + 0.3 * grid.nodes[:, 0]), L)
    assert form.blocks.shape[0] == 1
    return form


@pytest.mark.parametrize("scheme", ["imex_cnab2", "rk4"])
def test_run_batch_matches_the_frozen_step_formulas(scheme, sphere8, form1, formv, kb, tr8):
    # the diagonal, order-pair and dense storages at k = 1, 3 and 8, from the
    # first (predictor-corrector) step on, forced and nonlinear
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    states = [random_band_limited(tr8, 90 + i, norm_killing=0.4, norm_nonkilling=1.0)
              for i in range(8)]
    cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=0.03, stride=7)
    for form in (form1, formv, _dense_form(sphere8, 8)):
        for k in (1, 3, 8):
            _, diverged = _assert_matches_frozen(cfg, sphere8, form, spec, states[:k])
            assert not diverged


def test_diverging_rows_freeze_as_with_the_frozen_steps(sphere8, form1, spec0, tr8):
    # two rows overflow at different steps, so the stack shrinks 3 -> 2 -> 1
    good = random_band_limited(tr8, 43, norm_nonkilling=1.0)
    rows = [SpectralState(8, a * random_band_limited(tr8, 47).coeffs) for a in (1e20, 1e4)]
    for scheme in ("imex_cnab2", "rk4"):
        cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=0.05, stride=4)
        _, diverged = _assert_matches_frozen(cfg, sphere8, form1, spec0, [rows[0], good, rows[1]])
        assert sorted(diverged) == [0, 2] and 1 < diverged[0].step < diverged[2].step


def test_run_batch_matches_the_cnab2_formula_it_replaced(sphere8, form1, formv, kb, tr8):
    # the stage rows round differently from combining the terms first; every
    # step from the first, on the diagonal, order-pair and dense storages
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    states = [random_band_limited(tr8, 90 + i, norm_killing=0.4, norm_nonkilling=1.0)
              for i in range(8)]
    cfg = StepperConfig(dt=1e-3, t_end=0.03, stride=1)
    for form in (form1, formv, _dense_form(sphere8, 8)):
        for k in (1, 3, 8):
            ledgers = []
            trajectories, diverged = run_batch(cfg, sphere8, form, spec, states[:k],
                                               _ledger_capture(ledgers))
            ref, failed = _frozen_run(cfg, form, spec, states[:k], _cnab2_oracle)
            assert not diverged and not failed
            for (samples, _), (want, _, ledger) in zip(trajectories, ref.values()):
                want = np.array(want)
                assert np.abs(samples - want).max() <= 1e-13 * np.abs(want).max()
            want = np.array([[ref[i][2][n] for i in range(k)] for n in range(len(ledgers))])
            assert np.abs(np.array(ledgers) - want).max() <= 1e-13


@pytest.mark.parametrize("k", [1, 8])
def test_kept_workspace_steps_allocate_nothing(k, sphere16):
    # 200 IMEX and 200 RK4 steps in one workspace, on the diagonal, the
    # order-pair and the dense form: no step allocates a stack, a gathered
    # block stack, a block product or a broadcast buffer.  At L = 16 one row
    # (2.3 kB) outweighs the bookkeeping of numpy's calls (about 1.2 kB at
    # once for IMEX, 2.1 kB for RK4), which at L = 8 (0.6 kB a row) it does not
    tr, kb = SphereTransform(sphere16, 16), killing_basis(sphere16)
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(tr.L, 2, 1)}, kb)
    nu = geo.ViscosityField(sphere16, 1.0 + 0.5 * sphere16.nodes[:, 2])
    for form in (assemble_stokes(sphere16, geo.ViscosityField(sphere16, 1.0), 16),
                 assemble_stokes(sphere16, nu, 16), _dense_form(sphere16, 16)):
        for stepper in (step_imex, step_rk4):
            sim = SimState([random_band_limited(tr, 120 + i) for i in range(k)], dt=1e-3)
            ws = _Workspace(form, sim)
            for _ in range(2):      # the first step and one Adams-Bashforth step fill the caches
                sim = stepper(sim, form, spec, 1e-3, ws)
            tracemalloc.start()
            try:
                for _ in range(200):
                    sim = stepper(sim, form, spec, 1e-3, ws)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - current < sim.c.nbytes, stepper.__name__


def _held_bytes(obj):
    """Bytes of the arrays in an object's attributes, directly or in a dict, tuple or list."""
    def walk(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        if isinstance(v, (dict, tuple, list)):
            return sum(walk(x) for x in (v.values() if isinstance(v, dict) else v))
        return 0
    return walk(vars(obj))


@pytest.mark.parametrize("nu", [1.0, "linear_x3"])
def test_runs_leave_the_problem_data_as_they_found_it(nu, sphere8, kb, tr8):
    # the run's workspace owns every array sized by the stack height or by dt:
    # after batches of 50 to 200 rows, a batch whose rows diverge one at a time
    # and runs at two dts, the transform's engine, the form and the forcing
    # hold the attributes and array bytes they held before the first run
    if nu == "linear_x3":
        nu = 1.0 + 0.5 * sphere8.nodes[:, 2]
    form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, nu), 8)
    spec = make_catalog_forcing("f3_minus", {}, kb)
    held = [(obj, set(vars(obj)), _held_bytes(obj)) for obj in (tr8.engine, form, spec)]
    states = [random_band_limited(tr8, i) for i in range(200)]
    for k in (50, 100, 150, 200):
        run_batch(StepperConfig(dt=1e-3, t_end=2e-3, stride=2), sphere8, form, spec, states[:k])
    u = random_band_limited(tr8, 5, norm_nonkilling=1.0).coeffs
    rows = [SpectralState(8, 10.0 ** e * u) for e in (150, 60, 35, 15, 8, 5, 0)]
    with np.errstate(all="ignore"):
        _, diverged = run_batch(StepperConfig(dt=1e-3, t_end=0.02, stride=5),
                                sphere8, form, spec, rows)
    assert sorted(e.step for e in diverged.values()) == [1, 2, 3, 4, 5, 7]
    for dt in (1e-3, 5e-4):
        run_batch(StepperConfig(dt=dt, t_end=2e-3, stride=2), sphere8, form, spec, states[:3])
    for obj, names, nbytes in held:
        assert (set(vars(obj)), _held_bytes(obj)) == (names, nbytes), type(obj).__name__


def _snapshot(trajectories, diverged):
    """Copies of everything a run returned."""
    errs = {i: (e.last_state.c.copy(), e.last_state.diss_integral.copy(),
                e.last_state.work_integral.copy(), e.partial[0].copy(), e.partial[1].copy())
            for i, e in diverged.items()}
    return [(s.copy(), r.copy()) for s, r in trajectories], errs


def _assert_same(a, b):
    for x, y in zip(a[0], b[0]):
        assert x[0].tobytes() == y[0].tobytes() and x[1].tobytes() == y[1].tobytes()
    assert sorted(a[1]) == sorted(b[1])
    for i in a[1]:
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a[1][i], b[1][i]))


def test_results_never_alias_the_workspace(sphere8, form1, spec0, tr8):
    good = [random_band_limited(tr8, 80 + i, norm_nonkilling=1.0) for i in range(3)]
    bad = SpectralState(8, 1e30 * random_band_limited(tr8, 47).coeffs)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, stride=5)
    with np.errstate(all="ignore"):
        out = run_batch(cfg, sphere8, form1, spec0, good[:1] + [bad] + good[1:])
        before = _snapshot(*out)
        run_batch(cfg, sphere8, form1, spec0, good[::-1] + [bad])
    _assert_same(_snapshot(*out), before)
    # the last state is the state before the failing step
    err = out[1][1]
    assert err.last_state.step == err.step - 1 and err.last_state.t + cfg.dt == err.t


@pytest.mark.parametrize("stepper", [step_imex, step_rk4])
def test_a_public_step_leaves_its_input_untouched(stepper, sphere8, formv, kb, tr8):
    spec = make_catalog_forcing("f3_minus", {}, kb)
    sim = SimState([random_band_limited(tr8, 64 + i) for i in range(3)], dt=1e-3)
    for _ in range(3):          # the first step, then Adams-Bashforth steps
        before = [np.copy(a) for a in (sim.c, sim.work_integral, sim.diss_integral)]
        hist, ab2 = sim.hist.copy(), sim.ab2
        new = stepper(sim, formv, spec, 1e-3)
        assert new is not sim and not np.shares_memory(new.hist, sim.hist)
        for a, b in zip((sim.c, sim.work_integral, sim.diss_integral), before):
            assert a.tobytes() == b.tobytes()
        assert sim.ab2 == ab2 and sim.hist.tobytes() == hist.tobytes()
        sim = step_imex(sim, formv, spec, 1e-3) if stepper is step_rk4 else new


def test_interleaved_runs_on_one_form_equal_fresh_runs(sphere8, formv, kb, tr8):
    # a record_fn that runs a k = 3 and another k = 1 batch at every sample of
    # a k = 1 run, on one form
    spec = make_catalog_forcing("f2_minus", {"v": mode_row(8, 2, 1)}, kb)
    states = [random_band_limited(tr8, 100 + i, norm_killing=0.3) for i in range(5)]
    cfg = StepperConfig(dt=1e-3, t_end=0.02, stride=5)
    inner = []

    def interleave(form, spec, sim, ws):
        inner.append([_snapshot(*run_batch(cfg, sphere8, formv, spec, rows))
                      for rows in (states[1:4], states[4:])])
        return record(form, spec, sim, ws)

    outer = _snapshot(*run_batch(cfg, sphere8, formv, spec, states[:1], interleave))
    _assert_same(outer, _snapshot(*run_batch(cfg, sphere8, formv, spec, states[:1])))
    fresh = [_snapshot(*run_batch(cfg, sphere8, formv, spec, rows))
             for rows in (states[1:4], states[4:])]
    assert len(inner) == 5
    for snaps in inner:
        for snap, ref in zip(snaps, fresh):
            _assert_same(snap, ref)


@pytest.mark.parametrize("scheme, rhs_per_step", [("imex_cnab2", 1), ("rk4", 4)])
def test_step_and_rhs_calls_are_visible_at_module_bindings(scheme, rhs_per_step, monkeypatch,
                                                           sphere8, formv, kb, tr8):
    # the benchmark's tracer wraps these bindings: one step call per step, and
    # every N and F evaluation inside one, one per step (+ the first IMEX
    # step's corrector) or four per RK4 step
    from surfns import timestepper
    calls, depth = {}, [0]

    def wrap(name, is_step):
        fn = getattr(timestepper, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            calls[name + ".inside"] = calls.get(name + ".inside", 0) + (depth[0] > 0)
            depth[0] += is_step
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= is_step
        monkeypatch.setattr(timestepper, name, counted)

    for name in ("step_imex", "step_rk4", "convective_term", "apply_forcing"):
        wrap(name, name.startswith("step"))
    spec = make_catalog_forcing("f3_minus", {}, kb)
    states = [random_band_limited(tr8, 110 + i) for i in range(3)]
    n_steps = 12
    timestepper.run_batch(StepperConfig(scheme=scheme, dt=1e-3, t_end=n_steps * 1e-3, stride=5),
                          sphere8, formv, spec, states)
    rhs = rhs_per_step * n_steps + (scheme == "imex_cnab2")
    step = "step_imex" if scheme == "imex_cnab2" else "step_rk4"
    assert calls == {step: n_steps, step + ".inside": 0,
                     "convective_term": rhs, "convective_term.inside": rhs,
                     "apply_forcing": rhs, "apply_forcing.inside": rhs}
