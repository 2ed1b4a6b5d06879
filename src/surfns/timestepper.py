"""Time integration of the spectral system dc/dt = -A c - N(c) + F(c).

The default scheme is IMEX-CNAB2: Crank-Nicolson on the constant-coefficient
part nu_min * D (a diagonal solve per mode, so the Killing block never
receives diffusive damping), second-order Adams-Bashforth on the remainder
A' c + N(c) - F(c).  The first step is bootstrapped with one explicit RK2
substep.  Splitting at the minimum viscosity keeps the explicit matrix
positive semidefinite, so the linear dynamics are dissipative step by step.

The energy ledger accumulates the dissipation and work integrals with the
exact per-step energy identity of the scheme: the Crank-Nicolson term is
evaluated at the midpoint state and the explicit terms at their
Adams-Bashforth combinations.  Linear runs therefore balance to rounding;
the only residual on nonlinear runs is the convective defect, which is
O(dt^3) per step.  A classical RK4 path is kept for cross-validation, with
the ledger integrated through the same stages.

The IMEX stability check and Crank-Nicolson factors are made once per
(form, dt); each step fills one (3, k, n) buffer and updates in place in
the plain formulas' operation order.  Unequal Adams-Bashforth steps raise.

Both schemes advance a stack of k independent trajectories, coefficients
(k, n_modes), through one code path for every k: each operator acts on the
whole stack and each row keeps its own energy ledger.  Ensembles, pairs and
gap families therefore integrate as one batch; coefficient rows and
diagnostics (one batched ``record`` call per sample) are taken only at
sample points, into one array and one record array per trajectory.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import record
from .errors import DivergenceError, GridMismatchError, ParameterError
from .forcing import apply_forcing
from .operators import convective_term


@dataclass
class StepperConfig:
    scheme: str = "imex_cnab2"          # or "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    stride: int = 10

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ParameterError("dt and t_end must be positive")
        if self.scheme not in ("imex_cnab2", "rk4"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.stride < 1:
            raise ParameterError("stride must be >= 1")


class SimState:
    """A stack of k trajectories at one time: coefficients ``c`` of shape
    (k, n_modes), step metadata, and each row's running energy ledger.

    ``states`` is a sequence of SpectralStates sharing L and t; their
    coefficients are copied.
    """

    def __init__(self, states, dt=0.0):
        self.L = states[0].L
        self.t = states[0].t
        self.c = np.array([s.coeffs for s in states])
        self.dt = dt
        self.step = 0
        self.work_integral = np.zeros(len(states))
        self.diss_integral = np.zeros(len(states))
        self.energy0 = self.energy()
        self._prev = None           # (A'c, N(c), F(c)) at the previous step, stacked (3, k, n)

    def energy(self):
        return 0.5 * _rowdot(self.c, self.c)

    def ledger_residual(self):
        """E(t) - E(0) + int D - int W per row, the discrete balance defect."""
        return self.energy() - self.energy0 + self.diss_integral - self.work_integral

    def _with(self, c, t, dt, step, work_integral, diss_integral, energy0, prev):
        """A stack of the same L with the given fields."""
        out = SimState.__new__(SimState)
        out.L, out.t, out.c, out.dt, out.step = self.L, t, c, dt, step
        out.work_integral, out.diss_integral = work_integral, diss_integral
        out.energy0, out._prev = energy0, prev
        return out

    def take(self, rows):
        """The sub-stack of ``rows`` (an index list or a boolean mask)."""
        return self._with(self.c[rows], self.t, self.dt, self.step,
                          self.work_integral[rows], self.diss_integral[rows],
                          self.energy0[rows], None if self._prev is None else self._prev[:, rows])

    def _advance(self, c, dt, work, diss, prev):
        """The stack one step of size dt later, with the step's ledger terms."""
        return self._with(c, self.t + dt, dt, self.step + 1, self.work_integral + work,
                          self.diss_integral + diss, self.energy0, prev)


def _rowdot(a, b):
    """Row-wise inner products of two (k, n) stacks."""
    return np.einsum("kn,kn->k", a, b)


def _parts(form, spec, c):
    """(A c, N(c), F(c)) for every row of a coefficient stack, stacked (3, k, n)."""
    out = np.empty((3,) + c.shape)
    out[0], out[1] = form.apply(c), convective_term(form.transform, c)
    out[2] = apply_forcing(spec, c)
    return out


def _check_dt(dt, rho, bound, scheme):
    """Raise unless dt > 0 and dt rho <= bound, the scheme's stability bound."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if dt * rho > bound + 1e-9:
        raise ParameterError(f"dt = {dt:g} exceeds the {scheme} stability bound "
                             f"{bound / max(rho, 1e-300):g}")


def _cn_factors(form, dt):
    """Crank-Nicolson factors (1 - h, 1 + h), h = dt nu_min D / 2, cached per checked dt."""
    if dt not in form.step_cache:
        _check_dt(dt, form.rho_explicit(), 1.0, "explicit-remainder")
        half = 0.5 * dt * form.nu_min * form.D
        form.step_cache[dt] = (1.0 - half, 1.0 + half)
    return form.step_cache[dt]


def step_imex(sim, form, spec, dt):
    """One IMEX-CNAB2 step of every row; bootstraps with a single RK2 substep.

    Rows that overflow come back non-finite; ``run_batch`` freezes them.
    """
    cn_minus, cn_plus = _cn_factors(form, dt)
    if sim._prev is not None and dt != sim.dt:
        raise ParameterError(f"dt = {dt:g} differs from the previous step's {sim.dt:g}")
    c = sim.c

    if sim._prev is None:
        p0 = _parts(form, spec, c)
        k1 = -p0[0] - p0[1] + p0[2]
        p1 = _parts(form, spec, c + dt * k1)
        k2 = -p1[0] - p1[1] + p1[2]
        c_new = c + 0.5 * dt * (k1 + k2)
        mid = 0.5 * (c + c_new)
        # dissipation and work: the trapezoid A c and F(c) against the midpoint
        diss, work = 0.5 * dt * np.einsum("jkn,kn->jk", p0[::2] + p1[::2], mid)
        p0[0] -= form.nu_min * (form.D * c)          # A' c
        prev = p0
    else:
        parts = _parts(form, spec, c)
        parts[0] -= form.nu_min * (form.D * c)       # A' c
        ab = 1.5 * parts                             # Adams-Bashforth combinations
        ab -= 0.5 * sim._prev
        c_new = -ab[0]
        c_new -= ab[1]
        c_new += ab[2]
        c_new *= dt
        c_new += cn_minus * c                        # Crank-Nicolson
        c_new /= cn_plus
        mid = 0.5 * (c + c_new)
        ab[0] += form.nu_min * (form.D * mid)        # with the Crank-Nicolson term
        diss, work = dt * np.einsum("jkn,kn->jk", ab[::2], mid)
        prev = parts
    return sim._advance(c_new, dt, work, diss, prev)


def step_rk4(sim, form, spec, dt):
    """Classical explicit RK4 step of every row on the full right-hand side."""
    _check_dt(dt, form.rho_full(), 2.7, "RK4")

    def rhs_and_rates(cv):
        ac, nn, ff = _parts(form, spec, cv)
        return -ac - nn + ff, _rowdot(cv, ac), _rowdot(ff, cv)

    c = sim.c
    k1, d1, w1 = rhs_and_rates(c)
    k2, d2, w2 = rhs_and_rates(c + 0.5 * dt * k1)
    k3, d3, w3 = rhs_and_rates(c + 0.5 * dt * k2)
    k4, d4, w4 = rhs_and_rates(c + dt * k3)
    c_new = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    diss = dt / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
    work = dt / 6.0 * (w1 + 2 * w2 + 2 * w3 + w4)
    return sim._advance(c_new, dt, work, diss, None)


def run_batch(config, grid, form, spec, states, record_fn=None):
    """Integrate the initial ``states`` to t_end as one coefficient stack,
    sampling every ``stride`` steps.

    ``grid`` must be the grid of the form and of the forcing's Killing basis,
    and the states must share the form's truncation L and one time t.
    Returns (trajectories, diverged): a (samples, records) pair per row, and
    a dict from row index to the DivergenceError of each row that went
    non-finite.  ``samples`` is an (n_samples, n_modes) array of coefficient
    rows and ``records`` an (n_samples,) record array with the sample times
    in ``records.t``.  A diverging row is frozen at its last finite state,
    which rides on the error as a one-row ``last_state`` with the pair so
    far as ``partial``; the other rows continue.  ``record_fn`` (default:
    the diagnostics ``record``) is called as ``record_fn(form, spec, sim)``
    once per sample on the live rows and returns one record per row.
    """
    if not (grid is form.grid is spec.basis.grid):
        raise GridMismatchError("the form, the forcing and the run use different grids")
    if any(s.L != form.L for s in states):
        raise ParameterError(f"initial states must have the form's truncation L = {form.L}")
    if any(s.t != states[0].t for s in states):
        raise ParameterError("initial states must share their time t")
    rec = record_fn if record_fn is not None else record
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.t_end, 1.0):
        raise ParameterError("t_end must be an integer multiple of dt")
    stepper = step_imex if config.scheme == "imex_cnab2" else step_rk4

    sim = SimState(states, dt=config.dt)
    live = np.arange(sim.c.shape[0])          # original index of each row
    first = rec(form, spec, sim)
    n_samples = 1 + -(-n_steps // config.stride)
    samples = np.empty((live.size, n_samples, sim.c.shape[1]))
    records = np.recarray((live.size, n_samples), dtype=first.dtype)
    samples[:, 0], records[:, 0] = sim.c, first
    trajectories = list(zip(samples, records))
    diverged = {}
    taken = 1
    for n in range(n_steps):
        # an overflowing row is expected here and is caught just below
        with np.errstate(over="ignore", invalid="ignore"):
            new = stepper(sim, form, spec, config.dt)
        bad = ~np.isfinite(new.c).all(axis=1)
        if bad.any():
            for j in np.flatnonzero(bad):
                i = int(live[j])
                trajectories[i] = (samples[i, :taken], records[i, :taken])
                diverged[i] = DivergenceError(
                    f"non-finite coefficients at t = {new.t:.6g} "
                    f"(after step {sim.step})", last_state=sim.take([j]),
                    partial=trajectories[i])
            live, new = live[~bad], new.take(~bad)
            if live.size == 0:
                break
        sim = new
        if (n + 1) % config.stride == 0 or n + 1 == n_steps:
            samples[live, taken], records[live, taken] = sim.c, rec(form, spec, sim)
            taken += 1
    return trajectories, diverged


def run(config, grid, form, spec, u0, record_fn=None):
    """Integrate one trajectory from the SpectralState ``u0`` to t_end,
    sampling every ``stride`` steps (see ``run_batch``).

    Returns (samples, records): the coefficient rows and the diagnostics
    record array.  On divergence the partial arrays ride on the raised error.
    """
    (trajectory,), diverged = run_batch(config, grid, form, spec, [u0], record_fn)
    if diverged:
        raise diverged[0]
    return trajectory
