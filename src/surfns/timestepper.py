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

Both schemes advance a stack of k independent trajectories, coefficients
(k, n_modes), through one code path for every k: each operator acts on the
whole stack and each row keeps its own energy ledger.  Ensembles, pairs and
gap families therefore integrate as one batch; spectral states and
diagnostics records are built only at sample points.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .diagnostics import record
from .errors import DivergenceError, ParameterError
from .forcing import apply_forcing
from .harmonics import SpectralState
from .operators import convective_term


def cfl_estimate(grid, u, factor=0.5):
    """Advective time-step estimate factor * dx_min / ||u||_inf.

    Offered as a sizing aid only; runs use a fixed dt by default so
    reported numbers are reproducible.  ``u`` is a nodal tangential field.
    """
    speed = float(np.abs(u.comps).max())
    if grid.kind == "sphere":
        dtheta = float(np.diff(grid.lat).min()) if grid.n_lat > 1 else np.pi
        sin_min = float(np.sin(grid.lat).min())
        dx = grid.R * min(abs(dtheta), sin_min * 2.0 * np.pi / grid.n_lon)
    else:
        dx = min(grid.r * 2.0 * np.pi / grid.n_lat,
                 (grid.R - grid.r) * 2.0 * np.pi / grid.n_lon)
    if speed == 0.0:
        return np.inf
    return factor * dx / speed


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

    ``state`` is a SpectralState (one row) or a sequence of them sharing L
    and t; the coefficients are copied.
    """

    def __init__(self, state, dt=0.0):
        states = [state] if isinstance(state, SpectralState) else list(state)
        self.L = states[0].L
        self.t = states[0].t
        self.c = np.array([s.coeffs for s in states])
        self.dt = dt
        self.step = 0
        self.work_integral = np.zeros(len(states))
        self.diss_integral = np.zeros(len(states))
        self.energy0 = self.energy()
        self._prev = None           # (A'c, N(c), F(c)) at the previous step

    @property
    def state(self):
        """The SpectralState of a one-row stack (a view of its coefficients)."""
        if self.c.shape[0] != 1:
            raise ParameterError("state is defined for one-row stacks only")
        return SpectralState(self.L, self.c[0], self.t)

    def energy(self):
        return 0.5 * _rowdot(self.c, self.c)

    def ledger_residual(self):
        """E(t) - E(0) + int D - int W per row, the discrete balance defect."""
        return self.energy() - self.energy0 + self.diss_integral - self.work_integral

    def take(self, rows):
        """The sub-stack of ``rows`` (an index list or a boolean mask)."""
        out = copy.copy(self)
        out.c = self.c[rows]
        out.work_integral = self.work_integral[rows]
        out.diss_integral = self.diss_integral[rows]
        out.energy0 = self.energy0[rows]
        if self._prev is not None:
            out._prev = tuple(p[rows] for p in self._prev)
        return out

    def _advance(self, c, dt, work, diss, prev):
        """The stack one step of size dt later, with the step's ledger terms."""
        out = copy.copy(self)
        vars(out).update(c=c, t=self.t + dt, dt=dt, step=self.step + 1, _prev=prev,
                         work_integral=self.work_integral + work,
                         diss_integral=self.diss_integral + diss)
        return out


def _rowdot(a, b):
    """Row-wise inner products of two (k, n) stacks."""
    return np.einsum("kn,kn->k", a, b)


def _parts(form, spec, c):
    """(A c, N(c), F(c)) for every row of a coefficient stack."""
    return (form.apply(c), convective_term(form.grid, c),
            apply_forcing(spec, form.grid, spec.basis, c))


def step_imex(sim, form, spec, dt):
    """One IMEX-CNAB2 step of every row; bootstraps with a single RK2 substep.

    Rows that overflow come back non-finite; ``run_batch`` freezes them.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    rho = form.rho_explicit()
    if dt * rho > 1.0 + 1e-9:
        raise ParameterError(
            f"dt = {dt:g} exceeds the explicit-remainder stability bound "
            f"{1.0 / max(rho, 1e-300):g}")
    c = sim.c
    half = 0.5 * dt * form.nu_min * form.D

    if sim._prev is None:
        ac0, nn0, ff0 = _parts(form, spec, c)
        k1 = -ac0 - nn0 + ff0
        cs = c + dt * k1
        ac1, nn1, ff1 = _parts(form, spec, cs)
        k2 = -ac1 - nn1 + ff1
        c_new = c + 0.5 * dt * (k1 + k2)
        mid = 0.5 * (c + c_new)
        diss = 0.5 * dt * _rowdot(ac0 + ac1, mid)
        work = 0.5 * dt * _rowdot(ff0 + ff1, mid)
        prev = (ac0 - form.nu_min * (form.D * c), nn0, ff0)
    else:
        ac_n, nn_n, ff_n = _parts(form, spec, c)
        ap_n = ac_n - form.nu_min * (form.D * c)      # A' c
        ap_p, nn_p, ff_p = sim._prev
        ap_ab = 1.5 * ap_n - 0.5 * ap_p
        ff_ab = 1.5 * ff_n - 0.5 * ff_p
        expl = -ap_ab - (1.5 * nn_n - 0.5 * nn_p) + ff_ab
        c_new = ((1.0 - half) * c + dt * expl) / (1.0 + half)
        mid = 0.5 * (c + c_new)
        diss = dt * (form.nu_min * _rowdot(form.D * mid, mid) + _rowdot(ap_ab, mid))
        work = dt * _rowdot(ff_ab, mid)
        prev = (ap_n, nn_n, ff_n)
    return sim._advance(c_new, dt, work, diss, prev)


def step_rk4(sim, form, spec, dt):
    """Classical explicit RK4 step of every row on the full right-hand side."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if dt * form.rho_full() > 2.7 + 1e-9:
        raise ParameterError(
            f"dt = {dt:g} violates the RK4 stability bound "
            f"{2.7 / max(form.rho_full(), 1e-300):g}")

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
    return sim._advance(c_new, dt, work, diss, sim._prev)


def run_batch(config, grid, form, spec, states, record_fn=None):
    """Integrate the initial ``states`` to t_end as one coefficient stack,
    sampling every ``stride`` steps.

    Returns (trajectories, diverged): a (samples, records) pair per row, and
    a dict from row index to the DivergenceError of each row that went
    non-finite.  Such a row is frozen at its last finite state, which rides
    on the error as ``last_state`` with its trajectory as ``partial``; the
    other rows continue.  ``record_fn`` defaults to the diagnostics module's
    ``record`` and is called with a one-row SimState.
    """
    rec = record_fn if record_fn is not None else record
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.t_end, 1.0):
        raise ParameterError("t_end must be an integer multiple of dt")
    stepper = step_imex if config.scheme == "imex_cnab2" else step_rk4

    sim = SimState(states, dt=config.dt)
    live = np.arange(sim.c.shape[0])          # original index of each row
    trajectories = [([], []) for _ in live]
    diverged = {}

    def sample():
        for j, i in enumerate(live):
            samples, records = trajectories[i]
            samples.append(SpectralState(sim.L, sim.c[j].copy(), sim.t))
            records.append(rec(grid, spec.basis, form, spec, sim.take([j])))

    sample()
    for n in range(n_steps):
        # an overflowing row is expected here and is caught just below
        with np.errstate(over="ignore", invalid="ignore"):
            new = stepper(sim, form, spec, config.dt)
        bad = ~np.isfinite(new.c).all(axis=1)
        if bad.any():
            for j in np.flatnonzero(bad):
                i = int(live[j])
                diverged[i] = DivergenceError(
                    f"non-finite coefficients at t = {new.t:.6g} "
                    f"(after step {sim.step})", last_state=sim.take([j]),
                    partial=trajectories[i])
            live, new = live[~bad], new.take(~bad)
            if live.size == 0:
                break
        sim = new
        if (n + 1) % config.stride == 0 or n + 1 == n_steps:
            sample()
    return trajectories, diverged


def run(config, grid, form, spec, u0, record_fn=None):
    """Integrate one trajectory to t_end, sampling every ``stride`` steps.

    Returns (samples, records): coefficient snapshots and diagnostics rows.
    On divergence the partial results ride on the raised error.
    """
    (trajectory,), diverged = run_batch(config, grid, form, spec, [u0], record_fn)
    if diverged:
        raise diverged[0]
    return trajectory
