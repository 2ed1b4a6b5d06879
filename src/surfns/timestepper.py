"""Time integration of the spectral system dc/dt = -A c - N(c) + F(c).

The default scheme is IMEX-CNAB2: Crank-Nicolson on all of A, which is
positive semidefinite, and second-order Adams-Bashforth on F(c) - N(c)
(Ascher, Ruuth & Wetton 1995).  With g the explicit combination, a step
solves (I + dt A / 2) m = c + dt g / 2 for the midpoint m and sets
c+ = 2 m - c; the form caches its solve per dt.  The Killing modes, A's
kernel, receive no damping, every other eigenmode of A is damped for any
dt > 0, and only RK4 has a step bound.  The first step takes g as the mean
of its values at c and at the same update made with g(c) alone.  An
Adams-Bashforth step whose dt differs from the previous step's raises.

The energy ledger accumulates the step's exact energy identity: the
dissipation dt (A m, m), with A m from the assembled form, and the work
dt (F, m), F at its Adams-Bashforth combination.  Linear runs therefore
balance to rounding; the only residual on nonlinear runs is the convective
defect -dt (N, m), which is O(dt^3) per step.  A classical RK4 path is kept
for cross-validation, with the ledger integrated through the same stages.

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
        self._prev = None           # the previous step's (N(c), F(c)) rows

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


def _explicit_terms(form, spec, c):
    """(N(c), F(c)) for every row of a coefficient stack, stacked (2, k, n)."""
    out = np.empty((2,) + c.shape)
    out[0], out[1] = convective_term(form.transform, c), apply_forcing(spec, c)
    return out


def _check_dt(dt, rho, bound, scheme):
    """Raise unless dt > 0 and dt rho <= bound, the scheme's stability bound."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if dt * rho > bound + 1e-9:
        raise ParameterError(f"dt = {dt:g} exceeds the {scheme} stability bound "
                             f"{bound / max(rho, 1e-300):g}")


def _cn_update(form, c, nf, dt):
    """Crank-Nicolson on A with the explicit terms nf = (N, F) held fixed:
    (c+, m, A m) for the midpoint m = (c + c+) / 2, which solves
    (I + dt A / 2) m = c + dt (F - N) / 2."""
    y = nf[1] - nf[0]
    y *= 0.5 * dt
    y += c
    m, am = form.cn_solve(y, dt)
    return 2.0 * m - c, m, am


def step_imex(sim, form, spec, dt):
    """One IMEX-CNAB2 step of every row: Crank-Nicolson on A, with N and F
    by Adams-Bashforth, or on the first step by a predictor-corrector.

    Rows that overflow come back non-finite; ``run_batch`` freezes them.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if sim._prev is not None and dt != sim.dt:
        raise ParameterError(f"dt = {dt:g} differs from the previous step's {sim.dt:g}")
    c = sim.c
    nf = _explicit_terms(form, spec, c)
    if sim._prev is None:
        # predict with the terms at c, correct with their mean at c and the prediction
        nf_bar = nf + _explicit_terms(form, spec, _cn_update(form, c, nf, dt)[0])
        nf_bar *= 0.5
    else:
        nf_bar = 1.5 * nf
        nf_bar -= 0.5 * sim._prev
    c_new, m, am = _cn_update(form, c, nf_bar, dt)
    # dissipation dt (A m, m) and work dt (F, m) in one product, A m in N's row;
    # -dt (N, m) is the convective defect
    nf_bar[0] = am
    diss, work = dt * np.einsum("jkn,kn->jk", nf_bar, m)
    return sim._advance(c_new, dt, work, diss, nf)


def step_rk4(sim, form, spec, dt):
    """Classical explicit RK4 step of every row on the full right-hand side."""
    _check_dt(dt, form.rho_full(), 2.7, "RK4")

    def rhs_and_rates(cv):
        ac, (nn, ff) = form.apply(cv), _explicit_terms(form, spec, cv)
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
    far as ``partial``; the error also carries the failing step's number
    ``step``, its end time ``t`` and ``dt``, and the last finite state's
    ``max_abs_c`` and ``ledger_residual``.  The other rows continue.
    ``record_fn`` (default: the diagnostics ``record``) is called as
    ``record_fn(form, spec, sim)`` once per sample on the live rows and
    returns one record per row.  The loop, ``record_fn`` included, runs with
    numpy's overflow and invalid-value warnings off, since an overflowing
    row is expected and is caught after its step.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            new = stepper(sim, form, spec, config.dt)
            # a sum is finite only if every term is; scan rows only when it is not
            if not np.isfinite(new.c.sum()):
                bad = ~np.isfinite(new.c).all(axis=1)
                for j in np.flatnonzero(bad):
                    i = int(live[j])
                    trajectories[i] = (samples[i, :taken], records[i, :taken])
                    last = sim.take([j])
                    diverged[i] = DivergenceError(
                        f"non-finite coefficients at t = {new.t:.6g} "
                        f"(after step {sim.step})", last_state=last,
                        partial=trajectories[i], step=new.step, t=new.t, dt=config.dt,
                        max_abs_c=float(np.abs(last.c).max()),
                        ledger_residual=float(last.ledger_residual()[0]))
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
