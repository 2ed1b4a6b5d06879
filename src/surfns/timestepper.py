"""Time integration of the spectral system dc/dt = -A c - N(c) + F(c).

The default scheme is IMEX-CNAB2: Crank-Nicolson on all of A, which is
positive semidefinite, and second-order Adams-Bashforth (AB2) on
F(c) - N(c) (Ascher, Ruuth & Wetton 1995).  A step solves
(I + dt A / 2) m = y, y = c + a (F - N) with a = dt / 2 and F, N at their
explicit combinations, and sets c+ = 2 m - c.  The Killing modes, A's
kernel, receive no damping, every other eigenmode of A is damped for any
dt > 0, and only RK4 has a step bound.  An AB2 step whose dt differs from
the previous step's raises.

The scheme is linear multistep, so each stage is one product of (2, 6)
stage rows with a history of two slots of (c, F(c), N(c)), stored as the
rows (F0, N0, F1, N1, c0, c1), giving y and a F; the form's ``cn_solve``
turns y into (2 m, a A m).  For a step from slot 0 (slot 1 swaps the slots):

    predictor  y: (a, -a, 0, 0, 1, 0)           a F: (a, 0, 0, 0, 0, 0)
    corrector  y: (a/2, -a/2, a/2, -a/2, 1, 0)  a F: (a/2, 0, a/2, 0, 0, 0)
    AB2        y: (3a/2, -3a/2, -a/2, a/2, 1, 0) a F: (3a/2, 0, -a/2, 0, 0, 0)

c comes last, so y rounds once against it.  A slot's F and N rows are
evaluated once, when its c is written: the workspace evaluates the initial
stack's, and every step those of c+ at its end.  The first step predicts c+
from the terms at c, puts the prediction and its terms in the other slot and
corrects with the mean of both slots' terms; every later step is AB2 on the
previous step's slot, whose c then takes c+.

The energy ledger accumulates the step's exact energy identity: the
dissipation dt (A m, m), a A m = y - m by the solve's own identity, and the
work dt (F, m), one dot of (a A m, a F) with 2 m.  Linear runs therefore balance
to rounding; the only residual on nonlinear runs is the convective defect
-dt (N, m), which is O(dt^3) per step.  A classical RK4 path is kept for
cross-validation, with the ledger integrated through the same stages.

Both schemes advance a stack of k independent trajectories, coefficients
(k, n_modes), through one code path for every k: each operator acts on the
whole stack and each row keeps its own energy ledger.  Ensembles, pairs and
gap families therefore integrate as one batch; coefficient rows and
diagnostics (one batched ``record`` call per sample) are copied out only at
sample points, into one array and one record array per trajectory.
``run_batch`` owns one workspace per stack height: two states whose c sit in
the slots of one history, the initial stack's, taking turns as a step's input
and output, and every array a step writes or that is sized by the height or
by dt (engine scratch, plans, forcing rows and per-dt operators); the form,
its transform and the forcing keep none of it.  A step called without
``out`` makes a fresh workspace on a copy of its input, the only difference,
so it returns a new stack and leaves its input untouched.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import SCALAR_FIELDS, record
from .errors import DivergenceError, GridMismatchError, ParameterError
from .forcing import apply_forcing
from .operators import convective_plans, convective_term

# Largest batch (samples, and each row's state and workspace) ``run_batch`` builds.
# The largest built-in scenario holds about 1.5 MB; a request far above RAM fails
# in numpy, and one just below it is OOM-killed while the run fills it.
MAX_SAMPLE_BYTES = 1 << 30


@dataclass
class StepperConfig:
    scheme: str = "imex_cnab2"          # or "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    stride: int = 10

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ParameterError("dt and t_end must be positive and finite")
        if self.scheme not in ("imex_cnab2", "rk4"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.stride, (int, np.integer)) or self.stride < 1:
            raise ParameterError("stride must be an integer >= 1")


class SimState:
    """A stack of k trajectories at one time: coefficients ``c`` of shape
    (k, n_modes), step metadata, and each row's running energy ledger.

    ``c`` and its (F, N) rows ``fn``, evaluated with ``c``, are slot ``slot``'s
    of the history ``hist``; ``ab2`` says the other slot holds the previous
    IMEX step's.  ``ledger`` stacks each row's dissipation and work integrals.
    ``states`` is a sequence of SpectralStates sharing L and t; their
    coefficients are copied.
    """

    def __init__(self, states, dt=0.0):
        c = np.array([s.coeffs for s in states])
        self._bind(np.zeros((6,) + c.shape), 0, np.zeros((2, len(states))))
        self.c[:] = c
        self.t, self.dt, self.step, self.ab2 = states[0].t, dt, 0, False
        self.energy0 = self.energy()

    def _bind(self, hist, slot, ledger):
        """Point ``c`` and ``fn`` at slot ``slot`` of ``hist``, the integrals at ``ledger``."""
        self.hist, self.slot, self.c, self.ledger = hist, slot, hist[4 + slot], ledger
        self.fn = hist[2 * slot:2 * slot + 2]
        return self

    def energy(self):
        return 0.5 * np.einsum("kn,kn->k", self.c, self.c)

    def ledger_residual(self):
        """E(t) - E(0) + int D - int W per row, the discrete balance defect."""
        return self.energy() - self.energy0 + self.ledger[0] - self.ledger[1]

    def take(self, rows):
        """The sub-stack of ``rows`` (an index list or a boolean mask), copied."""
        out = SimState.__new__(SimState)._bind(self.hist[:, rows], self.slot, self.ledger[:, rows])
        out.t, out.dt, out.step, out.ab2 = self.t, self.dt, self.step, self.ab2
        out.energy0 = self.energy0[rows]
        return out


def _stage_rows(dt):
    """The stage rows of the module docstring per slot: (slot, stage, 2, 6)."""
    a = 0.5 * dt
    rows = np.array([[a, -a, 0, 0, 1, 0], [a, 0, 0, 0, 0, 0],
                     [a / 2, -a / 2, a / 2, -a / 2, 1, 0], [a / 2, 0, a / 2, 0, 0, 0],
                     [1.5 * a, -1.5 * a, -a / 2, a / 2, 1, 0], [1.5 * a, 0, -a / 2, 0, 0, 0]])
    rows = rows.reshape(3, 2, 6)
    return np.stack((rows, rows[..., [2, 3, 0, 1, 5, 4]]))


class _Workspace:
    """Every array a step of the k rows of ``sim`` on ``form`` and ``spec``
    writes, and every one sized by k or dt that it reads: the two states and
    ``sim``'s history, which they share (it evaluates ``sim.fn``), the form's
    and the engine plans, spec's f tiled to the stack, per dt ``dts`` the
    stage rows and ``cn_operator``, ``stages`` (IMEX: y, 2 m, a A m and a F;
    RK4: the slopes, A c and the stage input), ``idle``, the two stage rows a
    step reads only after writing them, and the ledger rates."""

    def __init__(self, form, spec, sim):
        k, n = sim.c.shape
        self.hist, self.stages = sim.hist, np.empty((6, k, n))
        self.states = [SimState.__new__(SimState)._bind(self.hist, j, np.empty((2, k)))
                       for j in range(2)]
        self.plan = form.plan(k)
        self.syn, adj = convective_plans(form.transform, k)
        self.adj = adj[:-1]
        self.f_rows = np.tile(spec.f[:n], (k, 1))
        self.dts = {}
        self.yg = self.stages.reshape(6, -1)[:4:3]      # y and a F
        self.idle = self.stages[4:]
        self.rates = np.empty((4, 2, k))
        self.terms(form, spec, sim.c, sim.fn)

    def terms(self, form, spec, c, out):
        """(F(c), N(c)) for every row of a coefficient stack, into the rows of ``out``."""
        convective_term(form.transform, c, (self.syn, self.adj + (out[1],)))
        apply_forcing(spec, c, out[0], self.f_rows)

    def midpoint(self, form, rows, dt, op):
        """(2 m, a A m) in stages[1:3] for the midpoint m of the stage ``rows``."""
        np.matmul(rows, self.hist.reshape(6, -1), out=self.yg)
        return form.cn_solve(self.stages[0], dt, self.stages[1:3], self.plan, op)

    def advance(self, form, spec, sim, dt, rates, ab2):
        """The state that is not ``sim``, whose c the step has written, one
        step of dt later, with its ledger and its (F, N) rows."""
        s = self.states[1 - sim.slot]
        s.t, s.dt, s.step, s.energy0, s.ab2 = sim.t + dt, dt, sim.step + 1, sim.energy0, ab2
        np.add(sim.ledger, rates, out=s.ledger)
        self.terms(form, spec, s.c, s.fn)
        return s


def step_count(dt, t_end):
    """The number of steps of dt to t_end, which must be an integer multiple of dt."""
    steps = np.rint(t_end / dt)         # inf past the float range, not an OverflowError
    if abs(steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ParameterError("t_end must be an integer multiple of dt")
    return int(steps)


def check_batch(config, form, n_rows, n_alpha):
    """The step and sample counts of a run of ``config``, checked before
    anything is built: t_end must be an integer multiple of dt, and
    ``n_rows`` rows must fit in ``MAX_SAMPLE_BYTES``.  A row holds at once, in
    n_modes values: 14 of the workspace (12 of its history and stages, 2 of
    engine indices); the form's plan (1 on the diagonal form, 4 on a blocked
    one) and the diagonal form's tiled IMEX operator (1); the convective
    plans' buffers: a (4 n_pairs, n_lat) latitude stage and its copy per
    component of the ``VORT`` synthesis (3) and ``FIELD`` adjoint (2), the
    synthesis's nodal values, and a coefficient block per plan; the forcing
    rows (1); ``record``'s square (1); the samples (coefficients and
    ``record``'s fields with ``n_alpha`` Killing coordinates); 12 scalars
    (ledgers, rates); and ``record``'s output and columns (its fields twice,
    t once).  It leaves out the live index and the initial energy."""
    n_steps = step_count(config.dt, config.t_end)
    n_samples = 1 + -(-n_steps // config.stride)
    eng, n = form.transform.engine, form.D.size
    n_pairs, n_degrees, _, n_lat = eng.X.shape
    fields = len(SCALAR_FIELDS) + n_alpha
    plan = 4 * n if form.blocks is not None else 2 * n if config.scheme == "imex_cnab2" else n
    row = (plan + 16 * n + 10 * 4 * n_pairs * n_lat + 3 * n_lat * eng.n_lon
           + 8 * n_pairs * n_degrees + n_samples * (n + fields) + 12 + 2 * fields - 1)
    held = 8 * n_rows * row
    if held > MAX_SAMPLE_BYTES:
        raise ParameterError(
            f"{n_rows} x {n_samples} samples and the rows' workspace take "
            f"{held / 2 ** 30:.3g} GiB, over the {MAX_SAMPLE_BYTES / 2 ** 30:g} GiB cap: "
            "raise run.stride, shorten run.t_end or run fewer members")
    return n_steps, n_samples


def _check_dt(dt, rho, bound, scheme):
    """Raise unless 0 < dt < inf and dt rho <= bound, the scheme's stability bound."""
    if not 0 < dt < np.inf:
        raise ParameterError("dt must be positive and finite")
    if dt * rho > bound + 1e-9:
        raise ParameterError(f"dt = {dt:g} exceeds the {scheme} stability bound "
                             f"{bound / max(rho, 1e-300):g}")


def step_imex(sim, form, spec, dt, out=None):
    """One IMEX-CNAB2 step of every row: Crank-Nicolson on A, with N and F
    by Adams-Bashforth, or on the first step by a predictor-corrector.  The
    stack after it is written into ``run_batch``'s workspace ``out``, or a
    fresh one.  Rows that overflow come back non-finite; ``run_batch`` freezes them.
    """
    _check_dt(dt, 0.0, 0.0, "IMEX-CNAB2")          # no stability bound
    if sim.ab2 and dt != sim.dt:
        raise ParameterError(f"dt = {dt:g} differs from the previous step's {sim.dt:g}")
    ws = _Workspace(form, spec, sim.take(range(sim.c.shape[0]))) if out is None else out
    cur, other = ws.states[sim.slot], ws.states[1 - sim.slot]
    per_dt = ws.dts.get(dt)
    if per_dt is None:
        per_dt = ws.dts[dt] = _stage_rows(dt), form.cn_operator(dt, sim.c.shape[0])
    rows, op = per_dt[0][sim.slot], per_dt[1]
    if not sim.ab2:
        # the prediction and its terms fill the other slot
        np.subtract(ws.midpoint(form, rows[0], dt, op)[0], cur.c, out=other.c)
        ws.terms(form, spec, other.c, other.fn)
    two_m = ws.midpoint(form, rows[1 + sim.ab2], dt, op)[0]
    np.subtract(two_m, cur.c, out=other.c)          # c+ = 2 m - c, into the other slot
    # dissipation dt (A m, m) and work dt (F, m) in one product;
    # -dt (N, m) is the convective defect
    w = ws.stages
    return ws.advance(form, spec, sim, dt, np.vecdot(w[2:4], w[1], out=ws.rates[0]), True)


def _rk4_sum(s, dt):
    """dt / 6 (s0 + 2 s1 + 2 s2 + s3) of the stage values s, in s[1]."""
    s[1:3] *= 2
    s[1] += s[0]
    s[1] += s[2]
    s[1] += s[3]
    s[1] *= dt / 6.0
    return s[1]


def step_rk4(sim, form, spec, dt, out=None):
    """Classical explicit RK4 step of every row, returned like ``step_imex``'s."""
    _check_dt(dt, form.rho_full(), 2.7, "RK4")
    ws = _Workspace(form, spec, sim.take(range(sim.c.shape[0]))) if out is None else out
    cur, other = ws.states[sim.slot], ws.states[1 - sim.slot]
    cv, fn = cur.c, cur.fn          # the first stage reads c's own terms
    slopes, (ac, y) = ws.stages[:4], ws.idle
    for i, h in enumerate((0.0, 0.5 * dt, 0.5 * dt, dt)):
        if i:   # the stage input c + h k_{i-1}, its terms in the other slot
            cv, fn = np.add(np.multiply(slopes[i - 1], h, out=y), cur.c, out=y), other.fn
            ws.terms(form, spec, cv, fn)
        form.apply(cv, ac, ws.plan)
        np.negative(ac, out=slopes[i])
        slopes[i] -= fn[1]
        slopes[i] += fn[0]
        np.einsum("kn,kn->k", cv, ac, out=ws.rates[i, 0])
        np.einsum("kn,kn->k", fn[0], cv, out=ws.rates[i, 1])
    np.add(cur.c, _rk4_sum(slopes, dt), out=other.c)
    return ws.advance(form, spec, sim, dt, _rk4_sum(ws.rates, dt), False)


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
    A run whose workspace, forcing rows, ``record`` temporaries and samples
    exceed ``MAX_SAMPLE_BYTES`` at once (``check_batch``) raises
    ParameterError before it builds anything.  ``record_fn`` (default: the
    diagnostics ``record``) is called as ``record_fn(form, spec, sim, ws)``,
    ``ws`` the run's workspace, once per sample on the live rows and returns
    one record per row.  The loop, ``record_fn`` included, runs with
    numpy's overflow and invalid-value warnings off, since an overflowing
    row is expected and is caught after its step.
    """
    if not (grid is form.grid is spec.basis.grid):
        raise GridMismatchError("the form, the forcing and the run use different grids")
    if not states:
        raise ParameterError("no initial states")
    if any(s.L != form.L for s in states):
        raise ParameterError(f"initial states must have the form's truncation L = {form.L}")
    if any(s.t != states[0].t for s in states):
        raise ParameterError("initial states must share their time t")
    rec = record_fn if record_fn is not None else record
    n_steps, n_samples = check_batch(config, form, len(states), spec.basis.n)
    stepper = step_imex if config.scheme == "imex_cnab2" else step_rk4

    sim = SimState(states, dt=config.dt)
    ws = _Workspace(form, spec, sim)
    live = np.arange(sim.c.shape[0])          # original index of each row
    samples = np.repeat(sim.c[:, None], n_samples, axis=1)
    records = rec(form, spec, sim, ws).view(np.recarray).repeat(n_samples, axis=0)
    records = records.reshape(samples.shape[:2])
    diverged = {}
    taken = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            new = stepper(sim, form, spec, config.dt, ws)
            # a sum is finite only if every term is; scan rows only when it is not
            if not -np.inf < np.add.reduce(new.c, None) < np.inf:
                bad = ~np.isfinite(new.c).all(axis=1)
                for j in np.flatnonzero(bad):
                    i = int(live[j])
                    last = sim.take([j])
                    diverged[i] = DivergenceError(
                        f"non-finite coefficients at t = {new.t:.6g} "
                        f"(after step {sim.step})", last_state=last,
                        partial=(samples[i, :taken], records[i, :taken]), step=new.step,
                        t=new.t, dt=config.dt, max_abs_c=float(np.abs(last.c).max()),
                        ledger_residual=float(last.ledger_residual()[0]))
                live, new = live[~bad], new.take(~bad)
                if live.size == 0:
                    break
                ws = _Workspace(form, spec, new)
            sim = new
            if (n + 1) % config.stride == 0 or n + 1 == n_steps:
                samples[live, taken], records[live, taken] = sim.c, rec(form, spec, sim, ws)
                taken += 1
    del ws, sim, new    # before the rows' pairs, which outweigh record's temporaries at small L
    return [diverged[i].partial if i in diverged else pair
            for i, pair in enumerate(zip(samples, records))], diverged


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
