"""Observables along trajectories: norms, energy ledger, decay fits,
Killing-component identities, monotonicity, continuous dependence, and the
backward-uniqueness quotient.

A trajectory's diagnostics are one record array, a row per sample; the
checks read its columns (``records.t``, ``records.alpha``, ...).

The quotient Lambda = ||sqrt(2 nu) eps(u)||^2 / ||u||^2 vanishes on Killing
fields and is flagged undefined below ||u|| = 1e-13 rather than extended by
limits: a vanishing difference of trajectories is the event the probe is
watching for, so we stop instead of dividing by noise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .forcing import apply_forcing

NORM_FLOOR = 1e-13


SCALAR_FIELDS = ("t", "norm_u", "norm_uK", "norm_uNK", "energy", "dissipation",
                 "work", "energy_residual", "lam")


def record(form, spec, sim):
    """The diagnostics of every row of the integrator's stack ``sim``: a
    record array with one row per coefficient row, with A c and F(c) each
    evaluated once for the whole stack.  Its fields are ``SCALAR_FIELDS``
    (``lam`` is nan where undefined) and the ``basis.n`` Killing
    coordinates ``alpha``."""
    c = sim.c
    norm_u = np.linalg.norm(c, axis=1)
    diss = np.einsum("kn,kn->k", c, form.apply(c))
    lam = np.full_like(norm_u, np.nan)
    defined = norm_u >= NORM_FLOOR
    lam[defined] = diss[defined] / norm_u[defined] ** 2
    columns = (sim.t, norm_u, np.linalg.norm(c[:, :3], axis=1),
               np.linalg.norm(c[:, 3:], axis=1), 0.5 * norm_u ** 2, diss,
               np.einsum("kn,kn->k", apply_forcing(spec, c), c), sim.ledger_residual(),
               lam, spec.basis.alpha(c))
    out = np.empty(c.shape[0], dtype=[(name, float) for name in SCALAR_FIELDS]
                   + [("alpha", float, (spec.basis.n,))])
    for name, column in zip(out.dtype.names, columns):
        out[name] = column
    return out.view(np.recarray)


@dataclass
class DecayFit:
    zeta: float
    omega: float
    residual: float
    window: tuple
    warning: str = ""

    @property
    def ok(self):
        return not self.warning


def fit_decay_rate(times, values, window=None):
    """Fit values(t) ~ e^{-zeta t} + omega on a window.

    ``values`` are the squared non-Killing norms.  The tail plateau omega is
    the mean of the last 10% of samples (0 if below 1e-12); the rate comes
    from least squares of log(values - omega)_+ against t.  A non-monotone
    tail beyond rounding produces a warning, not an error.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 10:
        raise ParameterError("need at least 10 samples to fit a decay rate")
    if np.any(values < 0):
        raise ParameterError("decay fit expects nonnegative values")
    n_tail = max(1, times.size // 10)
    omega = float(values[-n_tail:].mean())
    if omega <= 1e-12:
        omega = 0.0
    if window is None:
        t0, t1 = times[0], times[-1]
    else:
        t0, t1 = window
    # relative floor keeps rounding-level tails out of the log fit
    floor = max(1e-12 * float(values.max()), 1e-300)
    sel = (times >= t0) & (times <= t1) & (values - omega > floor)
    if sel.sum() < 3:
        return DecayFit(np.nan, omega, np.nan, (t0, t1),
                        warning="too few samples above the plateau")
    ts = times[sel]
    ys = np.log(values[sel] - omega)
    Amat = np.stack([np.ones_like(ts), -ts], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, ys, rcond=None)
    fit = Amat @ coef
    resid = float(np.sqrt(np.mean((ys - fit) ** 2)))
    warning = ""
    tail = values[sel][max(0, sel.sum() - n_tail):]
    if np.any(np.diff(tail) > 1e-9 * max(values.max(), 1.0) + 1e-14):
        warning = "non-monotone tail"
    return DecayFit(float(coef[1]), omega, resid, (float(t0), float(t1)), warning)


@dataclass
class KillingIdentityReport:
    linear_law_dev: float       # the power-integral law against f_K
    affine_law_dev: float       # componentwise alpha(t) = alpha(0) + t f_K
    quadratic_law_dev: float    # norm growth law (nan unless f independent of u)
    drift: float                # max |alpha(t) - alpha(0)| (conservation case)
    fk_norm: float


def check_killing_identity(series, spec):
    """Verify the exact Killing laws for u-independent Killing forcing.

    For f_K independent of u: the power integral (f_K, u_K)(t) is affine
    with slope ||f_K||^2, each coordinate follows alpha(0) + t f_K, and the
    squared norm obeys its quadratic expansion.  For f_K = 0 the report's
    ``drift`` field measures conservation.  ``series`` holds the columns
    ``t`` and ``alpha`` of a trajectory's records.
    """
    if spec.K.any():
        raise ParameterError(
            "identity check needs forcing with u-independent Killing part")
    # f_K: the Killing coordinates of F(0)'s degree-1 rows
    fk = spec.basis.alpha(spec.f[:3])
    fk_norm = float(np.linalg.norm(fk))

    dt = series.t - series.t[0]
    alpha = series.alpha
    a0 = alpha[0]
    ip0 = float(fk @ a0)
    lin_dev = np.abs(alpha @ fk - ip0 - dt * fk_norm ** 2).max()
    aff_dev = np.abs(alpha - a0 - dt[:, None] * fk).max()
    expect = float(a0 @ a0) + dt * dt * fk_norm ** 4 + 2.0 * dt * fk_norm ** 2 * ip0
    quad_dev = np.abs(np.einsum("kn,kn->k", alpha, alpha) - expect).max()
    drift = np.abs(alpha - a0).max()
    return KillingIdentityReport(lin_dev, aff_dev, quad_dev, drift, fk_norm)


@dataclass
class MonotonicityReport:
    direction: str
    ok: bool
    first_violation_t: float
    worst: float


def check_monotonicity(series, direction):
    """Assert ||u_K(t)|| is monotone across samples within 1e-10 max(1, max_t ||u_K||).

    ``series`` holds the columns ``t`` and ``norm_uK`` of a trajectory's records.
    """
    if direction not in ("nonincreasing", "nondecreasing"):
        raise ParameterError("direction must be nonincreasing or nondecreasing")
    sign = -1.0 if direction == "nonincreasing" else 1.0
    vals, times = series.norm_uK, series.t
    steps = sign * np.diff(vals)
    tol = 1e-10 * max(1.0, vals.max())
    bad = np.where(steps < -tol)[0]
    if bad.size == 0:
        return MonotonicityReport(direction, True, np.nan,
                                  float(steps.min(initial=0.0)))
    return MonotonicityReport(direction, False, float(times[bad[0] + 1]),
                              float(steps.min()))


@dataclass
class DependenceReport:
    sup_ratio: float
    diss_integral: float
    combined_ratio: float
    gap0: float


def continuous_dependence_ratio(traj_a, traj_b, T, form=None):
    """sup_{[0,T]} ||u1 - u2||^2 / ||u1(0) - u2(0)||^2 plus the strain-gap
    integral 2 nu_* int ||eps(u1 - u2)||^2 dt.

    Each trajectory is a (samples, records) pair as ``run`` returns it: the
    coefficient rows and their records, sampled at the same times, which
    are read from ``traj_a``'s records.  Identical initial data is an error
    (undefined ratio).
    """
    (samples_a, records), (samples_b, _) = traj_a, traj_b
    if len(samples_a) != len(samples_b):
        raise ParameterError("trajectories must share their sample times")
    d = np.subtract(samples_a, samples_b)
    d0 = float(np.linalg.norm(d[0]))
    if d0 < NORM_FLOOR:
        raise ParameterError("identical initial data: dependence ratio undefined")
    ts = records.t
    window = ts <= T + 1e-12
    d, ts = d[window], ts[window]
    sup = float(np.einsum("kn,kn->k", d, d).max(initial=0.0))
    diss = 0.0
    if form is not None and ts.size > 1:
        eps2 = (d * d) @ (0.5 * form.D)
        trap = float(np.sum(0.5 * np.diff(ts) * (eps2[1:] + eps2[:-1])))
        diss = 2.0 * form.nu_min * trap
    return DependenceReport(sup / d0 ** 2, diss, (sup + diss) / d0 ** 2, d0)


@dataclass
class LambdaReport:
    times: np.ndarray
    lam: np.ndarray
    logs: np.ndarray            # L(t) = -1/2 log ||u||^2
    truncated_at: float         # nan if the difference never vanished
    lam_max: float
    affine_coef: tuple          # (intercept, slope) of the L fit
    affine_residual: float      # rms residual / spread of L


def lambda_series(times, diffs, form):
    """Lambda(t) and L(t) along a difference trajectory: the coefficient
    rows ``diffs`` sampled at ``times``.

    Stops at the first sample with ||u|| < 1e-13 and reports the truncation
    point; otherwise fits L affinely and reports the relative residual (the
    bounded-growth structure dL/dt <= C + C Lambda).
    """
    times = np.asarray(times, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    nrm = np.linalg.norm(diffs, axis=1)
    vanished = np.flatnonzero(nrm < NORM_FLOOR)
    n = vanished[0] if vanished.size else nrm.size
    truncated = float(times[n]) if vanished.size else np.nan
    ts, d, nrm = times[:n], diffs[:n], nrm[:n]
    lams = np.einsum("kn,kn->k", d, form.apply(d)) / nrm ** 2
    logs = -np.log(nrm)
    if ts.size < 2:
        return LambdaReport(ts, lams, logs, truncated, float("nan"),
                            (np.nan, np.nan), np.nan)
    Amat = np.stack([np.ones_like(ts), ts], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, logs, rcond=None)
    resid = float(np.sqrt(np.mean((logs - Amat @ coef) ** 2)))
    spread = float(max(np.ptp(logs), 1e-30))
    return LambdaReport(ts, lams, logs, truncated, float(lams.max()),
                        (float(coef[0]), float(coef[1])), resid / spread)
