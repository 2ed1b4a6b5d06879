"""Observables along trajectories: norms, energy ledger, decay fits,
Killing-component identities, monotonicity, continuous dependence, and the
backward-uniqueness quotient; the two references that read no solver
operator, the Rossby-Haurwitz closed form and the strain quadrature; and the
enstrophy cosine of the solver's convective term.

A trajectory's diagnostics are one record array, a row per sample; the
checks read its columns (``records.t``, ``records.alpha``, ...).  Each
analysis returns the numbers its checks read and nothing else.

The quotient Lambda = ||sqrt(2 nu) eps(u)||^2 / ||u||^2 vanishes on Killing
fields and is left undefined below ||u|| = 1e-13 rather than extended by
limits: a record holds nan there, and ``lambda_series`` stops at the first
such sample.  A vanishing difference of trajectories is the event the probe
is watching for, so it stops instead of dividing by noise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .forcing import apply_forcing
from .operators import convective_term

NORM_FLOOR = 1e-13


SCALAR_FIELDS = ("t", "norm_u", "norm_uK", "norm_uNK", "energy", "dissipation",
                 "work", "energy_residual", "lam")


def record(form, spec, sim, ws=None):
    """The diagnostics of every row of the integrator's stack ``sim``: a
    record array with one row per coefficient row, with A c and F(c) each
    evaluated once for the whole stack (into the ``idle`` stage rows of
    ``run_batch``'s workspace ``ws``, by its plan and forcing rows, if
    given).  Its fields are ``SCALAR_FIELDS`` (``lam`` is nan where
    undefined) and the ``basis.n`` Killing coordinates ``alpha``."""
    c = sim.c
    ac, fc, plan, rows = (None,) * 4 if ws is None else (*ws.idle, ws.plan, ws.forcing_rows(spec))
    sq = c * c      # np.linalg.norm's square, once: on a column slice norm copies it
    norm_u, norm_uk, norm_unk = (np.sqrt(np.add.reduce(sq[:, cols], axis=1))
                                 for cols in (slice(None), slice(3), slice(3, None)))
    diss = np.einsum("kn,kn->k", c, form.apply(c, ac, plan))
    lam = np.full_like(norm_u, np.nan)
    defined = norm_u >= NORM_FLOOR
    lam[defined] = diss[defined] / norm_u[defined] ** 2
    columns = (sim.t, norm_u, norm_uk, norm_unk, 0.5 * norm_u ** 2, diss,
               np.einsum("kn,kn->k", apply_forcing(spec, c, fc, rows), c), sim.ledger_residual(),
               lam, spec.basis.alpha(c))
    out = np.empty(c.shape[0], dtype=[(name, float) for name in SCALAR_FIELDS]
                   + [("alpha", float, (spec.basis.n,))])
    for name, column in zip(out.dtype.names, columns):
        out[name] = column
    return out.view(np.recarray)


def fit_decay_rate(times, values, window=None):
    """Fit values(t) ~ e^{-zeta t} + omega on a window; returns (zeta, omega).

    ``values`` are the squared non-Killing norms.  The tail plateau omega is
    the mean of the last 10% of samples (0 if below 1e-12); the rate comes
    from least squares of log(values - omega)_+ against t, and is nan when
    fewer than 3 samples of the window lie above the plateau.
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
        return np.nan, omega
    ts = times[sel]
    ys = np.log(values[sel] - omega)
    Amat = np.stack([np.ones_like(ts), -ts], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, ys, rcond=None)
    return float(coef[1]), omega


@dataclass
class KillingIdentityReport:
    linear_law_dev: float       # the power-integral law against f_K
    affine_law_dev: float       # componentwise alpha(t) = alpha(0) + t f_K
    quadratic_law_dev: float    # the quadratic norm growth law
    drift: float                # max |alpha(t) - alpha(0)| (conservation case)


def check_killing_identity(series, spec):
    """Verify the exact Killing laws for u-independent Killing forcing.

    For f_K independent of u: the power integral (f_K, u_K)(t) is affine
    with slope ||f_K||^2, each coordinate follows alpha(0) + t f_K, and the
    squared norm obeys its quadratic expansion ||alpha(0)||^2
    + 2 t (f_K, alpha(0)) + t^2 ||f_K||^2.  For f_K = 0 the report's
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
    expect = float(a0 @ a0) + dt * dt * fk_norm ** 2 + 2.0 * dt * ip0
    quad_dev = np.abs(np.einsum("kn,kn->k", alpha, alpha) - expect).max()
    drift = np.abs(alpha - a0).max()
    return KillingIdentityReport(lin_dev, aff_dev, quad_dev, drift)


def rossby_haurwitz_block(block, omega, rate, t):
    """The degree-l block, at each of the times ``t``, of a flow whose data
    are the rigid rotation about e3 at rate ``omega`` and the degree-l
    coefficients ``block``: each (l, m) cos/sin pair turns by m c_l omega t,
    c_l = 1 - 2 / (l(l+1)) (the Rossby-Haurwitz phase speed), and the block
    decays as e^{-rate t}.  A closed form: no convective term is evaluated."""
    l = block.size // 2
    t = np.asarray(t, dtype=float)[:, None]
    angle = np.arange(1, l + 1) * (1.0 - 2.0 / (l * (l + 1))) * omega * t
    cos, sin = block[1::2], block[2::2]
    out = np.empty((t.shape[0], block.size))
    out[:, 0] = block[0]
    out[:, 1::2] = cos * np.cos(angle) - sin * np.sin(angle)
    out[:, 2::2] = cos * np.sin(angle) + sin * np.cos(angle)
    return out * np.exp(-rate * t)


def strain_dissipation(form, c):
    """sum_n 2 nu_n w_n |eps(u)|^2_n for every row u of the (k, n_modes)
    coefficient stack ``c``: the quadrature of the gradient synthesis with
    nu's nodal values, which reads no assembled block.  It equals (c, A c)
    when A is assembled from that nu.  The rows are synthesized 8 at a time:
    four nodal fields per row outweigh a run's samples (11 MB for the 101
    samples of an L = 16 run at once)."""
    tr, w = form.transform, 2.0 * form.nu.values * form.grid.weights
    out = np.empty(c.shape[0])
    for i in range(0, c.shape[0], 8):
        T = tr.engine.synthesize(c[i:i + 8], tr.GRAD)           # (4, 8, n_nodes)
        out[i:i + 8] = (T[0] ** 2 + 0.5 * (T[1] + T[2]) ** 2 + T[3] ** 2) @ w
    return out


def enstrophy_cosine(tr, c):
    """|(N(c), D c)| / (||N(c)|| ||D c||) for every row c of the (k, n_modes)
    coefficient stack ``c``: N the solver's ``convective_term`` through the
    transform ``tr`` and D = (l(l+1) - 2) / R^2.  (u . grad omega, omega) = 0
    makes N orthogonal to D c when the grid integrates the product exactly,
    so the cosine sits at rounding on a dealiased grid and not on a coarser
    one.  A row where N or D c vanishes reads 0.  The rows go 8 at a time,
    as in ``strain_dissipation``."""
    d = (tr.mode_l * (tr.mode_l + 1) - 2.0) / tr.grid.R ** 2
    out = np.zeros(c.shape[0])
    for i in range(0, c.shape[0], 8):
        n, dc = convective_term(tr, c[i:i + 8]), c[i:i + 8] * d
        norms = np.linalg.norm(n, axis=1) * np.linalg.norm(dc, axis=1)
        np.divide(np.abs(np.einsum("kn,kn->k", n, dc)), norms, out=out[i:i + 8],
                  where=norms > 0.0)
    return out


@dataclass
class MonotonicityReport:
    ok: bool
    first_violation_t: float
    worst: float                # the most negative signed step, or 0
    tol: float                  # the step tolerance applied


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
    bad = np.flatnonzero(steps < -tol)
    first = float(times[bad[0] + 1]) if bad.size else np.nan
    return MonotonicityReport(not bad.size, first, float(steps.min(initial=0.0)), float(tol))


def continuous_dependence_ratio(traj_a, traj_b, T):
    """sup_{[0,T]} ||u1 - u2||^2 / ||u1(0) - u2(0)||^2.

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
    d = d[records.t <= T + 1e-12]
    return float(np.einsum("kn,kn->k", d, d).max(initial=0.0)) / d0 ** 2


def lambda_series(times, diffs, form):
    """(max Lambda, affine residual) along a difference trajectory: the
    coefficient rows ``diffs`` sampled at ``times``.

    The series stops before the first sample with ||u|| < 1e-13.  Lambda(t)
    is the quotient (u, A u) / ||u||^2, and the affine residual is the rms
    residual of the least-squares line through L(t) = -log ||u||, relative
    to L's spread (the bounded-growth structure dL/dt <= C + C Lambda).
    Both are nan when fewer than two samples remain.
    """
    times = np.asarray(times, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    nrm = np.linalg.norm(diffs, axis=1)
    vanished = np.flatnonzero(nrm < NORM_FLOOR)
    n = vanished[0] if vanished.size else nrm.size
    if n < 2:
        return np.nan, np.nan
    ts, d, nrm = times[:n], diffs[:n], nrm[:n]
    lam_max = float((np.einsum("kn,kn->k", d, form.apply(d)) / nrm ** 2).max())
    logs = -np.log(nrm)
    Amat = np.stack([np.ones_like(ts), ts], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, logs, rcond=None)
    resid = float(np.sqrt(np.mean((logs - Amat @ coef) ** 2)))
    return lam_max, resid / float(max(np.ptp(logs), 1e-30))
