"""Built-in scenario registry: reproducible runs probing the quantitative
long-time laws of the flow, each with pinned tolerances.

Every scenario's ``claims`` field states the law it exercises: the exact
Killing-component dynamics under the forcing catalog, exponential
non-Killing decay at the spectral-gap rate, the non-Killing absorbing
envelope, the discrete energy equality and the dissipation's two routes,
the convective term's orthogonality to D u (the enstrophy identity), the
Rossby-Haurwitz transport by a rotation, continuous dependence on data,
bounded backward-uniqueness quotients, and absorbing-set entry for
ensembles.

A check is a plain function of the run context whose bound sits in its
body.  A check is a factory only where the registry gives its parameter
two values.
"""

import numpy as np

from .errors import ParameterError
from . import geometry as geo
from .diagnostics import (NORM_FLOOR, check_killing_identity, check_monotonicity,
                          continuous_dependence_ratio, enstrophy_cosine, fit_decay_rate,
                          lambda_series, rossby_haurwitz_block, strain_dissipation)
from .harmonics import mode_index, random_band_limited
from .harness import CheckResult, Scenario, default_config, execute_scenario
from .killing import korn_constant


def _cfg(**kv):
    cfg = default_config()
    for key, val in kv.items():
        k = key if key in cfg else key.replace("_", ".", 1)
        if k not in cfg:
            raise ParameterError(f"scenario config key {key!r} not in schema")
        cfg[k] = val
    return cfg


def _check(name, measured, bound, expected, detail=""):
    return CheckResult(name, bool(measured <= bound), float(measured),
                       expected, float(bound), detail)


def _gap(form):
    """The spectral gap sigma: A's smallest eigenvalue past its kernel, which
    is exactly the three Killing modes; nu lambda_2 for constant nu."""
    return form.eigenvalues()[3]


_DECAY_WINDOW = (1.0, 3.0)      # past the transient, before the plateau


# --- individual checks ------------------------------------------------------

def chk_eigenlaw(ctx):
    sigma = _gap(ctx.form)
    final = ctx.samples[-1][mode_index(ctx.form.L, 2, 0)]
    t_end = ctx.cfg["run.t_end"]
    rel = abs(final - np.exp(-sigma * t_end)) / np.exp(-sigma * t_end)
    return _check("eigenlaw_c20", rel, 1e-6, "c20(t) = exp(-sigma t)")


def chk_lambda1_zero(ctx):
    return _check("lambda1_zero", abs(ctx.form.lam_by_degree[1]), 1e-10,
                  "lambda_1 = 0")


def chk_decay_rate(ctx):
    sigma = _gap(ctx.form)
    zeta, omega = fit_decay_rate(ctx.records.t, ctx.records.norm_uNK ** 2,
                                 window=_DECAY_WINDOW)
    rel = abs(zeta - 2 * sigma) / (2 * sigma)
    return _check("zeta_2lam2", rel, 1e-3, "zeta = 2 sigma",
                  detail=f"zeta={zeta:.6g}, omega={omega:.3g}")


def chk_trajectory_constant(ctx):
    drift = np.abs(ctx.samples - ctx.samples[0]).max()
    return _check("trajectory_constant", drift, 1e-12, "u(t) = u(0)")


def chk_ledger(bound):
    def run(ctx):
        r = ctx.records
        worst = np.max(np.abs(r.energy_residual) / np.maximum(r.energy, 1.0))
        return _check("energy_ledger", worst, bound, "|E-E0+int D-int W| small")
    return run


def chk_killing_affine(ctx):
    rep = check_killing_identity(ctx.records, ctx.fspec)
    return [
        _check("alpha_affine_law", rep.affine_law_dev, 1e-8,
               "alpha(t) = alpha(0) + t f_K"),
        _check("killing_norm_quadratic", rep.quadratic_law_dev, 1e-6,
               "||u_K(t)||^2 quadratic expansion"),
        _check("power_integral_linear", rep.linear_law_dev, 1e-8,
               "(f_K, u_K)(t) affine with slope ||f_K||^2"),
    ]


def chk_killing_drift(ctx):
    rep = check_killing_identity(ctx.records, ctx.fspec)
    return _check("alpha_drift", rep.drift, 1e-10, "alpha(t) = alpha(0)")


def chk_exponential_killing(sign):
    def run(ctx):
        r = ctx.records
        a0 = r.norm_uK[0]
        dev = np.max(np.abs(r.norm_uK - a0 * np.exp(sign * (r.t - r.t[0]))))
        return _check("killing_exponential_law", dev / max(a0, 1e-30), 1e-6,
                      f"||u_K(t)|| = e^{{{'+' if sign > 0 else '-'}t}} ||u_K(0)||")
    return run


def chk_monotone(direction):
    def run(ctx):
        rep = check_monotonicity(ctx.records, direction)
        return _check("killing_monotonicity", max(0.0, -rep.worst), rep.tol, direction,
                      detail="" if rep.ok else
                      f"first violation at t = {rep.first_violation_t:.6g}")
    return run


def chk_nk_envelope(ctx):
    """The absorbing envelope of the non-Killing part: with rate = sigma - s,
    ||u_NK(t)|| <= e^{-rate t} ||u_NK(0)|| + ||f_NK|| (1 - e^{-rate t}) / rate,
    t from the first sample; void, and failed, when sigma <= s."""
    rate = _gap(ctx.form) - ctx.fspec.s
    worst = np.nan
    if rate > 0:
        r = ctx.records
        decay = np.exp(-rate * (r.t[1:] - r.t[0]))
        envelope = decay * r.norm_uNK[0] + ctx.fspec.flags.c6 * (1.0 - decay) / rate
        worst = np.max(r.norm_uNK[1:] / envelope)
    return _check("nk_envelope", worst, 1.0 + 1e-6,
                  "||u_NK(t)|| inside the envelope of rate sigma - s",
                  detail=f"sigma - s = {rate:.6g}"
                  + ("" if rate > 0 else " <= 0: the envelope is void"))


def chk_dissipation_dual(ctx):
    """The dissipation (u, A u) of every sample against the strain quadrature
    with the nodal nu, which reads no assembled block."""
    quad = strain_dissipation(ctx.form, ctx.samples)
    rel = np.max(np.abs(ctx.records.dissipation - quad) / quad)
    # measured 1.1e-15 to 1.2e-15, 800x under; 4.3e-2 with A assembled from
    # nu's area mean, 4e10x over
    return _check("dissipation_dual", rel, 1e-12, "(u, A u) = int 2 nu |eps(u)|^2")


def chk_enstrophy_orthogonal(ctx):
    """The solver's convective term N(u) of every sample against D u: the
    largest cosine of their angle, at rounding when the grid integrates
    (u . grad omega, omega) = 0 exactly."""
    cos = enstrophy_cosine(ctx.form.transform, ctx.samples)
    # measured 6.4e-15 to 8.6e-15, 116x under; 7.1e-4 to 3.4e-3 with N on a
    # grid of degree L + 1, 7e8x over
    return _check("enstrophy_orthogonal", cos.max(), 1e-12, "(N(u), D u) = 0")


def chk_rh_transport(ctx):
    """The degree-3 block of every sample against the Rossby-Haurwitz closed
    form, Omega read from the first sample's alpha_3 = Omega sqrt(8 pi / 3) R^2:
    the largest error relative to the reference block."""
    r, block = ctx.records, slice(8, 15)        # degree 3: l^2 - 1 to (l + 1)^2 - 1
    omega = r.alpha[0, 2] / (np.sqrt(8.0 * np.pi / 3.0) * ctx.grid.R ** 2)
    rate = ctx.form.nu_min * ctx.form.lam_by_degree[3]
    want = rossby_haurwitz_block(ctx.samples[0, block], omega, rate, r.t - r.t[0])
    err = np.linalg.norm(ctx.samples[:, block] - want, axis=1) / np.linalg.norm(want, axis=1)
    # measured 8.6e-5 (2.1e-5 at dt / 2: second order), 12x under; 1.15 with
    # N = 0 and 1.30 with N -> -N, 1150x over
    return _check("rh_transport", err.max(), 1e-3,
                  "(3, m) pairs turn by m c_3 Omega t and decay as e^{-lambda_3 t}",
                  detail=f"Omega = {omega:.6g}")


def chk_gap_spread(ctx):
    T = ctx.cfg["run.t_end"]
    ratios = [continuous_dependence_ratio(ctx.pair["base"], ctx.pair[f"gap{i}"], T)
              for i in range(len(ctx.cfg["pair.gaps"]))]
    spread = max(ratios) / min(ratios)
    return _check("dependence_ratio_spread", spread, 2.0,
                  "sup-ratio stable across shrinking gaps",
                  detail="ratios: " + ", ".join(f"{r:.4f}" for r in ratios))


def chk_lambda_bounded(ctx):
    (sa, records), (sb, _) = ctx.pair["a"], ctx.pair["b"]
    lam_max, affine_residual = lambda_series(records.t, sa - sb, ctx.form)
    return [
        _check("lambda_finite", 0.0 if np.isfinite(lam_max) else 1.0,
               0.5, "Lambda(t) finite on the window",
               detail=f"max Lambda = {lam_max:.6g}"),
        _check("log_norm_affine", affine_residual, 0.05,
               "L(t) within an affine envelope"),
    ]


def chk_no_crossing(min_gap):
    def run(ctx):
        (sa, _), (sb, _) = ctx.pair["a"], ctx.pair["b"]
        worst = float(np.linalg.norm(sa - sb, axis=1).min())
        return _check("no_crossing", -worst, -min_gap, "||u1 - u2|| stays positive",
                      detail=f"min gap = {worst:.6g}")
    return run


def chk_h1_regularization(ctx):
    h1 = np.sqrt(np.square(ctx.samples) @ (1.0 + ctx.form.transform.grad_norm2))
    ts = ctx.records.t
    early = h1[(ts >= 0.1) & (ts <= 0.5)].max()
    late = h1[ts >= 0.5].max()
    return _check("h1_bounded_after_transient", late, 1.05 * early,
                  "sup_{t >= 0.5} ||u||_H1 <= 1.05 sup_{[0.1, 0.5]}",
                  detail=f"early {early:.6g}, late {late:.6g}")


def chk_ensemble_decay(ctx):
    ens = ctx.ensemble
    sigma = _gap(ctx.form)
    nk_max = ens.aggregates["norm_uNK"]["max"]
    zeta, _ = fit_decay_rate(ens.times, nk_max ** 2, window=_DECAY_WINDOW)
    return [
        CheckResult("ensemble_zeta", zeta >= 2 * sigma * 0.99,
                    zeta, ">= 0.99 * 2 sigma", 2 * sigma * 0.99),
        _check("ensemble_omega", ens.omega_hat, 1e-10, "omega_hat = 0"),
        CheckResult("max_member_monotone",
                    bool(np.all(np.diff(nk_max) < 1e-12)),
                    float(np.diff(nk_max).max()), "strictly decreasing", 0.0),
        CheckResult("entry_time_finite", np.isfinite(ens.entry_time),
                    ens.entry_time, "finite absorbing-set entry", 0.0,
                    detail=f"radius {ens.entry_radius:.4f}"),
    ]


def chk_ensemble_growth(ctx):
    ens = ctx.ensemble
    uk_min = ens.aggregates["norm_uK"]["min"]
    ok = bool(np.all(np.diff(uk_min) >= -1e-10))
    return CheckResult("min_member_killing_growth", ok,
                       float(np.diff(uk_min).min()), "nondecreasing", 1e-10)


def chk_torus_static(ctx):
    v = ctx.basis.fields[0]
    resid = geo.strain_norm(ctx.grid, v) / geo.h1_norm(ctx.grid, v)
    area_err = abs(ctx.grid.area - 4 * np.pi ** 2 * ctx.grid.R * ctx.grid.r) / ctx.grid.area
    c_p = korn_constant(ctx.grid)
    return [
        CheckResult("torus_killing_dim", ctx.basis.n == 1, float(ctx.basis.n),
                    "dim = 1", 0.0),
        _check("torus_killing_strain", resid, 1e-9,
               "||eps(v)|| <= 1e-9 ||v||_H1"),
        _check("torus_area", area_err, 1e-10, "area = 4 pi^2 R r"),
        CheckResult("torus_korn_finite", np.isfinite(c_p) and c_p > 1.0,
                    c_p, "C_P finite, > 1", 0.0),
    ]


def chk_korn_convergence(ctx):
    L = ctx.cfg["geometry.L"]
    c_p = korn_constant(ctx.grid, L)
    rel = abs(c_p - korn_constant(ctx.grid, L // 2)) / c_p
    out = [_check("korn_truncation_convergence", rel, 1e-2,
                  "C_P(L) = C_P(L/2) within 1%",
                  detail=f"C_P = {c_p:.8f}")]
    # ||v||^2 by Parseval; grad v = (T00, T01, T10, T11) from the GRAD tables,
    # whose strain eps:eps = T00^2 + 2 e01^2 + T11^2 with e01 = (T01 + T10) / 2.
    # One sample per synthesis: a batch of all 30 is no faster and holds 3 MB
    # of buffers at L = 16.
    tr = ctx.form.transform
    w = ctx.grid.weights
    worst = 0.0
    for i in range(30):
        c = random_band_limited(tr, 9000 + i, norm_killing=0.0).coeffs
        T = tr.engine.synthesize(c[None], tr.GRAD)[:, 0]
        e01 = 0.5 * (T[1] + T[2])
        h1 = c @ c + (T * T).sum(axis=0) @ w
        strain = (T[0] * T[0] + 2.0 * e01 * e01 + T[3] * T[3]) @ w
        worst = max(worst, np.sqrt(h1) / (c_p * np.sqrt(strain)))
    out.append(_check("korn_inequality_samples", worst, 1.0 + 1e-8,
                      "||v||_H1 <= C_P ||eps(v)|| on samples"))
    return out


def chk_final_nk_below(ctx):
    bound = np.sqrt(0.5)
    return _check("nonkilling_final_norm", ctx.records.norm_uNK[-1], bound,
                  f"||u_NK(t_end)|| <= {bound}")


# --- registry ---------------------------------------------------------------

_SCENARIOS = (
    Scenario(
        "free_decay_l2",
        "single-mode free decay follows exp(-lambda_2 t) with the reported "
        "quadratic-form eigenvalue; rotations are never damped (lambda_1 = 0)",
        "single",
        _cfg(geometry_L=16, init_kind="modes", init_modes=((2, 0, 1.0),),
             run_scheme="rk4", run_dt=1e-3, run_t_end=1.0, run_stride=10),
        [chk_eigenlaw, chk_lambda1_zero, chk_ledger(1e-6)]),

    Scenario(
        "free_decay_fit",
        "the non-Killing energy of an unforced flow decays exponentially at "
        "twice the slowest strain eigenvalue",
        "single",
        _cfg(geometry_L=8, init_kind="modes",
             init_modes=((2, 0, 0.5), (3, 1, 0.1)),
             run_dt=1e-3, run_t_end=4.0, run_stride=10),
        [chk_decay_rate, chk_ledger(1e-6)]),

    Scenario(
        "killing_equilibrium",
        "rotation fields are exact steady states of the unforced flow; the "
        "energy ledger closes to rounding",
        "single",
        _cfg(geometry_L=8, init_kind="modes",
             init_modes=((1, 0, 0.9), (1, 1, -0.4), (1, -1, 0.2)),
             run_dt=1e-3, run_t_end=1.0, run_stride=100),
        [chk_trajectory_constant, chk_ledger(1e-12)]),

    Scenario(
        "constant_killing_growth",
        "under a constant Killing forcing the Killing coordinates grow "
        "affinely and the Killing energy exactly quadratically",
        "single",
        _cfg(geometry_L=8, forcing_tag="constant_killing", forcing_c=1.0,
             forcing_axis=0, init_kind="zero",
             run_dt=1e-3, run_t_end=2.0, run_stride=25),
        [chk_killing_affine, chk_ledger(1e-6)]),

    Scenario(
        "f3_minus_decay",
        "forcing -u makes the Killing energy obey the exact e^{-2t} law and "
        "decrease monotonically (dissipative sign case)",
        "single",
        _cfg(geometry_L=8, forcing_tag="f3_minus", init_kind="random",
             init_l_max=4, init_norm_killing=1.0, init_norm_nonkilling=0.5,
             run_dt=5e-4, run_t_end=1.0, run_stride=40),
        [chk_exponential_killing(-1.0), chk_monotone("nonincreasing"),
         chk_nk_envelope]),

    Scenario(
        "f3_plus_growth",
        "forcing +u makes the Killing energy obey the exact e^{+2t} law and "
        "grow monotonically (unbounded-trajectory sign case)",
        "single",
        _cfg(geometry_L=8, forcing_tag="f3_plus", init_kind="random",
             init_l_max=4, init_norm_killing=1.0, init_norm_nonkilling=0.5,
             run_dt=5e-4, run_t_end=1.0, run_stride=40),
        [chk_exponential_killing(+1.0), chk_monotone("nondecreasing"),
         chk_nk_envelope]),

    Scenario(
        "killing_conserved_f1",
        "a forcing with vanishing Killing component conserves every Killing "
        "coordinate along the flow",
        "single",
        _cfg(geometry_L=8, forcing_tag="constant_field", forcing_mode_l=2,
             forcing_mode_m=0, init_kind="random", init_l_max=4,
             init_norm_killing=0.7, init_norm_nonkilling=0.5,
             run_dt=1e-3, run_t_end=5.0, run_stride=100),
        [chk_killing_drift, chk_nk_envelope]),

    Scenario(
        "varnu_energy_balance",
        "the discrete energy equality holds with variable viscosity and a "
        "state-dependent forcing, sample by sample",
        "single",
        _cfg(geometry_L=16, nu_kind="linear_x3", nu_value=1.0, nu_a=0.5,
             forcing_tag="f2_minus", forcing_mode_l=2, forcing_mode_m=0,
             init_kind="random", init_l_max=5, init_norm_killing=0.3,
             init_norm_nonkilling=0.7, run_dt=1e-3, run_t_end=1.0,
             run_stride=10),
        [chk_ledger(1e-6), chk_dissipation_dual, chk_nk_envelope]),

    Scenario(
        "rossby_haurwitz",
        "a rigid rotation carries a one-degree pattern at the Rossby-Haurwitz "
        "phase speed while viscosity damps it at that degree's rate",
        "single",
        _cfg(geometry_L=8, init_kind="modes",
             init_modes=((1, 0, -2.0 * np.sqrt(8.0 * np.pi / 3.0)), (3, 0, 2.041),
                         (3, 1, -2.556), (3, -1, 0.418), (3, 2, -0.568),
                         (3, -2, -0.453), (3, 3, -0.216), (3, -3, -2.02)),
             run_dt=1e-3, run_t_end=0.5, run_stride=10),
        [chk_rh_transport]),

    Scenario(
        "free_decay_ensemble",
        "an unforced ensemble contracts to the rotation space exponentially "
        "at the spectral-gap rate and enters the absorbing ball in finite time",
        "ensemble",
        _cfg(geometry_L=8, init_kind="random", init_norm_killing=0.5,
             init_norm_nonkilling=1.0, run_dt=1e-3, run_t_end=4.0,
             run_stride=20, **{"ensemble.members": 8}),
        [chk_ensemble_decay]),

    Scenario(
        "f3_plus_ensemble",
        "with the growth-sign forcing every member's Killing norm is "
        "nondecreasing (unbounded-attractor regime probe)",
        "ensemble",
        _cfg(geometry_L=8, forcing_tag="f3_plus", init_kind="random",
             init_l_max=4, init_norm_killing=0.8, init_norm_nonkilling=0.4,
             run_dt=5e-4, run_t_end=1.0, run_stride=40,
             **{"ensemble.members": 4}),
        [chk_ensemble_growth]),

    Scenario(
        "contdep_gaps",
        "the squared trajectory gap is controlled by the initial gap with a "
        "constant stable under gap refinement",
        "gaps",
        _cfg(geometry_L=8, forcing_tag="f3_plus", init_kind="random",
             init_l_max=5, init_norm_killing=0.5, init_norm_nonkilling=0.8,
             run_dt=5e-4, run_t_end=1.0, run_stride=20,
             **{"pair.gaps": (1e-2, 1e-3, 1e-4)}),
        [chk_gap_spread]),

    Scenario(
        "backward_uniqueness_probe",
        "the strain-to-norm quotient of a difference trajectory stays "
        "bounded and its log-norm obeys an affine envelope, so nearby "
        "trajectories cannot reach zero distance in finite time",
        "pair",
        _cfg(geometry_L=8, init_kind="random", init_l_max=3,
             init_norm_killing=0.4, init_norm_nonkilling=0.8,
             run_dt=1e-3, run_t_end=2.0, run_stride=20,
             **{"pair.gaps": (1e-3,), "pair.killing_free": True}),
        [chk_lambda_bounded, chk_no_crossing(NORM_FLOOR)]),

    Scenario(
        "solutions_do_not_cross",
        "two distinct trajectories never intersect: their gap stays strictly "
        "positive for all time",
        "pair",
        _cfg(geometry_L=8, forcing_tag="f2_minus", forcing_mode_l=2,
             forcing_mode_m=1, init_kind="random", init_l_max=4,
             init_norm_killing=0.5, init_norm_nonkilling=0.8,
             run_dt=1e-3, run_t_end=1.5, run_stride=30,
             **{"pair.gaps": (0.5,)}),
        [chk_no_crossing(1e-3)]),

    Scenario(
        "insta_regularity",
        "weak data regularizes instantly: the H1 norm is uniformly bounded "
        "past any positive time under the sign-favorable catalog forcing",
        "single",
        _cfg(geometry_L=12, geometry_radius=2.0, nu_value=5.0,
             forcing_tag="f5", init_kind="random",
             init_norm_killing=0.5, init_norm_nonkilling=1.5,
             run_dt=1e-3, run_t_end=2.0, run_stride=20),
        [chk_h1_regularization, chk_ledger(1e-6), chk_enstrophy_orthogonal,
         chk_nk_envelope]),

    Scenario(
        "f5_absorbing",
        "the catalog forcing with dissipative Killing sign contracts the "
        "Killing energy exponentially and traps the non-Killing energy in "
        "a bounded absorbing ball",
        "single",
        _cfg(geometry_L=10, geometry_radius=2.0, nu_value=5.0,
             forcing_tag="f5", init_kind="random", init_l_max=5,
             init_norm_killing=1.0, init_norm_nonkilling=1.0,
             run_dt=5e-4, run_t_end=2.0, run_stride=40),
        [chk_exponential_killing(-1.0), chk_monotone("nonincreasing"),
         chk_final_nk_below, chk_nk_envelope]),

    Scenario(
        "torus_static",
        "the torus carries exactly one Killing direction (azimuthal "
        "rotation) with vanishing strain, exact area, and a finite "
        "truncated Korn constant",
        "static",
        _cfg(geometry_kind="torus", **{"geometry.n_pol": 64,
                                       "geometry.n_tor": 64,
                                       "geometry.major": 2.0,
                                       "geometry.minor": 0.5}),
        [chk_torus_static]),

    Scenario(
        "korn_sphere",
        "the truncated Korn constant converges in the truncation degree and "
        "the inequality holds on random non-Killing samples",
        "static",
        _cfg(geometry_L=16),
        [chk_korn_convergence]),
)

_REGISTRY = {s.name: s for s in _SCENARIOS}


def list_scenarios():
    """Names and claims of the built-in scenarios."""
    return [(name, _REGISTRY[name].claims) for name in sorted(_REGISTRY)]


def get_scenario(name):
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[name]


def run_scenario(name, out_dir=None, seed=None, quiet=False):
    """Execute a built-in scenario by name; returns its RunReport."""
    return execute_scenario(get_scenario(name), out_dir=out_dir, seed=seed,
                            quiet=quiet)
