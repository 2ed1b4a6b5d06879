"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a pass/fail line (collected in the terminal summary) and
enforces its runtime budget.  Tolerances are pinned here, not configurable.
"""

import os
import time

import numpy as np

from conftest import acceptance_line, mode_row
import nodal_oracle as nodal

from surfns import cli
from surfns import geometry as geo
from surfns.diagnostics import check_monotonicity, fit_decay_rate
from surfns.forcing import make_catalog_forcing
from surfns.harmonics import SpectralState, SphereTransform, random_band_limited
from surfns.harness import (default_config, load_checkpoint, run_ensemble,
                            save_checkpoint, stepper_config)
from surfns.killing import killing_basis, korn_constant
from surfns.operators import assemble_stokes
from surfns.scenarios import get_scenario, run_scenario
from surfns.timestepper import run as run_simulation


def _finish(num, name, t0, budget, conditions):
    elapsed = time.monotonic() - t0
    ok = all(conditions.values()) and elapsed < budget
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in conditions.items())
    acceptance_line(f"ACCEPTANCE {num:2d} {name}: "
                    f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s < {budget}s) [{detail}]")
    assert ok, f"{name}: {detail}, elapsed {elapsed:.1f}s (budget {budget}s)"


def test_acceptance_01_killing_exactness():
    t0 = time.monotonic()
    conds = {}
    g32 = geo.build_sphere_grid(32, 1.0)
    kb = killing_basis(g32)
    conds["sphere_dim_3"] = kb.n == 3
    worst = max(nodal.strain_norm(g32, v) / nodal.h1_norm(g32, v) for v in kb.fields)
    conds["sphere_strain_1e-9"] = worst <= 1e-9

    torus = geo.build_torus_grid(64, 64, 2.0, 0.5)
    kt = killing_basis(torus)
    conds["torus_dim_1"] = kt.n == 1
    resid = geo.strain_norm(torus, kt.fields[0]) / geo.h1_norm(torus, kt.fields[0])
    conds["torus_strain_1e-9"] = resid <= 1e-9
    _finish(1, "killing-exactness", t0, 5.0, conds)


def test_acceptance_02_free_decay_eigenlaw():
    t0 = time.monotonic()
    rep = run_scenario("free_decay_l2", quiet=True)
    conds = {c.name: c.passed for c in rep.checks}
    _finish(2, "free-decay-eigenlaw", t0, 10.0, conds)


def test_acceptance_03_constant_killing_growth():
    t0 = time.monotonic()
    g = geo.build_sphere_grid(8, 1.0)
    kb = killing_basis(g)
    form = assemble_stokes(g, geo.ViscosityField(g, 1.0), 8)
    spec = make_catalog_forcing("constant_killing", {"c": 1.0, "axis": 0}, kb)
    cfg = default_config()
    cfg.update({"run.dt": 1e-3, "run.t_end": 2.0, "run.stride": 50})
    _, records = run_simulation(stepper_config(cfg), g, form, spec,
                                SpectralState(8))
    conds = {}
    for target in (0.5, 1.0, 2.0):
        rec = min(records, key=lambda r: abs(r.t - target))
        conds[f"alpha_t{target}"] = abs(rec.alpha[0] - rec.t) <= 1e-8
        conds[f"uK_sq_t{target}"] = abs(rec.norm_uK ** 2 - rec.t ** 2) <= 1e-6
    _finish(3, "constant-killing-growth", t0, 10.0, conds)


def test_acceptance_04_sign_conditioned_monotonicity():
    t0 = time.monotonic()
    g = geo.build_sphere_grid(8, 1.0)
    kb = killing_basis(g)
    form = assemble_stokes(g, geo.ViscosityField(g, 1.0), 8)
    u0 = SpectralState(8)
    u0.coeffs[:3] = [0.6, 0.0, 0.8]
    conds = {}
    for tag, direction, factor in (("f3_minus", "nonincreasing", np.exp(-1.0)),
                                   ("f3_plus", "nondecreasing", np.exp(1.0))):
        t_leg = time.monotonic()
        spec = make_catalog_forcing(tag, {}, kb)
        cfg = default_config()
        cfg.update({"run.dt": 5e-4, "run.t_end": 1.0, "run.stride": 40})
        _, records = run_simulation(stepper_config(cfg), g, form, spec, u0)
        dev = abs(records[-1].norm_uK - factor * records[0].norm_uK)
        conds[f"{tag}_law_1e-6"] = dev / records[0].norm_uK <= 1e-6
        conds[f"{tag}_monotone"] = check_monotonicity(records, direction).ok
        conds[f"{tag}_runtime"] = time.monotonic() - t_leg < 10.0
    _finish(4, "sign-conditioned-monotonicity", t0, 25.0, conds)


def test_acceptance_05_killing_conservation():
    t0 = time.monotonic()
    g = geo.build_sphere_grid(8, 1.0)
    tr = SphereTransform(g, 8)
    kb = killing_basis(g)
    form = assemble_stokes(g, geo.ViscosityField(g, 1.0), 8)
    spec = make_catalog_forcing("constant_field",
                                {"g": mode_row(tr.L, 2, 0)}, kb)
    u0 = random_band_limited(tr, 1234, l_max=4, norm_killing=0.7,
                             norm_nonkilling=0.5)
    cfg = default_config()
    cfg.update({"run.dt": 1e-3, "run.t_end": 5.0, "run.stride": 250})
    _, records = run_simulation(stepper_config(cfg), g, form, spec, u0)
    drift = np.abs(records[-1].alpha - records[0].alpha).max()
    _finish(5, "killing-conservation", t0, 20.0, {"alpha_drift_1e-10": drift <= 1e-10})


def test_acceptance_06_energy_balance_variable_viscosity():
    t0 = time.monotonic()
    rep = run_scenario("varnu_energy_balance", quiet=True)
    conds = {c.name: c.passed for c in rep.checks}
    _finish(6, "energy-balance-variable-viscosity", t0, 30.0, conds)


def test_acceptance_07_exponential_nonkilling_decay():
    t0 = time.monotonic()
    cfg = get_scenario("free_decay_ensemble").config
    ens = run_ensemble(dict(cfg))
    g = geo.build_sphere_grid(cfg["geometry.L"], cfg["geometry.radius"])
    form = assemble_stokes(g, geo.ViscosityField(g, 1.0), cfg["geometry.L"])
    lam2 = form.lam_by_degree[2]
    nk_max = ens.aggregates["norm_uNK"]["max"]
    zeta, _ = fit_decay_rate(ens.times, nk_max ** 2, window=(1.0, 3.0))
    conds = {
        "zeta_ge_0.99x2lam2": zeta >= 2 * lam2 * 0.99,
        "omega_le_1e-10": ens.omega_hat <= 1e-10,
        "max_member_monotone": bool(np.all(np.diff(nk_max) < 0)),
    }
    _finish(7, "exponential-nonkilling-decay", t0, 60.0, conds)


def test_acceptance_08_korn_constant():
    t0 = time.monotonic()
    g32 = geo.build_sphere_grid(32, 1.0)
    c_p16 = korn_constant(g32, 16)
    c_p32 = korn_constant(g32, 32)
    conds = {"cp_convergence_1pct": abs(c_p16 - c_p32) <= 1e-2 * c_p32}
    tr = SphereTransform(g32, 32)
    worst = 0.0
    for i in range(100):
        s = random_band_limited(tr, 40_000 + i, norm_killing=0.0)
        v = tr.synthesize(s)
        worst = max(worst, nodal.h1_norm(g32, v)
                    / (c_p32 * nodal.strain_norm(g32, v)))
    conds["inequality_100_samples"] = worst <= 1.0 + 1e-8
    _finish(8, "korn-constant", t0, 60.0, conds)


def test_acceptance_09_continuous_dependence():
    t0 = time.monotonic()
    rep = run_scenario("contdep_gaps", quiet=True)
    conds = {c.name: c.passed for c in rep.checks}
    _finish(9, "continuous-dependence", t0, 60.0, conds)


def test_acceptance_10_backward_uniqueness_probe():
    t0 = time.monotonic()
    rep = run_scenario("backward_uniqueness_probe", quiet=True)
    conds = {c.name: c.passed for c in rep.checks}
    _finish(10, "backward-uniqueness-probe", t0, 60.0, conds)


def test_acceptance_11_infrastructure(tmp_path):
    t0 = time.monotonic()
    conds = {}
    g = geo.build_sphere_grid(8, 1.0)
    tr = SphereTransform(g, 8)

    rng = np.random.default_rng(0)
    s = SpectralState(8, rng.standard_normal(tr.n_modes))
    err = np.abs(tr.analyze(tr.synthesize(s)).coeffs - s.coeffs).max()
    conds["round_trip_1e-12"] = err <= 1e-12

    worst = 0.0
    for i in range(20):
        si = random_band_limited(tr, 100 + i)
        u = tr.synthesize(si)
        worst = max(worst, abs(geo.l2_inner(g, u, u) - np.linalg.norm(si.coeffs) ** 2)
                    / np.linalg.norm(si.coeffs) ** 2)
    conds["parseval_1e-10"] = worst <= 1e-10

    path = tmp_path / "acc.snsk"
    s.t = 1.5
    save_checkpoint(s, g, str(path))
    _, back = load_checkpoint(str(path))
    conds["checkpoint_bit_exact"] = (np.array_equal(back.coeffs, s.coeffs)
                                     and back.t == 1.5)

    cfgfile = tmp_path / "acc.cfg"
    cfgfile.write_text("geometry.L = 8\ninit.kind = random\n"
                       "init.norm_killing = 0.4\ninit.norm_nonkilling = 1.0\n"
                       "run.t_end = 0.5\nrun.stride = 10\nensemble.members = 4\n")
    blobs, codes = [], []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        codes.append(cli.main(["--out", str(out), "--threads", str(threads),
                               "--quiet", "ensemble", str(cfgfile)]))
        blobs.append(b"".join((out / p).read_bytes()
                              for p in sorted(os.listdir(out))
                              if p.startswith("ensemble_member")))
    conds["csv_identical_threads"] = codes == [0, 0] and blobs[0] == blobs[1]
    _finish(11, "infrastructure", t0, 10.0, conds)
