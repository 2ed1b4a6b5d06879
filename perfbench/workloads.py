"""The benchmark's workloads, driven through surfns' public API and CLI.

Each workload turns the benchmark seed into its inputs, has a set-up phase
(the contexts the program builds before its first step or solve) and a main
phase, and verifies the program's output with its own checks.

    suite        all built-in scenarios via run_scenario, writing CSVs
    highres_l32  one nonlinear IMEX-CNAB2 trajectory at L = 32 (f5 forcing)
    spectral_l32 the static-analysis commands of cli.main (spectrum, korn)

This module only defines the work; worker.py runs it in a fresh process.
"""

import contextlib
import gc
import io
import math
import os
import random
import time


def derived_seed(workload, seed):
    """Deterministic program seed for a workload and benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2 ** 31)


class Check:
    """One verification check made by the benchmark or by the program."""

    def __init__(self, name, passed, measured=float("nan"), bound=float("nan"),
                 detail=""):
        self.name = name
        self.passed = bool(passed)
        self.measured = float(measured)
        self.bound = float(bound)
        self.detail = detail

    def to_dict(self):
        def num(x):
            return x if math.isfinite(x) else None
        return {"name": self.name, "passed": self.passed,
                "measured": num(self.measured), "bound": num(self.bound),
                "detail": self.detail}


def _rel_check(name, measured, bound, detail=""):
    return Check(name, math.isfinite(measured) and measured <= bound,
                 measured, bound, detail)


class Outcome:
    """What a workload's main phase produced."""

    def __init__(self):
        self.checks = []
        self.errors = []
        self.steps = 0
        self.csv_bytes = 0
        self.setup_s = None     # set-up inside the run, where it is separate
        self.solve_s = 0.0      # main phase, before the benchmark verifies
        self.solve_total_s = None

    def fail(self, where, exc, n_checks=1):
        """Record an exception as ``n_checks`` failed checks."""
        msg = f"{where}: {type(exc).__name__}: {exc}"
        self.errors.append(msg)
        for i in range(n_checks):
            self.checks.append(Check(f"{where}.error{i}", False, detail=msg))


def _csv_rows(path):
    """Data rows of a CSV written by the program; every value must parse."""
    rows = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.startswith("#"):
                continue
            vals = [float(v) for v in line.strip().split(",")]
            if len(vals) != len(header):
                raise ValueError(f"{os.path.basename(path)}: ragged row")
            rows += 1
    return rows


# ---------------------------------------------------------------------------
# suite: the verification campaign


class Suite:
    """All built-in scenarios, one after another, with CSVs and reports."""

    name = "suite"
    setup_reps = 5
    n_checks = 38           # scenario checks at the time of writing

    def __init__(self, seed):
        from surfns.scenarios import list_scenarios
        self.seed = derived_seed(self.name, seed)
        self.names = [n for n, _ in list_scenarios()]

    def setup(self, workdir):
        """Build every scenario's context plus the spectral radius its scheme
        needs, as execute_scenario and the first step would."""
        from surfns.harness import build_context
        from surfns.scenarios import get_scenario
        for name in self.names:
            cfg = dict(get_scenario(name).config)
            cfg["seed"] = self.seed
            ctx = build_context(cfg)
            if ctx.form is not None and get_scenario(name).kind != "static":
                if cfg["run.scheme"] == "rk4":
                    ctx.form.rho_full()
                else:
                    ctx.form.rho_explicit()

    def run(self, workdir, tracer=None):
        from surfns.scenarios import get_scenario, run_scenario
        out = Outcome()
        out_dir = os.path.join(workdir, "suite")
        for k, name in enumerate(self.names):
            if tracer is not None:
                tracer.run_id = k
            sc = get_scenario(name)
            t0 = time.perf_counter()
            try:
                report = run_scenario(name, out_dir=out_dir, seed=self.seed,
                                      quiet=True)
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                out.solve_s += time.perf_counter() - t0
                out.fail(name, exc, n_checks=len(sc.checks))
                continue
            out.solve_s += time.perf_counter() - t0
            for c in report.checks:
                out.checks.append(Check(f"{name}.{c.name}", c.passed,
                                        c.measured, c.tol, c.detail))
            try:
                self._verify_files(out_dir, name, out)
            except (OSError, ValueError) as exc:
                out.fail(f"{name}.files", exc)
        return out

    @staticmethod
    def _verify_files(out_dir, name, out):
        """The report exists and every CSV of the scenario parses."""
        import json
        with open(os.path.join(out_dir, f"{name}_report.json"),
                  encoding="utf-8") as fh:
            if json.load(fh)["scenario"] != name:
                raise ValueError("report names another scenario")
        for fn in sorted(os.listdir(out_dir)):
            if fn.startswith(name) and fn.endswith(".csv"):
                path = os.path.join(out_dir, fn)
                if _csv_rows(path) < 1:
                    raise ValueError(f"{fn}: no data rows")
                out.csv_bytes += os.path.getsize(path)


# ---------------------------------------------------------------------------
# highres_l32: one long-ish trajectory at high truncation


class HighresL32:
    """Nonlinear IMEX-CNAB2 trajectory at L = 32 with the f5 forcing."""

    name = "highres_l32"
    setup_reps = 3
    n_checks = 2
    L = 32
    dt = 5e-4
    n_steps = 80
    stride = 10

    def __init__(self, seed):
        from surfns.harness import default_config
        cfg = default_config()
        cfg.update({
            "geometry.L": self.L, "nu.kind": "linear_x3", "nu.value": 1.0,
            "nu.a": 0.5, "forcing.tag": "f5", "init.kind": "random",
            "init.norm_killing": 0.5, "init.norm_nonkilling": 1.0,
            "run.scheme": "imex_cnab2", "run.dt": self.dt,
            "run.t_end": self.n_steps * self.dt, "run.stride": self.stride,
            "seed": derived_seed(self.name, seed)})
        self.cfg = cfg
        self.ctx = None

    def setup(self, workdir):
        """Context (grid, tables, Stokes assembly, Killing basis, forcing,
        initial state) and the spectral radius the first step checks."""
        from surfns.harness import build_context
        self.ctx = None
        gc.collect()
        self.ctx = build_context(self.cfg)
        self.ctx.form.rho_explicit()

    def run(self, workdir, tracer=None):
        import numpy as np
        from surfns import diagnostics
        from surfns.harness import stepper_config, write_csv
        from surfns.timestepper import run
        out = Outcome()
        t0 = time.perf_counter()
        try:
            self.setup(workdir)
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            out.fail("setup", exc, n_checks=self.n_checks)
            return out
        out.setup_s = time.perf_counter() - t0
        ctx = self.ctx
        stamps = []

        def timed_record(*args):
            rec = diagnostics.record(*args)
            stamps.append(time.perf_counter())
            return rec

        t0 = time.perf_counter()
        try:
            _, records = run(stepper_config(self.cfg), ctx.grid, ctx.form,
                             ctx.fspec, ctx.u0, record_fn=timed_record)
            path = os.path.join(workdir, f"{self.name}.csv")
            write_csv(path, records, ctx.basis.n)
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            out.solve_s = time.perf_counter() - t0
            out.fail(self.name, exc, n_checks=self.n_checks)
            return out
        out.solve_total_s = time.perf_counter() - t0
        # The trajectory's time at the median pace of its stride intervals:
        # the tables are about the size of the shared last-level cache, so
        # single intervals slow down whenever other tenants use it.
        intervals = np.diff(stamps)
        out.solve_s = float(np.median(intervals)) * intervals.size
        out.steps = self.n_steps
        ledger = max(abs(r.energy_residual) / max(r.energy, 1.0) for r in records)
        out.checks.append(_rel_check("energy_ledger", ledger, 1e-6,
                                     "|E-E0+int D-int W| / max(E, 1)"))
        # f5 makes the Killing part obey ||u_K(t)|| = e^{-t} ||u_K(0)||
        a0 = records[0].norm_uK
        dev = max(abs(r.norm_uK - a0 * np.exp(-(r.t - records[0].t)))
                  for r in records) / a0
        out.checks.append(_rel_check("killing_exponential_law", dev, 1e-6,
                                     "||u_K(t)|| = e^-t ||u_K(0)||"))
        try:
            rows = _csv_rows(path)
            if rows != len(records):
                raise ValueError(f"{rows} CSV rows for {len(records)} records")
            out.csv_bytes = os.path.getsize(path)
        except (OSError, ValueError) as exc:
            out.fail("csv", exc)
        return out


# ---------------------------------------------------------------------------
# spectral_l32: static analysis through the CLI


class SpectralL32:
    """`spectrum` and `korn` on the L = 32 sphere and `korn` on a torus."""

    name = "spectral_l32"
    setup_reps = 5
    n_checks = 3
    L = 32

    def __init__(self, seed):
        rng = random.Random(derived_seed(self.name, seed))
        # the viscosity amplitude varies the assembled spectrum, not the work
        self.nu_a = round(rng.uniform(0.3, 0.7), 6)
        self.configs = {
            "spectrum": (f"geometry.L = {self.L}\nnu.kind = linear_x3\n"
                         f"nu.value = 1.0\nnu.a = {self.nu_a!r}\n"),
            "korn_sphere": f"geometry.L = {self.L}\n",
            "korn_torus": ("geometry.kind = torus\ngeometry.major = 2.0\n"
                           "geometry.minor = 0.5\ngeometry.n_pol = 64\n"
                           "geometry.n_tor = 64\n"),
        }

    def _write_configs(self, workdir):
        paths = {}
        for key, text in self.configs.items():
            paths[key] = os.path.join(workdir, f"{key}.cfg")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths

    def setup(self, workdir):
        """The context `spectrum` builds before it solves: L = 32 grid and
        tables and both Stokes assemblies.  The `korn` contexts repeat a
        subset of this work (the torus one takes milliseconds)."""
        from surfns.harness import build_context, load_config
        ctx = build_context(load_config(self._write_configs(workdir)["spectrum"]))
        del ctx
        gc.collect()

    def run(self, workdir, tracer=None):
        from surfns.cli import main
        out = Outcome()
        paths = self._write_configs(workdir)
        commands = [("spectrum", ["spectrum", paths["spectrum"]], self._check_spectrum),
                    ("korn_sphere", ["korn", paths["korn_sphere"]], self._check_korn_sphere),
                    ("korn_torus", ["korn", paths["korn_torus"]], self._check_korn_torus)]
        t0 = time.perf_counter()
        for k, (key, argv, check) in enumerate(commands):
            if tracer is not None:
                tracer.run_id = k
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
                if rc != 0:
                    raise RuntimeError(f"exit code {rc}")
                out.checks.append(check(buf.getvalue().splitlines()))
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                out.fail(key, exc)
        out.solve_s = time.perf_counter() - t0
        return out

    def _check_spectrum(self, lines):
        # unit-viscosity eigenvalues on the unit sphere: l(l+1) - 2
        worst = 0.0
        for l in range(1, self.L + 1):
            deg, val = lines[l - 1].split()
            if int(deg) != l:
                raise ValueError(f"spectrum line {l} names degree {deg}")
            exact = l * (l + 1) - 2.0
            worst = max(worst, abs(float(val) - exact) / max(exact, 1.0))
        n_eig = sum(1 for s in lines[self.L:] if not s.startswith("#"))
        ok = n_eig == self.L * (self.L + 2)
        res = _rel_check("lambda_l_closed_form", worst, 1e-10,
                         "lambda_l = l(l+1) - 2")
        if not ok:
            res.passed = False
            res.detail = f"{n_eig} assembled eigenvalues, expected {self.L * (self.L + 2)}"
        return res

    def _check_korn_sphere(self, lines):
        vals = {}
        for s in lines:
            lpart, cpart = s.split()
            vals[int(lpart.split("=")[1])] = float(cpart.split("=")[1])
        if self.L not in vals:
            raise ValueError(f"no C_P reported for L = {self.L}")
        rel = abs(vals[self.L] - math.sqrt(3.0)) / math.sqrt(3.0)
        return _rel_check("korn_sphere_sqrt3", rel, 1e-10,
                          f"C_P({self.L}) = sqrt(3) on the unit sphere")

    @staticmethod
    def _check_korn_torus(lines):
        c_p = float(lines[-1].split("=")[1])
        return Check("korn_torus_finite", math.isfinite(c_p) and c_p > 1.0,
                     c_p, 1.0, "torus C_P finite and > 1")


WORKLOADS = {w.name: w for w in (Suite, HighresL32, SpectralL32)}
