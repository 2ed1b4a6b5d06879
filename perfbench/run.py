"""surfns benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's ``src`` directory.  Every workload runs in fresh child
processes (perfbench/worker.py), each a single-threaded closed-loop caller:
the BLAS thread count of the children is pinned to BLAS_THREADS.

--trace 0  One set-up probe process times the workload's set-up several
           times (setup_s is their median).  Then fresh run processes are
           started one after another until S seconds have passed (at least
           one); wall_s, solve_s and peak_rss_mb are medians over them.
--trace 1  One untraced and one traced run process; prints the per-layer
           metrics of the traced one and the tracing overhead (traced minus
           untraced wall_s).  Span arrays and the per-L breakdown are kept
           under .bench_out/trace/.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  ``attempted``/``failed`` count verification checks, so
checks_failed_frac = failed / attempted.  A failed check, an exception or a
divergence in a workload is a failed check; it never stops the others.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: the workloads model a single-threaded caller, and with
# two threads on a two-core machine set-up times spread about three times
# wider between runs.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0        # every run ends well inside 180 s
MIN_SECONDS_LEFT = 1.3      # start another run process only if 1.3 times
                            # the longest one so far fits in TIME_LIMIT_S

COUNT_METRICS = ("timestepper.steps", "timestepper.rhs_evals",
                 "forcing.apply.calls", "diagnostics.record.calls",
                 "harmonics.spectral_states", "harmonics.get_transform.builds",
                 "harmonics.table_bytes", "operators.convective_term.calls",
                 "harmonics.synthesize.calls", "harmonics.analyze.calls",
                 "geometry.quadrature.calls", "harness.csv_bytes")


# ---------------------------------------------------------------------------
# contract self-checks

def check_result(result, expected):
    """Problems with the result line against the contract.

    ``expected`` maps metric name to unit for the metrics of this mode.
    """
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        bad.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            bad.append(f"{k} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        bad.append("attempted must be at least 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        bad.append(f"metrics {sorted(set(metrics) ^ set(expected))} "
                   "missing or unexpected")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            bad.append(f"{name}: must be {{value, unit={expected.get(name)}}}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            bad.append(f"{name}: value {v!r} is not a finite number")
    return bad


# ---------------------------------------------------------------------------
# environment


def _git_revision(root):
    """Commit of the checkout from .git, without running git; None outside
    a git repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(root):
    """sha256 over the package sources, a revision that needs no git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "surfns")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            h.update(fn.encode())
            with open(os.path.join(pkg, fn), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["SURFNS_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def environment(root, seed, env):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "SURFNS_THREADS": env["SURFNS_THREADS"],
        "blas_threads_set": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# child processes


class Children:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root, workdir, workload, seed, deadline):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env(root)
        self.count = 0
        self.errors = []
        self.runtime = {}       # versions and BLAS as a child reported them

    def start(self, mode, reps=0):
        """Run one worker to completion; returns (result dict, wall_s)."""
        self.count += 1
        tag = f"{mode}{self.count:02d}"
        result_path = os.path.join(self.workdir, f"{tag}.json")
        log_path = os.path.join(self.workdir, f"{tag}.log")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
                self.workload, str(self.seed), self.workdir, result_path,
                str(reps)]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_exit = time.monotonic()
        res = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
        if res is None or "fatal" in res or proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            why = (res or {}).get("fatal") or tail or f"exit code {proc.returncode}"
            if proc.returncode == -9:
                why = f"killed after {timeout:.0f} s time limit\n" + why
            self.errors.append(f"{tag}: {why.strip()}")
            return None, t_exit - t_spawn
        self.runtime = self.runtime or res.get("runtime", {})
        src = os.path.join(self.root, "src") + os.sep
        if not res["surfns_file"].startswith(src):
            self.errors.append(f"{tag}: surfns imported from "
                               f"{res['surfns_file']}, not from the checkout")
            return None, t_exit - t_spawn
        return res, res.get("t_verified", t_exit) - t_spawn


def _checks(results):
    attempted = failed = 0
    failures = []
    for res in results:
        for c in res["checks"]:
            attempted += 1
            if not c["passed"]:
                failed += 1
                failures.append(f"{c['name']}: measured {c['measured']} "
                                f"bound {c['bound']} {c['detail']}")
    return attempted, failed, failures


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# modes


def measure(ch, wl_cls, seconds):
    """End-to-end metrics: one set-up probe, then run processes for S s."""
    probe, _ = ch.start("setup", reps=wl_cls.setup_reps)
    setup = list(probe["setup_s"]) if probe else []
    runs, walls, dead = [], [], 0
    t0 = time.monotonic()
    last = 0.0
    while True:
        res, wall = ch.start("run")
        last = max(last, wall)
        if res is None:
            dead += 1
        else:
            runs.append(res)
            walls.append(wall)
        now = time.monotonic()
        if now - t0 >= seconds or ch.deadline - now < MIN_SECONDS_LEFT * last:
            break
    # a run process that sets up on its own gives one more set-up sample
    setup += [r["setup_s"] for r in runs if r["setup_s"] is not None]
    attempted, failed, failures = _checks(runs)
    # a run process that died is charged the checks it would have made
    attempted += dead * WORKLOADS[ch.workload].n_checks
    failed += dead * WORKLOADS[ch.workload].n_checks
    if probe is None:
        attempted += 1
        failed += 1
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup),
        "solve_s": _median([r["solve_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }
    samples = {"wall_s": walls, "setup_s": setup,
               "solve_s": [r["solve_s"] for r in runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    steps = [r["steps"] / r["solve_s"] for r in runs
             if r["steps"] and r["solve_s"] > 0]
    detail = {"samples": samples, "runs": runs,
              "steps_per_s_of_solve": steps, "failures": failures}
    return metrics, attempted, failed, detail


def traced(ch, outdir):
    """Per-layer metrics: one untraced and one traced run process."""
    plain, wall_plain = ch.start("run")
    res, wall_traced = ch.start("trace")
    runs = [r for r in (plain, res) if r is not None]
    attempted, failed, failures = _checks(runs)
    for r in (plain, res):
        if r is None:
            attempted += WORKLOADS[ch.workload].n_checks
            failed += WORKLOADS[ch.workload].n_checks
    layers = dict(res["layers"]) if res else {}
    if res and plain:
        layers["trace.overhead_s"] = wall_traced - wall_plain
    detail = {"wall_s_untraced": wall_plain, "wall_s_traced": wall_traced,
              "failures": failures}
    if res:
        detail.update(by_L=res["by_L"], bindings=res["bindings"],
                      n_spans=res["n_spans"], peak_rss_mb=res["peak_rss_mb"])
        trace_dir = os.path.join(outdir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        previous = os.path.join(trace_dir, f"{ch.workload}.json")
        counts = {k: layers[k] for k in COUNT_METRICS if k in layers}
        if os.path.exists(previous):
            with open(previous, encoding="utf-8") as fh:
                before = json.load(fh)
            # CSV text length depends on the data, so on the seed
            same_seed = before.get("seed") == ch.seed
            detail["counts_differing_from_previous_trace"] = {
                k: [before["counts"].get(k), v] for k, v in counts.items()
                if before["counts"].get(k) != v
                and (same_seed or k != "harness.csv_bytes")}
        with open(previous, "w", encoding="utf-8") as fh:
            json.dump({"seed": ch.seed, "counts": counts, "layers": layers,
                       "by_L": res["by_L"]}, fh, indent=1, sort_keys=True)
        spans = os.path.join(ch.workdir, f"trace{ch.count:02d}.spans.npz")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(trace_dir, f"{ch.workload}.spans.npz"))
        detail["scaling"] = scaling(trace_dir)
    return layers, attempted, failed, detail


def scaling(trace_dir):
    """Fitted exponent in L of per-call times and table bytes, over the
    per-L breakdowns of every workload traced into ``trace_dir``."""
    by_L_list, sources = [], []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.endswith(".json"):
            with open(os.path.join(trace_dir, fn), encoding="utf-8") as fh:
                by_L_list.append(json.load(fh)["by_L"])
            sources.append(fn[:-5])
    import tracing
    out = {"sources": sources}
    for label in list(tracing.BY_L) + ["harmonics.table_bytes"]:
        p, Ls = tracing.fit_exponent(by_L_list, label)
        out[label] = {"exponent": p, "L": Ls}
    return out


# ---------------------------------------------------------------------------


def _print_report(workload, seed, trace, env_info, metrics, attempted, failed,
                  detail, errors):
    print(f"# surfns benchmark: workload {workload}, seed {seed}, trace {trace}")
    print("# environment: " + json.dumps(env_info, sort_keys=True))
    if not trace:
        for k, xs in detail["samples"].items():
            print(f"#   {k:12s} median {metrics[k]:.6g} over n={len(xs)}: "
                  + ", ".join(f"{x:.4g}" for x in xs))
        if detail["steps_per_s_of_solve"]:
            print("#   trajectory-steps per second of solve: "
                  + ", ".join(f"{x:.4g}" for x in detail["steps_per_s_of_solve"]))
    else:
        print(f"#   wall_s untraced {detail['wall_s_untraced']:.4g}, "
              f"traced {detail['wall_s_traced']:.4g}")
        for k in sorted(metrics):
            print(f"#   {k:40s} {metrics[k]:.6g}")
        for label, rows in detail.get("by_L", {}).items():
            print(f"#   by L {label}: " + json.dumps(rows, sort_keys=True))
        if "scaling" in detail:
            print("#   scaling: " + json.dumps(detail["scaling"], sort_keys=True))
        diff = detail.get("counts_differing_from_previous_trace")
        if diff is not None:
            print("#   counts differing from the previous traced run: "
                  + (json.dumps(diff) if diff else "none"))
    frac = failed / attempted if attempted else 1.0
    print(f"#   checks_failed_frac {frac:.4g} ({failed} of {attempted})")
    for f in detail.get("failures", []):
        print(f"#   FAILED {f}")
    for e in errors:
        print("#   ERROR " + e.replace("\n", "\n#     "))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.monotonic()
    # exit through ``finally`` blocks, which stop the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.path.dirname(HERE)

    spec_path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "surfns", "__init__.py")):
        print(f"error: no surfns sources under {root}/src", file=sys.stderr)
        return 2

    outdir = os.path.join(root, ".bench_out")
    workdir = os.path.join(outdir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ch = Children(root, workdir, args.workload, args.seed,
                  t_begin + TIME_LIMIT_S)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(ch, outdir)
            want = spec["per_layer"]
        else:
            metrics, attempted, failed, detail = measure(
                ch, WORKLOADS[args.workload], args.seconds)
            want = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_info = environment(root, args.seed, ch.env)
    env_info.update(ch.runtime)
    if attempted == 0:      # nothing was verified
        attempted = failed = 1
    result = {
        "correct": failed == 0 and not ch.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in want},
    }
    os.makedirs(os.path.join(outdir, "results"), exist_ok=True)
    with open(os.path.join(outdir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "environment": env_info, "detail": detail,
                   "errors": ch.errors}, fh, indent=1, sort_keys=True)
    _print_report(args.workload, args.seed, args.trace, env_info, metrics,
                  attempted, failed, detail, ch.errors)
    bad = check_result(result, {m["name"]: m["unit"] for m in want})
    if bad:
        print("error: result fails its schema: " + "; ".join(bad), file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
