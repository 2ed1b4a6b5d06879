"""One fresh benchmark process: a set-up probe or one run of a workload.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR RESULT_JSON [REPS]

MODE is ``setup`` (time the workload's set-up REPS times), ``run`` (run
the workload, which sets up what it needs, and verify) or ``trace`` (``run``
with per-layer tracing installed).  run.py starts this script with the
environment that pins the BLAS thread count and puts the checkout's ``src``
on the path; the result goes to RESULT_JSON, never to stdout, which the
program may use.
"""

import gc
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runtime():
    """Versions, BLAS library and the BLAS thread count actually in effect."""
    import ctypes
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh
                       if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads[os.path.basename(path)] = int(fn())
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_in_effect": threads}


def _setup_probe(wl, workdir, reps):
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(workdir)
        times.append(time.perf_counter() - t0)
    return {"setup_s": times}


def _run(wl, workdir, traced):
    import tracing
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    out = wl.run(workdir, tracer)
    t_verified = time.monotonic()
    res = {
        "t_verified": t_verified,
        "setup_s": out.setup_s,
        "solve_s": out.solve_s,
        "solve_total_s": out.solve_total_s,
        "steps": out.steps,
        "csv_bytes": out.csv_bytes,
        "checks": [c.to_dict() for c in out.checks],
        "errors": out.errors,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.finish()
        sp = tracer.arrays()
        metrics, by_L = tracing.summarize(sp, tracer.spectral_states,
                                          tracer.transforms)
        metrics["harness.csv_bytes"] = out.csv_bytes
        res["layers"] = metrics
        res["by_L"] = by_L
        res["bindings"] = tracer.bindings
        res["n_spans"] = int(sp["start"].size)
        res["spans"] = sp
    return res


def main(argv):
    mode, name, seed, workdir, result_path = argv[:5]
    t_start = time.monotonic()
    import surfns
    from workloads import WORKLOADS
    res = {"mode": mode, "workload": name, "t_start": t_start,
           "surfns_file": os.path.abspath(surfns.__file__)}
    try:
        wl = WORKLOADS[name](int(seed))
        if mode == "setup":
            res.update(_setup_probe(wl, workdir, int(argv[5])))
        else:
            res.update(_run(wl, workdir, traced=(mode == "trace")))
        res["runtime"] = _runtime()
    except Exception:  # noqa: BLE001 - the parent records it
        res["fatal"] = traceback.format_exc()
    spans = res.pop("spans", None)
    if spans is not None:
        import numpy as np
        np.savez_compressed(result_path[:-len(".json")] + ".spans.npz",
                            names=np.array(spans.pop("names")), **spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0 if "fatal" not in res else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
