"""Digest every built-in scenario of a checkout: the sha256 of each CSV it
writes and each report's checks, as one JSON object on stdout.

    python tools/scenario_digest.py CHECKOUT --seeds 7 3 11

The scenarios run from ``CHECKOUT/src`` in a temporary directory.  Two
checkouts behave the same when their digests are identical, so a
byte-identity gate is one diff:

    python tools/scenario_digest.py old --seeds 7 3 11 > old.json
    python tools/scenario_digest.py new --seeds 7 3 11 > new.json
    diff old.json new.json

A report's ``wall_time_s`` is left out; every other field is kept.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile


def digest(checkout, seeds):
    src = os.path.abspath(os.path.join(checkout, "src"))
    sys.path.insert(0, src)
    from surfns.scenarios import list_scenarios, run_scenario
    if not os.path.abspath(sys.modules["surfns"].__file__).startswith(src + os.sep):
        sys.exit(f"surfns was already importable from outside {src}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name, _ in list_scenarios():
                run_dir = os.path.join(tmp, f"{seed}", name)
                run_scenario(name, out_dir=run_dir, seed=seed, quiet=True)
                entry = {"csv": {}}
                for fname in sorted(os.listdir(run_dir)):
                    path = os.path.join(run_dir, fname)
                    if fname.endswith(".csv"):
                        with open(path, "rb") as fh:
                            entry["csv"][fname] = hashlib.sha256(fh.read()).hexdigest()
                    elif fname.endswith("_report.json"):
                        with open(path, encoding="utf-8") as fh:
                            report = json.load(fh)
                        report.pop("wall_time_s")
                        entry["report"] = report
                out[f"seed {seed}: {name}"] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="a source tree holding src/surfns")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    json.dump(digest(args.checkout, args.seeds), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
