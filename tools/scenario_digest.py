"""Digest every built-in scenario of a checkout: the sha256 of each CSV it
writes and of each of its columns, and each report's checks, with the
stdout of the static CLI commands, as one JSON object on stdout.

    python tools/scenario_digest.py CHECKOUT --seeds 7 3 11

The scenarios run from ``CHECKOUT/src`` in a temporary directory.  The CLI
entries are ``spectrum`` (L = 16, linear_x3 viscosity, a = 0.5), ``korn``
(the L = 16 sphere and the default torus) and, per seed, ``decompose`` of an
L = 8 checkpoint of that seed's random state, each run through ``cli.main``
in-process.  Two checkouts behave the same when their digests are
identical, so a byte-identity gate is one diff, and a CSV's column
digests (header -> sha256 of its cells) name the columns that moved:

    python tools/scenario_digest.py old --seeds 7 3 11 > old.json
    python tools/scenario_digest.py new --seeds 7 3 11 > new.json
    diff old.json new.json

A report's ``wall_time_s`` is left out; every other field is kept.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

# entry: (command, config file text)
CLI_CONFIGS = {
    "spectrum": ("spectrum", "geometry.L = 16\nnu.kind = linear_x3\nnu.value = 1.0\nnu.a = 0.5\n"),
    "korn sphere": ("korn", "geometry.L = 16\n"),
    "korn torus": ("korn", "geometry.kind = torus\n"),
}


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
                            entry["csv"][fname] = csv_digest(fh.read())
                    elif fname.endswith("_report.json"):
                        with open(path, encoding="utf-8") as fh:
                            report = json.load(fh)
                        report.pop("wall_time_s")
                        entry["report"] = report
                out[f"seed {seed}: {name}"] = entry
        out.update(cli_digest(tmp, seeds))
    return out


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def csv_digest(data):
    """The sha256 of a CSV's bytes, of each column's cells by header, and of
    its comment rows (those starting with "#", such as an ensemble's entry
    times) under "#"."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
    notes = [",".join(r) for r in rows if r and r[0].startswith("#")]
    body = [r for r in rows if r and not r[0].startswith("#")]
    columns = {name: _sha256(cells)
               for name, cells in zip(header, list(zip(*body)) or [()] * len(header))}
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "columns": {**columns, "#": _sha256(notes)} if notes else columns}


def _cli(argv):
    """The exit code and stdout lines of ``cli.main(argv)``."""
    from surfns import cli
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    return {"exit": code, "stdout": buf.getvalue().splitlines()}


def cli_digest(tmp, seeds):
    """The ``_cli`` result of each of ``CLI_CONFIGS`` and of ``decompose`` on
    each seed's checkpoint, written to ``tmp``."""
    from surfns.geometry import build_sphere_grid
    from surfns.harmonics import SphereTransform, random_band_limited
    from surfns.harness import save_checkpoint
    out = {}
    for label, (command, text) in CLI_CONFIGS.items():
        path = os.path.join(tmp, label.replace(" ", "_") + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out[f"cli: {label}"] = _cli([command, path])
    grid = build_sphere_grid(8, 1.0)
    for seed in seeds:
        path = os.path.join(tmp, f"state{seed}.snsk")
        save_checkpoint(random_band_limited(SphereTransform(grid, 8), seed), grid, path)
        out[f"cli: decompose seed {seed}"] = _cli(["decompose", path])
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
