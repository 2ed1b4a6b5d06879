"""Run every built-in scenario of a checkout under each mutant of its
``tests/test_mutants.py`` and print the checks that fail, as one JSON object
on stdout:

    python tools/mutant_matrix.py CHECKOUT --seeds 7 3 11

A mutant is one patch function of ``MUTANTS``, applied with pytest's
``MonkeyPatch`` and named by the first entry that lists it.  Per seed the
object holds the failed checks of the unmutated suite (``none``) and of each
mutant, each as "scenario: check", or "scenario: raised ErrorType" for a
scenario that raises.  The unmutated suite should fail nothing and every
mutant something.  The scenarios run from ``CHECKOUT/src`` in-process, and
the mutants come from ``CHECKOUT/tests``.
"""

import argparse
import json
import os
import sys

import pytest


def failed_checks(seed):
    """The failed checks of every built-in scenario at ``seed``."""
    from surfns.scenarios import list_scenarios, run_scenario
    failed = []
    for name, _ in list_scenarios():
        try:
            report = run_scenario(name, seed=seed, quiet=True)
        except Exception as exc:  # noqa: BLE001 - a raising scenario is a result
            failed.append(f"{name}: raised {type(exc).__name__}")
            continue
        failed += [f"{name}: {c.name}" for c in report.checks if not c.passed]
    return failed


def matrix(checkout, seeds):
    src = os.path.abspath(os.path.join(checkout, "src"))
    sys.path[:0] = [src, os.path.abspath(os.path.join(checkout, "tests"))]
    import test_mutants
    if not os.path.abspath(sys.modules["surfns"].__file__).startswith(src + os.sep):
        sys.exit(f"surfns was already importable from outside {src}")
    mutants = {"none": lambda mp: None}
    for param in test_mutants.MUTANTS:
        patch = param.values[0]
        if patch not in mutants.values():
            mutants[param.id] = patch
    out = {}
    for seed in seeds:
        for name, patch in mutants.items():
            with pytest.MonkeyPatch.context() as mp:
                patch(mp)
                out[f"seed {seed}: {name}"] = failed_checks(seed)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="a source tree holding src/surfns and tests")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    json.dump(matrix(args.checkout, args.seeds), sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
