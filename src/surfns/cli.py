"""Command-line interface.

Subcommands: run, scenario, scenarios, spectrum, korn, decompose, ensemble.
Exit codes: 0 pass, 1 check failure, 2 usage or config error, 3 runtime
divergence.  --threads (and SURFNS_THREADS) are still accepted but have no
effect: ensembles, pairs and gap families integrate as one batch.
"""

import argparse
import sys

from .errors import (CheckpointError, ConfigError, DivergenceError,
                     GeometryError, ParameterError)
from . import geometry as geo
from .harness import (Scenario, build_context, build_grid, execute_scenario,
                      load_checkpoint, load_config, run_ensemble,
                      write_ensemble)
from .killing import killing_basis, korn_constant
from .scenarios import get_scenario, list_scenarios

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


def _global_options(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--out", default=d,
                        help="output directory for CSV/reports")
    parser.add_argument("--seed", type=int, default=d,
                        help="override config seed")
    parser.add_argument("--threads", type=int, default=d,
                        help="accepted for compatibility; has no effect")
    if suppress:
        parser.add_argument("--quiet", action="store_true",
                            default=argparse.SUPPRESS)
    else:
        parser.add_argument("--quiet", action="store_true")


def _parser():
    p = argparse.ArgumentParser(prog="surfns",
                                description="surface-flow spectral simulator")
    _global_options(p)
    # SUPPRESS keeps post-subcommand flags from clobbering pre-subcommand ones
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", parents=[common], help="integrate a config file")
    sp.add_argument("config")

    sp = sub.add_parser("scenario", parents=[common],
                        help="run a built-in scenario with checks")
    sp.add_argument("name")

    sub.add_parser("scenarios", parents=[common],
                   help="list built-in scenarios")

    sp = sub.add_parser("spectrum", parents=[common],
                        help="constant-viscosity eigenvalues and the "
                             "assembled variable-viscosity spectrum")
    sp.add_argument("config")

    sp = sub.add_parser("korn", parents=[common],
                        help="Korn constant per truncation degree")
    sp.add_argument("config")

    sp = sub.add_parser("decompose", parents=[common],
                        help="Killing/non-Killing split of a checkpoint")
    sp.add_argument("checkpoint")

    sp = sub.add_parser("ensemble", parents=[common],
                        help="run an ensemble from a config file")
    sp.add_argument("config")
    sp.add_argument("--members", type=int, default=None)
    return p


def _cmd_run(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    name = cfg["scenario.name"] or "run"
    scenario = Scenario(name, "config-file run", "single", cfg, [])
    report = execute_scenario(scenario, out_dir=args.out, seed=None,
                              quiet=args.quiet)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_scenario(args):
    report = execute_scenario(get_scenario(args.name), out_dir=args.out,
                              seed=args.seed, quiet=args.quiet)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_scenarios(args):
    for name, claims in list_scenarios():
        print(f"{name}: {claims}")
    return EXIT_PASS


def _cmd_spectrum(args):
    cfg = load_config(args.config)
    ctx = build_context(cfg)
    if ctx.form is None:
        raise ConfigError("spectrum needs a sphere geometry")
    for l in range(1, ctx.form.L + 1):
        print("%d %.17g" % (l, ctx.form.lam_by_degree[l]))
    if not args.quiet:
        print("# assembled spectrum (variable viscosity)")
    for val in ctx.form.eigenvalues():
        print("%.17g" % val)
    return EXIT_PASS


def _cmd_korn(args):
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    if grid.kind == "sphere":
        L = cfg["geometry.L"]
        degrees = sorted({max(2, L // 4), max(2, L // 2), L})
        for ell in degrees:
            res = korn_constant(grid, ell)
            print("L=%d C_P=%.12g" % (ell, res.c_p))
    else:
        res = korn_constant(grid)
        print("torus C_P=%.12g" % res.c_p)
    return EXIT_PASS


def _cmd_decompose(args):
    meta, sim = load_checkpoint(args.checkpoint)
    if meta.kind != "sphere":
        raise ConfigError("decompose expects a sphere checkpoint")
    grid = geo.build_sphere_grid(meta.L, meta.R)
    basis = killing_basis(grid)
    alpha = basis.alpha_from_state(sim.state)
    print("t = %.17g" % sim.t)
    for j, a in enumerate(alpha):
        print("alpha_%d = %.17g" % (j + 1, a))
    print("norm_uK = %.17g" % sim.state.killing_norm())
    print("norm_uNK = %.17g" % sim.state.nonkilling_norm())
    return EXIT_PASS


def _cmd_ensemble(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    name = cfg["scenario.name"] or "ensemble"
    ctx = build_context(cfg)
    ens = run_ensemble(cfg, ctx=ctx, n_members=args.members)
    if not args.quiet:
        print(f"members: {len(ens.member_records)} "
              f"(diverged: {len(ens.diverged)})")
        print(f"omega_hat = {ens.omega_hat:.6g}")
        print(f"entry_time = {ens.entry_time:.6g} at radius {ens.entry_radius:.6g}")
    if args.out:
        write_ensemble(args.out, name, ens, ctx.basis.n)
    return EXIT_PASS if not ens.diverged else EXIT_DIVERGENCE


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "scenario": _cmd_scenario,
        "scenarios": _cmd_scenarios,
        "spectrum": _cmd_spectrum,
        "korn": _cmd_korn,
        "decompose": _cmd_decompose,
        "ensemble": _cmd_ensemble,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParameterError, GeometryError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
