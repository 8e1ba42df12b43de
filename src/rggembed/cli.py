"""Command-line front end for the experiment harness.

Subcommands: ``sweep`` (success-frequency curve over radii), ``trial``
(a single embedding trial with full diagnostics), ``lowerbound`` (hop
diameter versus the truncated-tree obstruction), ``concentration``
(region point-count tails) and ``prop1`` (1-d greedy curve).

Completed experiments exit 0 even when every trial fails; only invalid
configurations exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry, harness


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of points / vertices")
    p.add_argument("--d", type=int, default=2, help="dimension of the unit cube")
    p.add_argument("--delta", type=int, default=3, help="maximum tree degree")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None, help="output file path")


def _add_trial_like(p: argparse.ArgumentParser) -> None:
    _add_shared(p)
    p.add_argument(
        "--family",
        choices=harness.TREE_FAMILIES,
        default="bounded_random",
        help="tree family to embed",
    )
    p.add_argument("--r", type=float, action="append", default=None,
                   help="explicit radius (repeatable)")
    p.add_argument("--r-mult", type=float, action="append", default=None,
                   help="radius as a multiple of the critical radius (repeatable)")
    p.add_argument("--mode", choices=("paper", "sim"), default="sim")
    p.add_argument("--epsilon", type=float, default=None,
                   help="epsilon override (simulation mode)")
    p.add_argument("--m", type=float, default=None,
                   help="part-weight override (simulation mode)")


def _config_from_args(args, trials: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        n=args.n,
        d=args.d,
        delta=args.delta,
        tree_family=args.family,
        r_values=tuple(args.r) if args.r else (),
        r_multipliers=tuple(args.r_mult) if args.r_mult else (),
        trials=trials,
        seed=args.seed,
        mode=args.mode,
        epsilon_override=args.epsilon,
        m_override=args.m,
        fix_tree=getattr(args, "fix_tree", False),
    )


def _emit(rows, args) -> None:
    if args.out:
        harness.write_rows(args.out, rows, args.format)
        print(f"wrote {len(rows)} rows to {args.out}")
    elif args.format == "json":
        print(json.dumps(rows, indent=2, default=str))
    else:
        for row in rows:
            print(row)


def _cmd_sweep(args) -> int:
    config = _config_from_args(args, args.trials)
    curve = harness.run_threshold_sweep(config)
    rows = [p.to_row() for p in curve.points]
    _emit(rows, args)
    print(
        "monotone (95%):",
        curve.nondecreasing(),
        "| frequencies:",
        [round(p.frequency, 3) for p in curve.points],
    )
    return 0


def _cmd_trial(args) -> int:
    config = _config_from_args(args, 1)
    radii = config.radii()
    if len(radii) != 1:
        raise ValueError("trial takes exactly one --r or --r-mult")
    r, mult = radii[0]
    record = harness.run_universality_trial(config, r, args.seed, r_multiplier=mult)
    rows = [record.to_row()]
    _emit(rows, args)
    return 0


def _cmd_lowerbound(args) -> int:
    if len((args.r or []) + (args.r_mult or [])) != 1:
        raise ValueError("lowerbound takes exactly one --r or --r-mult")
    r = args.r[0] if args.r else args.r_mult[0] * geometry.critical_radius(
        args.n, args.d, args.delta)
    record = harness.run_lower_bound_experiment(
        args.n, args.d, args.delta, r, args.trials, args.seed
    )
    _emit(record.to_rows(), args)
    print(
        f"h = {record.h}, 2h = {record.two_h}, "
        f"obstruction fraction = {record.obstruction_fraction:.3f}, "
        f"corner fraction = {record.corner_fraction:.3f} "
        f"(analytic corner bound {record.corner_hit_probability:.3f})"
    )
    return 0


def _cmd_concentration(args) -> int:
    record = harness.run_concentration_check(
        args.n, args.a, args.p, args.trials, args.seed
    )
    _emit(record.to_rows(), args)
    lo, hi = record.wilson()
    print(
        f"violation frequency = {record.violation_frequency:.4f} "
        f"(95% CI [{lo:.4f}, {hi:.4f}]), bound = {record.bound:.4f}"
    )
    return 0


def _cmd_prop1(args) -> int:
    curve = harness.run_prop1_experiment(args.n, args.c, args.trials, args.seed)
    _emit([p.to_row() for p in curve.points], args)
    print(
        "monotone (95%):",
        curve.nondecreasing(),
        "| frequencies:",
        [round(p.frequency, 3) for p in curve.points],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rggembed",
        description="Tree-embedding experiments on random geometric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="success-frequency curve over radii")
    _add_trial_like(p)
    p.add_argument("--trials", type=int, default=30, help="trials per radius")
    p.add_argument("--fix-tree", action="store_true",
                   help="reuse one tree across all trials")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trial", help="one embedding trial with diagnostics")
    _add_trial_like(p)
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("lowerbound", help="hop diameter vs the 2h obstruction")
    _add_shared(p)
    p.add_argument("--r", type=float, action="append", default=None)
    p.add_argument("--r-mult", type=float, action="append", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("concentration", help="region point-count tail check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True, help="region volume")
    p.add_argument("--p", type=float, default=0.5, help="thinning probability")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("prop1", help="1-d greedy embedding curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, action="append", required=True,
                   help="radius multiplier of n^(-1/2) (repeatable)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_prop1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, geometry.GeometryInfeasible) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
