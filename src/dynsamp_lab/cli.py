"""Command-line experiment runner.

Exit codes: 0 all checks passed, 1 configuration error or a report that
cannot be written, 2 at least one check failed.
"""

from __future__ import annotations

import argparse
import sys

from .checks import run_experiment
from .config import ConfigError, load_config, parse_tolerances
from .errors import InvalidInput
from .presets import PRESET_NAMES, preset_config
from .report import ExperimentReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynsamp",
        description="Numerical experiments on frame properties of operator orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a declarative experiment config")
    run_p.add_argument("config", help="path to the experiment config (JSON)")
    run_p.add_argument("--out", required=True, help="report output path")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance")

    repro_p = sub.add_parser("repro", help="run a curated preset")
    repro_p.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    repro_p.add_argument("--dim", type=int, default=None)
    repro_p.add_argument("--seed", type=int, default=None)
    repro_p.add_argument("--out", default=None, help="report output path")
    return parser


# built once per process; parse_args leaves it unchanged
PARSER = _build_parser()


def _summarize(report: ExperimentReport, stream) -> None:
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        extra = f"  [{check.error}]" if check.error else ""
        print(f"  {check.name}: {status}{extra}", file=stream)
    print(f"overall: {'pass' if report.passed else 'FAIL'}", file=stream)


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.tol is not None:
                cfg = cfg._replace(tolerances=parse_tolerances(
                    {**cfg.tolerances, "default": args.tol}))
            report = run_experiment(cfg)
            report.write(args.out, fmt=args.format)
            _summarize(report, sys.stdout)
        else:
            cfg = preset_config(args.preset, dim=args.dim, seed=args.seed)
            report = run_experiment(cfg)
            if args.out:
                report.write(args.out, fmt="json")
            else:
                print(report.to_json())
            _summarize(report, stream=sys.stderr)
    except (ConfigError, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # load_config turns its own into ConfigError
        print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
