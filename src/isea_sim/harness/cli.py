"""Command-line entry point.

Usage: ``isea-sim <experiment> --config <file> [--seed U64] [--trials N]
[--out PATH] [--workers N] [--paper-scale] [--sweep V1,V2,...]
[--pipelines P1,P2,...]``.  Exit codes: 0 on success,
2 for configuration problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from ..errors import ConfigError, InfeasibleAccessError, NumericalError
from ..inference import PIPELINES
from ..scenario import load_config
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isea-sim",
        description="Monte Carlo experiments for multi-view sensing over analog multi-access channels.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", required=True, help="flat key = value scenario file")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--trials", type=int, default=None, help="override mc_trials")
    parser.add_argument("--out", default="", help="CSV output path (default <experiment>.csv)")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker count")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run publication-scale grids instead of desk-scale defaults",
    )
    parser.add_argument(
        "--sweep",
        default=None,
        help="comma-separated sweep grid overriding the experiment default",
    )
    parser.add_argument(
        "--pipelines",
        default=None,
        help=f"comma-separated subset of {','.join(PIPELINES)}",
    )
    return parser


def _parse_sweep(text):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            number = float(token)
        except ValueError:
            raise ConfigError(f"--sweep value {token!r} is not a number") from None
        values.append(number)
    if not values:
        raise ConfigError("--sweep produced an empty grid")
    return tuple(values)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        if args.trials is not None:
            config = dataclasses.replace(config, mc_trials=args.trials)
        spec = ExperimentSpec(
            args.experiment,
            config,
            sweep_values=_parse_sweep(args.sweep) if args.sweep else None,
            pipelines=tuple(args.pipelines.split(",")) if args.pipelines else None,
            output_path=args.out or f"{args.experiment}.csv",
        )
        report = run_experiment(spec, workers=args.workers, paper_scale=args.paper_scale)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, InfeasibleAccessError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{spec.experiment}: {len(report.rows)} rows -> {spec.output_path}")
    for note in report.notes:
        print(note)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
