"""Command-line entry point.

Usage: ``isea-sim <experiment> --config <file> [--seed U64] [--trials N]
[--out PATH] [--workers N] [--paper-scale] [--sweep V1,V2,...]
[--pipelines P1,P2,...]``.  Exit codes: 0 on success,
2 for configuration problems, 3 for numerical failures.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the caller
set it, before numpy or scipy loads: their OpenBLAS builds read it once, at
load, and then start no helper threads, whose spinning would compete with
the import and the single-threaded trial loops.  A caller's value wins.
The thread count changes no result.

Where the C library has glibc's ``mallopt``, importing this module also
keeps freed arrays in the heap: blocks under 32 MiB (the cap of glibc's own
sliding threshold) come from the heap, not from mappings of their own, and
its free top stays mapped up to 64 MiB.  Otherwise glibc hands the channel
stage's temporaries (H, its conjugate transpose and the Grams, 160-640 KiB
at K = 100) back after every stack, and the next faults them in again.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# mallopt(M_MMAP_THRESHOLD, ...), mallopt(M_TRIM_THRESHOLD, ...)
if sys.platform == "linux" and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)
    _libc.mallopt(-1, 64 << 20)

# numpy and scipy load below, after the thread count is set
import numpy as np  # noqa: E402

from ..errors import ConfigError, InfeasibleAccessError, NumericalError  # noqa: E402
from ..inference import PIPELINES  # noqa: E402
from ..scenario import load_config  # noqa: E402
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment  # noqa: E402

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
    workers = "processes running the stacks of each sweep cell (default 1), at most the CPUs"
    parser.add_argument("--workers", type=int, default=1, help=workers)
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
    tokens = [token.strip() for token in text.split(",")]
    if not any(tokens):
        raise ConfigError("--sweep produced an empty grid")
    values = []
    for token in tokens:
        if not token:
            raise ConfigError(f"--sweep {text!r} has an empty value")
        try:
            values.append(float(token))
        except ValueError:
            raise ConfigError(f"--sweep value {token!r} is not a number") from None
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
            sweep_values=None if args.sweep is None else _parse_sweep(args.sweep),
            pipelines=None if args.pipelines is None else tuple(args.pipelines.split(",")),
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
