"""One isea-sim run in a fresh process, as the benchmark's unit of work.

Usage::

    python3 bench/child.py --result OUT.json [--trace SPANS.tsv] -- <isea-sim args>
    python3 bench/child.py --result OUT.json --probe CONFIG [--meta]

The first form runs ``isea_sim.harness.cli.main`` on the given arguments.
The second only sets up (import and config parse), and with ``--meta``
also records library versions and the BLAS library with its thread count.

Timestamps come from ``time.monotonic``, which on Linux is the system-wide
CLOCK_MONOTONIC, so the parent can subtract its own spawn time from them.
The package is imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import isea_sim.harness.cli as cli  # noqa: E402  (after the path insert)

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"isea_sim was imported from {cli.__file__}, not from {SRC}")


def _blas_info():
    """OpenBLAS builds next to numpy and scipy, with their thread counts."""
    import ctypes

    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            entry = {"library": path.name}
            for prefix in ("scipy_", ""):
                for suffix in ("64_", ""):
                    try:
                        threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                        config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                    except AttributeError:
                        continue
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
            found.append(entry)
    return found


def _meta():
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None, help="write spans here and trace the run")
    parser.add_argument("--probe", default=None, help="config to parse; set up only")
    parser.add_argument("--meta", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()
    result = {}

    if args.probe:
        cli.load_config(args.probe)
        result["setup_end"] = time.monotonic()
        if args.meta:
            result["meta"] = _meta()
        Path(args.result).write_text(json.dumps(result))
        return 0

    real_load_config = cli.load_config

    def load_config(path):
        config = real_load_config(path)
        result["setup_end"] = time.monotonic()
        return config

    cli.load_config = load_config
    tracer = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    code = cli.main(args.cli_args)
    result["end"] = time.monotonic()
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
