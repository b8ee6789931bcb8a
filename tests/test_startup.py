"""What a fresh process loads and sets when it imports the package or the CLI.

Each check runs in a child process, because this one has long loaded numpy
and scipy.  Each child's environment is built here, without any
``*_NUM_THREADS`` variable this process may carry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isea_sim as iz

SRC = str(Path(iz.__file__).resolve().parents[1])


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return {**env, "PYTHONPATH": SRC, **extra}


def _child(code, **extra):
    """Run ``code`` in a fresh interpreter; returns the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env(**extra)
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_and_sets_nothing():
    loaded = _child(
        "import json, os, sys; import isea_sim\n"
        "print(json.dumps([m for m in ('numpy', 'scipy', 'isea_sim.channel') if m in sys.modules]"
        " + [os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )
    assert loaded == [None]


def test_importing_the_cli_leaves_scipy_special_unloaded():
    loaded = _child(
        "import json, sys; import isea_sim.harness.cli\n"
        "print(json.dumps(['numpy' in sys.modules, 'scipy.special' in sys.modules]))"
    )
    assert loaded == [True, False]


def test_each_export_is_its_submodules_object():
    checked = _child(
        "import importlib, json; import isea_sim as iz\n"
        "listed = set(iz.__all__) <= set(dir(iz))\n"
        "same = [getattr(iz, n) is getattr(importlib.import_module(f'isea_sim.{m}'), n)"
        " for n, m in iz._SOURCE.items()]\n"
        "print(json.dumps([listed, len(iz.__all__) == len(set(iz.__all__)), all(same)]))"
    )
    assert checked == [True, True, True]
    assert set(iz.__all__) == set(iz._SOURCE)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        iz.no_such_name
    assert not hasattr(iz, "channel_law")


def test_from_the_package_import_a_submodule():
    # bench/trace_layers.py takes its layers this way
    names = _child(
        "import json; from isea_sim import channel, theory\n"
        "print(json.dumps([channel.__name__, theory.__name__]))"
    )
    assert names == ["isea_sim.channel", "isea_sim.theory"]


_THREADS = (
    "import json; import isea_sim.harness.cli; from isea_sim import _blas\n"
    "print(json.dumps([get() for get, _ in _blas._openblas_thread_controls()]))"
)


@pytest.mark.parametrize("given, expected", [(None, 1), ("2", 2)])
def test_the_cli_starts_openblas_at_one_thread_unless_the_caller_chose(given, expected):
    if expected > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS caps its thread count at the usable CPUs")
    counts = _child(_THREADS, **({} if given is None else {"OPENBLAS_NUM_THREADS": given}))
    if not counts:
        pytest.skip("numpy and scipy ship no OpenBLAS build here")
    assert counts == [expected] * len(counts)


def test_the_cli_writes_the_same_csv_bytes_at_any_starting_thread_count(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_sensors = 30\nmc_trials = 100\n", encoding="utf-8")
    runs = {"sweep-n": "28,32", "crossing": "0.5,1.5"}
    written = {}
    for threads in (None, "2"):
        extra = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        for experiment, sweep in runs.items():
            out = tmp_path / f"{experiment}-{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "isea_sim.harness.cli", experiment, "--config", str(config),
                 "--sweep", sweep, "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=_env(**extra),
            )
            assert proc.returncode == 0, proc.stderr
            written[threads, experiment] = out.read_bytes()
    for experiment in runs:
        assert written[None, experiment] == written["2", experiment]
