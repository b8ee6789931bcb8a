"""What a fresh process loads and sets when it imports the package or the CLI.

Each check runs in a child process, because this one has long loaded numpy
and scipy.  Each child's environment is built here, without any
``*_NUM_THREADS`` variable this process may carry.
"""

import ctypes
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


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    loaded = _child(
        "import json, sys; import isea_sim.harness.cli\n"
        "print(json.dumps('scipy.linalg' in sys.modules))"
    )
    assert loaded is False


# runs the CLI in-process at K = 10 > _FULL_EIG_MAX and N >= K, recording
# each LAPACK routine the channel layer looks up
_CLI_RUN = (
    "import json, sys\n"
    "{first}"
    "from isea_sim import channel\n"
    "from isea_sim.harness import cli\n"
    "seen, lookup = set(), channel.lapack_func\n"
    "channel.lapack_func = lambda name: seen.add(name) or lookup(name)\n"
    "code = cli.main({args!r})\n"
    "print(json.dumps([code, sorted(seen), 'scipy.linalg' in sys.modules]))"
)


@pytest.mark.parametrize("experiment, sweep", [("sweep-n", "10,12"), ("crossing", "1,1.5")])
def test_cli_runs_leave_scipy_linalg_unloaded_and_write_its_bytes(tmp_path, experiment, sweep):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_sensors = 10\nmc_trials = 40\n", encoding="utf-8")
    written = {}
    for first in ("", "import scipy.linalg\n"):
        out = tmp_path / f"{experiment}-{bool(first)}.csv"
        args = [experiment, "--config", str(config), "--sweep", sweep, "--out", str(out)]
        code, seen, loaded = _child(_CLI_RUN.format(first=first, args=args))
        assert (code, seen, loaded) == (0, ["heevr", "heevr_lwork", "trtri"], bool(first))
        written[first] = out.read_bytes()
    assert written[""] == written["import scipy.linalg\n"]


@pytest.mark.parametrize("scipy_first", [False, True])
def test_lapack_func_gives_scipys_own_routines(scipy_first):
    first = "import scipy.linalg\n" if scipy_first else "lapack_func('trtri')\n"
    checked = _child(
        "import json, sys; import numpy as np; from isea_sim._blas import lapack_func\n"
        + first
        + "registered = 'scipy.linalg._flapack' in sys.modules\n"
        "import scipy.linalg\n"
        "a = np.ones((2, 2), complex)\n"
        "same = [lapack_func(n) is scipy.linalg.get_lapack_funcs(n, (a,))\n"
        "        for n in ('heevr', 'heevr_lwork', 'trtri')]\n"
        "print(json.dumps([registered, same]))"
    )
    assert checked == [scipy_first, [True] * 3]


def _has_mallinfo2():
    return sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallinfo2")


# glibc's mallinfo2().hblkhd, the bytes in blocks with mappings of their own,
# grown by a 1 MiB and a 16 MiB array, each touched
_MAPPED = (
    "import ctypes, json; import numpy as np\n"
    "names = 'arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost'\n"
    "Info = type('Info', (ctypes.Structure,), {'_fields_': [(n, ctypes.c_size_t) for n in names.split()]})\n"
    "mallinfo2 = ctypes.CDLL(None).mallinfo2\n"
    "mallinfo2.restype = Info\n"
    "before = mallinfo2().hblkhd\n"
    "arrays = [np.ones(size >> 3) for size in (1 << 20, 16 << 20)]\n"
    "print(json.dumps(mallinfo2().hblkhd - before))"
)


@pytest.mark.skipif(not _has_mallinfo2(), reason="the C library has no mallinfo2")
@pytest.mark.parametrize("module, mapped", [("isea_sim.harness.cli", False), ("isea_sim.inference", True)])
def test_only_the_cli_keeps_large_arrays_in_the_heap(module, mapped):
    grown = _child(f"import {module}\n" + _MAPPED)
    assert (grown > 0) == mapped


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


def test_one_draw_names_stay_in_channel_alone():
    # the benchmark's tracer reads the one-draw SNRs and receivers from
    # channel; the package exports only the stacked layer
    one_draw = (
        "AggregationOutcome adaptive_receive aircomp_effective_snr aircomp_receive "
        "orthogonal_effective_snr orthogonal_receive"
    ).split()
    assert len(iz.__all__) == 40 and not set(one_draw) & set(iz.__all__)
    from isea_sim import channel

    assert all(hasattr(channel, name) for name in one_draw)


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
