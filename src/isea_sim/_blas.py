"""One OpenBLAS thread for the library's LAPACK-heavy loops, and the three
LAPACK routines they call.

numpy and scipy each ship their own OpenBLAS build, and each starts one
thread per core.  The channel matrices here are at most a few hundred rows,
too small to split: on a two-core host two threads make ``crossing`` at
K = 100 four times slower and double its CPU time.  The thread count
changes how fast LAPACK runs, never what it returns, so every result is
the same at any count.

The CLI starts both builds at one thread through ``OPENBLAS_NUM_THREADS``
(see ``harness.cli``), and there ``one_blas_thread`` finds nothing to
change; it serves library callers, whose builds start at the default.

``lapack_func`` gives the loops' three scipy LAPACK routines, all complex,
from scipy's f2py module, found by path as the OpenBLAS builds are:
importing ``scipy.linalg`` for them took two thirds of the CLI's start.
CPython initialises a single-phase extension once and hands later loads
its function objects, so these are the very objects ``get_lapack_funcs``
gives.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import sys
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

# symbol prefix and suffix of the thread-count entry points: numpy's ILP64
# build exports scipy_openblas_set_num_threads64_, scipy's build
# scipy_openblas_set_num_threads, and a plain OpenBLAS openblas_set_num_threads
_NAME_FORMS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of each OpenBLAS build that
    numpy and scipy ship, looked up on first use; empty when there is none."""
    import numpy
    import scipy

    controls = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in _NAME_FORMS:
                try:
                    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS build at one thread, then give each
    build back the count it had, also when the block raises.  Worker
    processes forked inside the block start at one thread too."""
    # Setting a count restarts a build's threads when a fork has stopped
    # them, so a build already at one thread is left alone: a nested block
    # then starts no threads between one pool's fork and the next.
    changed = [(set_, count) for get, set_ in _openblas_thread_controls() if (count := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)


@functools.cache
def _flapack():
    """scipy's f2py LAPACK module: the one ``scipy.linalg`` loaded, else
    loaded here from its file and kept out of ``sys.modules``."""
    import scipy

    module = sys.modules.get(_FLAPACK)
    if module is None:
        path = Path(scipy.__file__).resolve().parent / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}"
        if not path.is_file():
            raise ImportError(f"scipy's LAPACK module is missing: {path}")
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # CPython files a single-phase extension in sys.modules as it loads it
        sys.modules.pop(_FLAPACK, None)
    return module


def lapack_func(name):
    """The complex128 LAPACK routine ``name``: the ``z`` routine that
    ``get_lapack_funcs`` picks for a complex128 array."""
    return getattr(_flapack(), "z" + name)
