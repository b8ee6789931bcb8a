"""One OpenBLAS thread for the library's LAPACK-heavy loops.

numpy and scipy each ship their own OpenBLAS build, and each starts one
thread per core.  The channel matrices here are at most a few hundred rows,
too small to split: on a two-core host two threads make ``crossing`` at
K = 100 four times slower and double its CPU time.  The thread count
changes how fast LAPACK runs, never what it returns, so every result is
the same at any count.

The CLI starts both builds at one thread through ``OPENBLAS_NUM_THREADS``
(see ``harness.cli``), and there ``one_blas_thread`` finds nothing to
change; it serves library callers, whose builds start at the default.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

# symbol prefix and suffix of the thread-count entry points: numpy's ILP64
# build exports scipy_openblas_set_num_threads64_, scipy's build
# scipy_openblas_set_num_threads, and a plain OpenBLAS openblas_set_num_threads
_NAME_FORMS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))


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
