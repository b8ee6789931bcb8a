"""The one-OpenBLAS-thread block that the library's LAPACK loops run in,
and the lookup of their LAPACK routines."""

import sys

import numpy
import pytest
import scipy

from isea_sim import _blas, channel
from isea_sim._blas import one_blas_thread


class _FakeBuild:
    """Stands in for one OpenBLAS build's thread count."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads


@pytest.fixture
def builds(monkeypatch):
    fakes = [_FakeBuild(2), _FakeBuild(3)]
    controls = tuple((fake.get, fake.set) for fake in fakes)
    monkeypatch.setattr(_blas, "_openblas_thread_controls", lambda: controls)
    return fakes


def _counts(builds):
    return [build.threads for build in builds]


def test_restores_each_previous_count(builds):
    with one_blas_thread():
        assert _counts(builds) == [1, 1]
    assert _counts(builds) == [2, 3]


def test_restores_each_previous_count_when_the_block_raises(builds):
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert _counts(builds) == [2, 3]


def test_nested_use_leaves_the_outer_count_in_place(builds):
    with one_blas_thread():
        with one_blas_thread():
            assert _counts(builds) == [1, 1]
        assert _counts(builds) == [1, 1]
    assert _counts(builds) == [2, 3]


def test_is_a_no_op_when_no_openblas_is_found(monkeypatch, tmp_path):
    # numpy and scipy seem to live where no *.libs directory sits beside them
    for package in (numpy, scipy):
        monkeypatch.setattr(package, "__file__", str(tmp_path / package.__name__ / "__init__.py"))
    lookup = _blas._openblas_thread_controls.__wrapped__  # past the cache
    assert lookup() == ()
    monkeypatch.setattr(_blas, "_openblas_thread_controls", lookup)
    with one_blas_thread():
        total = float(numpy.ones(3) @ numpy.ones(3))
    assert total == 3.0


def test_sets_and_restores_the_shipped_openblas_builds():
    controls = _blas._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy ship no OpenBLAS build here")
    before = [get() for get, _ in controls]
    with one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def test_leaves_a_build_already_at_one_thread_alone(monkeypatch):
    # setting a count restarts the threads a fork stopped, even at one thread
    calls = []
    fake = _FakeBuild(1)
    monkeypatch.setattr(
        _blas, "_openblas_thread_controls", lambda: ((fake.get, calls.append),)
    )
    with one_blas_thread():
        with one_blas_thread():
            pass
    assert calls == []


def test_channel_kernels_take_one_thread_and_give_it_back(builds, monkeypatch):
    # each kernel enters the block itself, so a caller outside any loop gets
    # one thread in the Cholesky factor, trtri and the subset eigensolver
    seen = []

    def recording(name, fn):
        def call(*args, **kwargs):
            seen.append((name, _counts(builds)))
            return fn(*args, **kwargs)

        return call

    lookup = channel.lapack_func
    monkeypatch.setattr(channel, "lapack_func", lambda name: recording(name, lookup(name)))
    monkeypatch.setattr(numpy.linalg, "cholesky", recording("cholesky", numpy.linalg.cholesky))
    K = channel._FULL_EIG_MAX + 2  # the subset eigensolver's sizes
    rng = numpy.random.default_rng(0)
    H = rng.standard_normal((3, K + 2, K)) + 1j * rng.standard_normal((3, K + 2, K))
    kernels = {
        channel.principal_pair: {"heevr_lwork", "heevr"},
        channel.zf_norms_sq: {"cholesky", "trtri"},
    }
    for kernel, names in kernels.items():
        seen.clear()
        kernel(H)
        assert {name for name, _ in seen} == names
        assert all(counts == [1, 1] for _, counts in seen)
        assert _counts(builds) == [2, 3]


def test_lapack_lookup_names_a_missing_module(monkeypatch, tmp_path):
    # scipy seems to live where no _flapack module sits in its linalg directory
    monkeypatch.delitem(sys.modules, _blas._FLAPACK, raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match="LAPACK module is missing: .*/scipy/linalg/_flapack"):
        _blas._flapack.__wrapped__()  # past the cache
