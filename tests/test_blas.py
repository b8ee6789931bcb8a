"""The one-OpenBLAS-thread block that the library's LAPACK loops run in."""

import numpy
import pytest
import scipy

from isea_sim import _blas
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
