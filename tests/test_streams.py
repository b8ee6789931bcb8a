"""Counter-based streams: full 64-bit keys and the re-keyed trial generator.

The project's pytest settings turn every RuntimeWarning into an error, so a
key word that numpy rounds through float64 (and warns about when the
rounding overflows) fails these tests either way.
"""

import numpy as np
import pytest

import isea_sim as iz
from isea_sim.streams import substream, trial_streams

TOP = 2**64 - 1


def _words(rng):
    state = rng.bit_generator.state["state"]
    return [int(w) for w in state["key"]], [int(w) for w in state["counter"]]


@pytest.mark.parametrize(
    ("seed", "stream", "point", "trial"),
    [(TOP, 1001, 0, 0), (12345678901234567890, 0, 3, 7), (2**63 + 1, 12, 2**64 - 2, 5),
     (0, TOP, TOP, TOP), (2**63, 2**63, 1, 2**63 + 3)],
)
def test_substream_keeps_every_bit_of_its_words(seed, stream, point, trial):
    assert _words(substream(seed, stream, point, trial)) == ([seed, stream], [0, 0, trial, point])


def test_neighbouring_large_seeds_and_points_draw_different_streams():
    def draw(*coordinates):
        return substream(*coordinates).standard_normal(4)

    # float64 holds 53 bits: these seeds were one key, and TOP became 0
    assert not np.array_equal(draw(12345678901234567890, 0), draw(12345678901234567891, 0))
    assert not np.array_equal(draw(TOP, 1001), draw(0, 1001))
    assert not np.array_equal(draw(20240, 12, TOP, 0), draw(20240, 12, 0, 0))
    # the scenario of the largest seed is its own, not seed 0's
    top, zero = (iz.build_scenario(iz.ScenarioConfig(master_seed=s)) for s in (TOP, 0))
    assert not np.array_equal(top.centroids, zero.centroids)


@pytest.mark.parametrize(
    ("seed", "stream", "point", "start"),
    [(0, 0, 0, 0), (TOP, TOP, TOP, 2**64 - 4), (12345678901234567890, 1001, 2**63, 2**63 - 2),
     (2**63 + 1, 12, 2**64 - 2, 509)],
)
def test_trial_streams_equal_fresh_substreams_at_extreme_words(seed, stream, point, start):
    # Each generator draws a label, which takes one 32-bit half of a 64-bit
    # word and buffers the other: the next re-key must drop that half, or
    # the next trial's label would be drawn from it.
    stop = start + 4
    for trial, rng in zip(range(start, stop), trial_streams(seed, stream, point, start, stop)):
        fresh = substream(seed, stream, point, trial)
        assert _words(rng) == _words(fresh)
        assert rng.bit_generator.state["has_uint32"] == 0
        assert iz.sample_label(5, rng) == iz.sample_label(5, fresh)
        assert rng.bit_generator.state["has_uint32"] == 1
        if trial % 2:
            np.testing.assert_array_equal(rng.standard_normal(3), fresh.standard_normal(3))
