"""Counter-based random stream derivation.

Every Monte Carlo trial draws from its own generator, keyed by
``(master_seed, stream_id)`` with ``(point_index, trial_index)`` placed in
the high words of the Philox counter.  Each trial therefore owns a disjoint
2**128 block of the counter space, and results are bit-identical no matter
how trials are chunked across workers or in what order they run.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream identifiers.  Scenario synthesis and estimator trials must never
# share a Philox key, so the id spaces are kept apart.
STREAM_TRIALS = 0
STREAM_CENTROIDS = 1001
STREAM_OBSERVATION = 1002

# Harness experiments get one stream id each; all pipelines at a given
# (experiment, point, trial) share the stream so comparisons are paired.
EXPERIMENT_STREAMS = {
    "sweep-k": 11,
    "sweep-n": 12,
    "snr-dist": 13,
    "bnorm-dist": 14,
    "bounds": 15,
    "crossing": 16,
    "aloss": 17,
}


def _counter(point_index, trial_index):
    """Philox counter words of one (point, trial) cell: its 2**128 block."""
    return [0, 0, trial_index & _MASK64, point_index & _MASK64]


def substream(master_seed, stream_id, point_index=0, trial_index=0):
    """Return a ``numpy.random.Generator`` for one (stream, point, trial) cell.

    Args:
        master_seed: experiment-wide seed, any value in [0, 2**64).
        stream_id: purpose tag, see the module-level constants.
        point_index: sweep-point index within the stream.
        trial_index: trial index within the sweep point.
    """
    bitgen = np.random.Philox(
        key=[master_seed & _MASK64, stream_id & _MASK64],
        counter=_counter(point_index, trial_index),
    )
    return np.random.Generator(bitgen)


def trial_streams(master_seed, stream_id, point_index, start, stop):
    """Yield, for each trial t in [start, stop), the generator that
    ``substream(master_seed, stream_id, point_index, t)`` would return.

    One Philox is re-keyed in place instead of seeded anew (no OS entropy
    read or seed hashing), so each generator is valid only until the next
    is taken.
    """
    rng = substream(master_seed, stream_id, point_index, start)
    state = rng.bit_generator.state
    for trial_index in range(start, stop):
        state["state"]["counter"][:] = _counter(point_index, trial_index)
        rng.bit_generator.state = state
        yield rng
