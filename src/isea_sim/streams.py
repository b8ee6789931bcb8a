"""Counter-based random stream derivation.

Every Monte Carlo trial draws from its own generator, keyed by
``(master_seed, stream_id)`` with ``(point_index, trial_index)`` placed in
the high words of the Philox counter.  Each trial therefore owns a disjoint
2**128 block of the counter space, and results are bit-identical no matter
how trials are stacked, spread across workers or ordered.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; here it counts as set-up)

_MASK64 = (1 << 64) - 1

# Stream identifiers.  Scenario synthesis and estimator trials must never
# share a Philox key, so the id spaces are kept apart; the harness keys its
# experiments with ids 11-17.
STREAM_TRIALS = 0
STREAM_CENTROIDS = 1001
STREAM_OBSERVATION = 1002


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
    # numpy turns a list mixing words >= 2**63 with small ones into float64
    bitgen = np.random.Philox(
        key=np.array([master_seed & _MASK64, stream_id & _MASK64], dtype=np.uint64),
        counter=np.array(_counter(point_index, trial_index), dtype=np.uint64),
    )
    return np.random.Generator(bitgen)


def trial_streams(master_seed, stream_id, point_index, start, stop):
    """Yield, for each trial t in [start, stop), the generator that
    ``substream(master_seed, stream_id, point_index, t)`` would return.

    One Philox is re-keyed in place instead of seeded anew (no OS entropy
    read or seed hashing), so each generator is valid only until the next
    is taken.  The state holds Python ints, which the setter reads faster
    than uint64 words, and clears any 32-bit half a trial left buffered.
    """
    rng = substream(master_seed, stream_id, point_index, start)
    counter = _counter(point_index, start)
    words = {"counter": counter, "key": [master_seed & _MASK64, stream_id & _MASK64]}
    state = {**rng.bit_generator.state, "state": words, "buffer": [0] * 4}
    for trial_index in range(start, stop):
        counter[2] = trial_index & _MASK64
        rng.bit_generator.state = state
        yield rng
