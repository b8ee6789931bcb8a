"""Maximum-likelihood fusion classifier and the Monte Carlo trial engine.

The server classifies the aggregated feature vector under the mixture
model implied by averaging: class means P_bar mu_l and effective
covariance C/K, plus an isotropic term 1/gamma for the channel noise of
the access mode in use.  The class log-likelihoods are evaluated in the
eigenbasis of C, so the M x M inverse is never formed; this one route
gives the posteriors, the decisions and the per-trial entropies.
:func:`run_trials` runs a batch of trials whose summaries are the Monte
Carlo estimates of sensing uncertainty and accuracy, and
:func:`simulate_trial` replays any single trial from its (seed, stream,
point, trial) coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import one_blas_thread
from .channel import _delivers, _pipeline_snrs, _receive, best_access, sample_channel
from .errors import InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless, sample_label, sample_local_features
from .streams import STREAM_TRIALS, trial_streams

PIPELINES = ("noiseless", "aircomp", "orthogonal", "adaptive")

_COND_LIMIT = 1e12
# A stack of trials or channel draws holds at most _STACK_ROWS rows and
# _STACK_BYTES of standard normals, which bounds its temporaries at any K, N
# or L M (:func:`rows_per_stack`); stacking changes no value.
_STACK_ROWS = 512
_STACK_BYTES = 2**18


def _posterior_logits(scenario, f_tilde, noise_power):
    """Per-class log-likelihoods up to a constant, via C's eigenbasis.

    The effective covariance is C/K plus ``noise_power`` I.  Received
    vectors (n, M) with noise powers (n, 1) give logits (n, L); each vector
    goes through the same BLAS products as on its own, so a batch matches
    its vectors taken one at a time bit for bit.

    Raises:
        NumericalError: if a condition number exceeds 1e12.
    """
    # C_evals is ascending, so adding the isotropic noise keeps the order.
    evals = scenario.C_evals / scenario.num_sensors + noise_power
    if np.any(evals[..., -1] / evals[..., 0] > _COND_LIMIT):
        raise NumericalError("effective covariance condition number exceeds 1e12")
    y = np.asarray(f_tilde, dtype=float)[..., None, :] @ scenario.C_evecs
    diff = scenario.proj_centroids_eig - y
    # a distance beyond the largest float saturates to a logit of -inf,
    # which _entropies handles
    with np.errstate(over="ignore"):
        return -0.5 * ((diff * diff) @ (1.0 / evals)[..., None])[..., 0]


def _entropies(logits):
    """Posterior entropy of each row of ``logits``, clamped at 0, and the
    posterior itself, from one max-shifted softmax.  A class of weight 0
    adds 0 log 0 = 0, also when its logit is -inf.  A row whose logits are
    all -inf (every class distance overflowed) has no posterior to report:
    its entropy is NaN, a numerical failure to the harness."""
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    total = np.add.reduce(weights, axis=-1)
    log_weights = np.where(weights > 0, shifted, 0.0)
    entropy = np.log(total) - (weights[..., None, :] @ log_weights[..., None])[..., 0, 0] / total
    return np.where(entropy < 0.0, 0.0, entropy), weights / total[..., None]


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Outcome of a single Monte Carlo trial."""

    label: int
    predicted: int
    posterior: np.ndarray
    entropy: float
    effective_snr: float
    resolved_mode: str | None = None


@dataclass(frozen=True, eq=False)
class TrialDraws:
    """What an adaptive run keeps of its trials for the other access cells
    of its point: the labels (n,) and, per trial, one row of the averaged
    views f_bar (M), the M receive-noise normals, gamma_air and gamma_aoa
    (-inf where N < K) in ``rows`` (n, 2 M + 2)."""

    labels: np.ndarray
    rows: np.ndarray


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Aggregated per-trial arrays from :func:`run_trials`, and the kept
    draws of a run asked to keep them."""

    entropies: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray
    snrs: np.ndarray
    draws: TrialDraws | None = None

    @property
    def trials(self):
        return self.entropies.shape[0]

    @property
    def mean_entropy(self):
        return float(self.entropies.mean())

    @property
    def entropy_stderr(self):
        return _stderr(self.entropies)

    @property
    def accuracy(self):
        return float((self.labels == self.predictions).mean())

    @property
    def accuracy_stderr(self):
        return _stderr((self.labels == self.predictions).astype(float))

    @property
    def mean_effective_snr(self):
        return _mean(self.snrs)


def _mean(values):
    """The mean of ``values``; a sum past the largest float saturates it to inf."""
    with np.errstate(over="ignore"):
        return float(values.mean())


def _stderr(values):
    n = values.shape[0]
    if n < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(n))


def _row_floats(pipeline, M, N, K):
    """Standard normals of one trial of ``pipeline`` at M, N and K."""
    return K * M + (0 if pipeline == "noiseless" else 2 * N * K + M)


def _draw_trials(scenario, pipeline, rngs, n, keep=False):
    """Labels, received vectors, effective SNRs and, for an adaptive run
    that ``keep``s them, the :class:`TrialDraws` rows of n trials (else
    None): one generator each.

    Each trial draws its label, then one row of standard normals, the same
    values as one call per block: K M for the views, N K real and N K
    imaginary channel parts and M receive noise samples (noiseless: the
    views alone).  Views, channels and noise are formed on the stack.  A
    trial whose SNR is 0 discards its noise; nothing is drawn after it.
    """
    M, N, K = scenario.feature_dim, scenario.num_antennas, scenario.num_sensors
    L, labels = scenario.num_classes, np.empty(n, dtype=np.int64)
    z = np.empty((n, _row_floats(pipeline, M, N, K)))
    for i, rng in enumerate(rngs):
        labels[i] = sample_label(L, rng)
        rng.standard_normal(out=z[i])
    local = sample_local_features(scenario, labels, z[:, : K * M].reshape(n, K, M))
    f_bar = aggregate_noiseless(local)
    if pipeline == "noiseless":
        return labels, f_bar, np.full(n, np.inf), None
    H = sample_channel(z[:, K * M : -M].reshape(n, 2, N, K))
    snrs, pairs = _pipeline_snrs(scenario, pipeline, H)
    noise = z[:, -M:]
    kept = np.column_stack((f_bar, noise, *pairs)) if keep and pairs is not None else None
    return labels, _receive(f_bar, snrs, noise), snrs, kept


def _classify(scenario, f_tilde, snrs):
    """Entropies, posteriors and decisions for received vectors (n, M) at
    effective SNRs (n,).  A trial whose SNR delivers nothing (SNR 0, or
    one whose 1/snr overflows) had no usable channel: its posterior carries
    no information, so its logits are zero."""
    logits = np.zeros((snrs.shape[0], scenario.num_classes))
    usable = _delivers(snrs)
    if usable.any():
        # 1/snr is 0.0 at infinite SNR
        logits[usable] = _posterior_logits(scenario, f_tilde[usable], 1.0 / snrs[usable, None])
    return *_entropies(logits), logits.argmax(axis=1)


def simulate_trial(scenario, pipeline, rng):
    """Run one trial and return the full :class:`TrialRecord`.

    With ``rng = substream(seed, stream_id, point_index, trial_index)`` this
    replays trial ``trial_index`` of the matching :func:`run_trials` call.
    """
    labels, f_tilde, snrs, kept = _draw_trials(scenario, pipeline, [rng], 1, keep=True)
    entropies, posteriors, predictions = _classify(scenario, f_tilde, snrs)
    resolved = None
    if kept is not None:
        resolved = "aircomp" if best_access(*kept[0, -2:])[1] else "orthogonal"
    return TrialRecord(
        label=int(labels[0]),
        predicted=int(predictions[0]),
        posterior=posteriors[0],
        entropy=float(entropies[0]),
        effective_snr=float(snrs[0]),
        resolved_mode=resolved,
    )


def _run_stack(scenario, pipeline, stream_id, point_index, keep, draws, start, stop):
    """Draw and classify trials [start, stop), one stream each, in one step;
    given kept ``draws``, classify theirs and draw nothing."""
    if draws is None:
        rngs = trial_streams(scenario.config.master_seed, stream_id, point_index, start, stop)
        labels, f_tilde, snrs, kept = _draw_trials(scenario, pipeline, rngs, stop - start, keep)
    else:  # f_bar plus the kept noise at this pipeline's SNR of the kept pair
        M, rows, kept = scenario.feature_dim, draws.rows[start:stop], None
        labels, snrs = draws.labels[start:stop], rows[:, 2 * M + (pipeline == "orthogonal")]
        f_tilde = _receive(rows[:, :M], snrs, rows[:, M : 2 * M])
    entropies, _, predictions = _classify(scenario, f_tilde, snrs)
    return entropies, labels, predictions, snrs, kept


def run_trials(
    scenario,
    pipeline,
    trials,
    *,
    stream_id=STREAM_TRIALS,
    point_index=0,
    workers=1,
    keep_draws=False,
    draws=None,
):
    """Run Monte Carlo trials of one access pipeline.

    Each trial draws its own random stream from
    (master_seed, stream_id, point_index, trial_index), so the result is
    independent of ``workers`` and of scheduling, and pipelines evaluated
    with the same stream coordinates see identical labels, features, and
    channels (paired comparisons).  :func:`run_stacks` runs the trials on
    ``workers`` processes in stacks, each drawn and classified in one step.
    The returned :class:`TrialBatch` carries the uncertainty and accuracy
    estimates with their standard errors.
    With ``keep_draws`` an adaptive run also returns its trials'
    :class:`TrialDraws`.  Given them as ``draws``, an aircomp or orthogonal
    run draws nothing: it receives each kept trial at its own SNR of the
    kept pair, which is what it would draw from the same streams.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if keep_draws and pipeline != "adaptive":
        raise ValueError("only adaptive runs form both SNRs of a trial to keep")
    if draws is not None and pipeline not in ("aircomp", "orthogonal"):
        raise ValueError("only aircomp and orthogonal runs take kept draws")
    M, N, K = scenario.feature_dim, scenario.num_antennas, scenario.num_sensors
    if draws is not None and draws.rows.shape != (trials, 2 * M + 2):
        raise ValueError("draws must hold one row of 2 M + 2 floats per trial")
    if pipeline == "orthogonal" and N < K:
        raise InfeasibleAccessError(f"orthogonal access infeasible: N={N} < K={K}")
    stack = partial(_run_stack, scenario, pipeline, stream_id, point_index, keep_draws, draws)
    # entropies, labels, predictions and effective SNRs, each its own array,
    # and the kept rows; a run given draws shares their labels
    out = [np.empty(trials, dtype) for dtype in (float, np.int64, np.int64, float)]
    if draws is not None:
        out[1] = draws.labels
    if keep_draws:
        out.append(np.empty((trials, 2 * M + 2)))
    run_stacks(stack, trials, _row_floats(pipeline, M, N, K), out, workers)
    return TrialBatch(*out[:4], TrialDraws(out[1], out[4]) if keep_draws else None)


def rows_per_stack(row_floats):
    """Rows per stack: at most _STACK_ROWS and as many rows of ``row_floats``
    standard normals as fit in _STACK_BYTES, at least one."""
    return min(_STACK_ROWS, max(1, _STACK_BYTES // (8 * row_floats)))


def run_stacks(stack, count, row_floats, out, workers=1):
    """Fill the arrays ``out`` with the parts ``stack(a, b)`` returns for the
    items [a, b) of ``count``, in stacks of :func:`rows_per_stack` rows of
    ``row_floats``.  At ``workers``, bounded by the usable CPUs and stacks,
    the caller runs every ``workers``-th stack and one fork pool the rest."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    step = rows_per_stack(row_floats)
    spans = [(a, min(a + step, count)) for a in range(0, count, step)]
    # a fork pool starts all its workers at once: no more than CPUs or stacks
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(spans))

    def keep(a, b, parts):
        for field, part in zip(out, parts):
            field[a:b] = part

    with one_blas_thread():  # forked workers inherit the one thread
        if workers <= 1:
            for a, b in spans:
                keep(a, b, stack(a, b))
            return
        from concurrent.futures import ProcessPoolExecutor
        # the calling process runs every workers-th stack and the pool the
        # rest, in one message per worker: four cost mc-access 12 % of its time
        pooled = [span for i, span in enumerate(spans) if i % workers]
        batch = -(-len(pooled) // (workers - 1))
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            theirs = pool.map(stack, *zip(*pooled), chunksize=batch)
            for a, b in spans[::workers]:
                keep(a, b, stack(a, b))
            for (a, b), parts in zip(pooled, theirs):
                keep(a, b, parts)
