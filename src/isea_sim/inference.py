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

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import one_blas_thread
from .channel import _pipeline_snrs, _receive, rows_per_stack, sample_channel
from .errors import InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless, sample_label, sample_local_features
from .streams import STREAM_TRIALS, trial_streams

PIPELINES = ("noiseless", "aircomp", "orthogonal", "adaptive")

_COND_LIMIT = 1e12
_CHUNK_TRIALS = 512


def _noise_power_from_snr(snr):
    if not snr > 0:
        raise ValueError("snr must be positive or infinite")
    return 1.0 / snr  # 0.0 at infinite SNR


def ml_classify(scenario, f_tilde, snr=np.inf):
    """Maximum-likelihood class decision at effective channel SNR ``snr``
    (inf for the noiseless model); ties resolve to the lowest index."""
    return int(np.argmax(_posterior_logits(scenario, f_tilde, _noise_power_from_snr(snr))))


def posterior_probabilities(scenario, f_tilde, snr=np.inf):
    """Class posterior under the uniform prior, via max-shifted softmax."""
    return _entropies(_posterior_logits(scenario, f_tilde, _noise_power_from_snr(snr)))[1]


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
    adds 0 log 0 = 0, also when its logit is -inf."""
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
class TrialBatch:
    """Aggregated per-trial arrays from :func:`run_trials`."""

    entropies: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray
    effective_snrs: np.ndarray

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
        return float(self.effective_snrs.mean())


def _stderr(values):
    n = values.shape[0]
    if n < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(n))


def _draw_trials(scenario, pipeline, rngs, n):
    """Labels, received vectors, effective SNRs and, for ``adaptive``,
    whether over the air won (else None), of n trials: one generator each.

    Each trial draws its label, then one row of standard normals, the same
    values as one call per block: K M for the views, N K real and N K
    imaginary channel parts and M receive noise samples (noiseless: the
    views alone).  Views, channels and noise are formed on the stack.  A
    trial whose SNR is 0 discards its noise; nothing is drawn after it.
    """
    M, N, K = scenario.feature_dim, scenario.num_antennas, scenario.num_sensors
    labels = np.empty(n, dtype=np.int64)
    z = np.empty((n, K * M + (0 if pipeline == "noiseless" else 2 * N * K + M)))
    for i, rng in enumerate(rngs):
        labels[i] = sample_label(scenario.num_classes, rng)
        rng.standard_normal(out=z[i])
    local = sample_local_features(scenario, labels, z[:, : K * M].reshape(n, K, M))
    f_bar = aggregate_noiseless(local)
    if pipeline == "noiseless":
        return labels, f_bar, np.full(n, np.inf), None
    H = sample_channel(z[:, K * M : -M].reshape(n, 2, N, K))
    snrs, air_wins = _pipeline_snrs(scenario, pipeline, H)
    return labels, _receive(f_bar, snrs, z[:, -M:]), snrs, air_wins


def _classify(scenario, f_tilde, snrs):
    """Entropies, posteriors and decisions for received vectors (n, M) at
    effective SNRs (n,).  A trial with SNR <= 0 had no usable channel: its
    posterior carries no information, so its logits are zero."""
    logits = np.zeros((snrs.shape[0], scenario.num_classes))
    usable = snrs > 0
    if usable.any():
        # 1/snr is 0.0 at infinite SNR
        logits[usable] = _posterior_logits(scenario, f_tilde[usable], 1.0 / snrs[usable, None])
    return *_entropies(logits), logits.argmax(axis=1)


def simulate_trial(scenario, pipeline, rng):
    """Run one trial and return the full :class:`TrialRecord`.

    With ``rng = substream(seed, stream_id, point_index, trial_index)`` this
    replays trial ``trial_index`` of the matching :func:`run_trials` call.
    """
    labels, f_tilde, snrs, air_wins = _draw_trials(scenario, pipeline, [rng], 1)
    entropies, posteriors, predictions = _classify(scenario, f_tilde, snrs)
    resolved = None
    if air_wins is not None:
        resolved = "aircomp" if air_wins[0] else "orthogonal"
    return TrialRecord(
        label=int(labels[0]),
        predicted=int(predictions[0]),
        posterior=posteriors[0],
        entropy=float(entropies[0]),
        effective_snr=float(snrs[0]),
        resolved_mode=resolved,
    )


def _run_chunk(scenario, pipeline, master_seed, stream_id, point_index, start, stop):
    """Draw trials [start, stop), one stream each, in stacks of
    :func:`rows_per_stack` channel draws, then classify them as one batch."""
    step = rows_per_stack(scenario.num_antennas, scenario.num_sensors)
    parts = []
    for a in range(start, stop, step):
        b = min(a + step, stop)
        rngs = trial_streams(master_seed, stream_id, point_index, a, b)
        parts.append(_draw_trials(scenario, pipeline, rngs, b - a)[:3])
    labels, f_tilde, snrs = map(np.concatenate, zip(*parts))
    entropies, _, predictions = _classify(scenario, f_tilde, snrs)
    return entropies, labels, predictions, snrs


def run_trials(
    scenario,
    pipeline,
    trials,
    *,
    stream_id=STREAM_TRIALS,
    point_index=0,
    workers=1,
):
    """Run Monte Carlo trials of one access pipeline.

    Each trial draws its own random stream from
    (master_seed, stream_id, point_index, trial_index), so the result is
    independent of ``workers`` and of scheduling, and pipelines evaluated
    with the same stream coordinates see identical labels, features, and
    channels (paired comparisons).  The calling process runs every
    ``workers``-th chunk of 512 trials, and a pool of at most workers - 1
    forked processes the rest.  The returned :class:`TrialBatch` carries
    the uncertainty and accuracy estimates with their standard errors.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if pipeline == "orthogonal" and scenario.num_antennas < scenario.num_sensors:
        raise InfeasibleAccessError(
            "orthogonal access infeasible: "
            f"N={scenario.num_antennas} < K={scenario.num_sensors}"
        )
    chunk = partial(
        _run_chunk, scenario, pipeline, scenario.config.master_seed, stream_id, point_index
    )
    spans = [(a, min(a + _CHUNK_TRIALS, trials)) for a in range(0, trials, _CHUNK_TRIALS)]
    with one_blas_thread():  # forked workers inherit the one thread
        if workers <= 1 or len(spans) == 1:
            parts = [chunk(*span) for span in spans]
        else:
            from concurrent.futures import ProcessPoolExecutor

            # the calling process runs every workers-th chunk; a fork pool
            # starts all its workers at once, so it gets no more than chunks
            pooled = [span for i, span in enumerate(spans) if i % workers]
            with ProcessPoolExecutor(max_workers=min(workers - 1, len(pooled))) as pool:
                theirs = pool.map(chunk, *zip(*pooled))
                done = {span: chunk(*span) for span in spans[::workers]}
                done.update(zip(pooled, theirs))
            parts = [done[span] for span in spans]
    # each part is a chunk's (entropies, labels, predictions, effective_snrs)
    return TrialBatch(*map(np.concatenate, zip(*parts)))
