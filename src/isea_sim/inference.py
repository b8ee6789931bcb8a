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
from .channel import (
    adaptive_receive,
    aircomp_receive,
    orthogonal_receive,
    sample_channel,
)
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


def _draw_trial(scenario, pipeline, rng):
    """One trial's label, received vector, effective SNR and resolved mode."""
    label = sample_label(scenario.num_classes, rng)
    features = sample_local_features(scenario, label, rng)
    if pipeline == "noiseless":
        return label, aggregate_noiseless(features), np.inf, None
    ch = sample_channel(scenario.num_antennas, scenario.num_sensors, rng)
    if pipeline == "aircomp":
        outcome = aircomp_receive(scenario, ch, features, rng)
    elif pipeline == "orthogonal":
        outcome = orthogonal_receive(scenario, ch, features, rng)
    elif pipeline == "adaptive":
        outcome = adaptive_receive(scenario, ch, features, rng)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return label, outcome.f_tilde, outcome.effective_snr, outcome.resolved_mode


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
    label, f_tilde, snr_value, resolved = _draw_trial(scenario, pipeline, rng)
    entropies, posteriors, predictions = _classify(scenario, f_tilde[None], np.array([snr_value]))
    return TrialRecord(
        label=label,
        predicted=int(predictions[0]),
        posterior=posteriors[0],
        entropy=float(entropies[0]),
        effective_snr=snr_value,
        resolved_mode=resolved,
    )


def _run_chunk(scenario, pipeline, master_seed, stream_id, point_index, start, stop):
    """Draw trials [start, stop) one stream at a time, then classify them
    as one batch."""
    n = stop - start
    labels = np.empty(n, dtype=np.int64)
    f_tilde = np.empty((n, scenario.feature_dim))
    snrs = np.empty(n)
    rngs = trial_streams(master_seed, stream_id, point_index, start, stop)
    for i, rng in enumerate(rngs):
        labels[i], f_tilde[i], snrs[i], _ = _draw_trial(scenario, pipeline, rng)
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
    channels (paired comparisons).  The returned :class:`TrialBatch`
    carries the uncertainty and accuracy estimates with their standard
    errors.
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
    starts = range(0, trials, _CHUNK_TRIALS)
    stops = [min(start + _CHUNK_TRIALS, trials) for start in starts]
    with one_blas_thread():  # forked workers inherit the one thread
        if workers <= 1 or len(starts) == 1:
            parts = list(map(chunk, starts, stops))
        else:
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts all its workers at once; more than one per
            # chunk would sit idle
            with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
                parts = list(pool.map(chunk, starts, stops))
    # each part is a chunk's (entropies, labels, predictions, effective_snrs)
    return TrialBatch(*map(np.concatenate, zip(*parts)))
