"""Maximum-likelihood fusion classifier and Monte Carlo estimators.

The server classifies the aggregated feature vector under the mixture
model implied by averaging: class means P_bar mu_l and effective
covariance C/K, plus an isotropic term 1/gamma for the channel noise of
the access mode in use.  Posteriors, classification decisions, pairwise
class separations, and the Monte Carlo estimators for sensing uncertainty
and accuracy all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    adaptive_receive,
    aircomp_receive,
    orthogonal_receive,
    sample_channel,
)
from .errors import InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless, sample_label, sample_local_features
from .streams import STREAM_TRIALS, substream

PIPELINES = ("noiseless", "aircomp", "orthogonal", "adaptive")

_COND_LIMIT = 1e12
_CHUNK_TRIALS = 512

# Worker-process state for parallel trial execution, set by _pool_init.
_POOL_STATE = None


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Gaussian classifier for the aggregated feature vector."""

    projected_centroids: np.ndarray   # (L, M) rows P_bar mu_l
    effective_cov: np.ndarray         # (M, M)
    effective_cov_inv: np.ndarray     # (M, M)


def build_classifier(scenario, snr=None):
    """Build the fusion classifier.

    Args:
        scenario: the problem instance.
        snr: effective channel SNR of the access mode, or None/inf for the
            noiseless model.  The effective covariance is C/K plus
            (1/snr) I when finite.

    Raises:
        NumericalError: if the effective covariance has condition number
            above 1e12, or its computed inverse fails the identity check
            at 1e-8.
    """
    noise_power = _noise_power_from_snr(snr)
    K = scenario.num_sensors
    evals = scenario.C_evals / K + noise_power
    if evals.max() / evals.min() > _COND_LIMIT:
        raise NumericalError(
            "effective covariance condition number exceeds 1e12; "
            "inversion results would not be trustworthy"
        )
    V = scenario.C_evecs
    cov = V @ (evals[:, None] * V.T)
    inv = V @ ((1.0 / evals)[:, None] * V.T)
    cov = 0.5 * (cov + cov.T)
    inv = 0.5 * (inv + inv.T)
    M = scenario.feature_dim
    if np.max(np.abs(cov @ inv - np.eye(M))) > 1e-8:
        raise NumericalError("effective covariance inverse fails the identity check")
    return ClassifierModel(
        projected_centroids=scenario.proj_centroids,
        effective_cov=cov,
        effective_cov_inv=inv,
    )


def _noise_power_from_snr(snr):
    if snr is None or snr == np.inf:
        return 0.0
    if not snr > 0:
        raise ValueError("snr must be positive, infinite, or None")
    return 1.0 / snr


def _mahalanobis_sq(model, f_tilde):
    diff = model.projected_centroids - np.asarray(f_tilde, dtype=float)[None, :]
    return np.einsum("li,ij,lj->l", diff, model.effective_cov_inv, diff)


def ml_classify(model, f_tilde):
    """Maximum-likelihood class decision; ties resolve to the lowest index."""
    return int(np.argmin(_mahalanobis_sq(model, f_tilde)))


def posterior_probabilities(model, f_tilde):
    """Class posterior under the uniform prior, via max-shifted softmax."""
    return _softmax(-0.5 * _mahalanobis_sq(model, f_tilde))


def _softmax(logits):
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def posterior_entropy(posterior):
    """Shannon entropy (natural log) of a posterior vector."""
    p = np.asarray(posterior, dtype=float)
    nonzero = p > 0
    return float(-(p[nonzero] * np.log(p[nonzero])).sum())


def _posterior_logits(scenario, f_tilde, noise_power):
    """Per-class log-likelihoods up to a constant, via C's eigenbasis.

    Equivalent to the :class:`ClassifierModel` route but without forming
    the M x M inverse; used on the per-trial hot path.
    """
    # C_evals is ascending, so adding the isotropic noise keeps the order.
    evals = scenario.C_evals / scenario.num_sensors + noise_power
    if evals[-1] / evals[0] > _COND_LIMIT:
        raise NumericalError("effective covariance condition number exceeds 1e12")
    y = np.asarray(f_tilde, dtype=float) @ scenario.C_evecs
    diff = scenario.proj_centroids_eig - y[None, :]
    return -0.5 * ((diff * diff) @ (1.0 / evals))


def _entropy_from_logits(logits):
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    total = weights.sum()
    entropy = np.log(total) - float(weights @ shifted) / total
    return max(float(entropy), 0.0)


def local_discrimination_gain(scenario, sensor_index, label_a, label_b):
    """Mahalanobis separation of two classes as seen by one sensor:
    (mu_a - mu_b)^T P_k C^-1 P_k (mu_a - mu_b)."""
    delta = scenario.centroids[label_a] - scenario.centroids[label_b]
    proj = scenario.P[sensor_index] @ delta
    return float(proj @ scenario.C_inv @ proj)


def _separation_weight(scenario, snr):
    """Inverse of the per-pair covariance C + (K/snr) I, in factored form."""
    noise = 0.0 if snr is None or snr == np.inf else scenario.num_sensors / snr
    evals = scenario.C_evals + noise
    V = scenario.C_evecs
    return V @ ((1.0 / evals)[:, None] * V.T)


def pairwise_separation(scenario, label_a, label_b, snr=None):
    """Separation of one class pair after fusion.

    Noiseless: (mu_a - mu_b)^T P_bar C^-1 P_bar (mu_a - mu_b), which is K
    times smaller than the separation under the effective covariance C/K.
    With a finite ``snr`` the weighting becomes (C + (K/snr) I)^-1.
    """
    delta = scenario.centroids[label_a] - scenario.centroids[label_b]
    proj = scenario.P_bar @ delta
    return float(proj @ _separation_weight(scenario, snr) @ proj)


def pairwise_separation_matrix(scenario, snr=None):
    """All pairwise separations as a symmetric (L, L) matrix, zero diagonal."""
    W = _separation_weight(scenario, snr)
    proj = scenario.proj_centroids
    G = proj @ W @ proj.T
    d = np.diag(G)
    # group the symmetric terms so the result is symmetric bit-for-bit
    pw = (d[:, None] + d[None, :]) - (G + G.T)
    np.fill_diagonal(pw, 0.0)
    return pw


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Outcome of a single Monte Carlo trial."""

    label: int
    predicted: int
    posterior: np.ndarray
    entropy: float
    effective_snr: float
    pipeline: str
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


def _run_one_trial(scenario, pipeline, rng, fixed_channel):
    label = sample_label(scenario.num_classes, rng)
    features = sample_local_features(scenario, label, rng)
    resolved = None
    if pipeline == "noiseless":
        f_tilde = aggregate_noiseless(features)
        snr_value, noise_power = np.inf, 0.0
        degenerate = False
    else:
        ch = fixed_channel
        if ch is None:
            ch = sample_channel(scenario.num_antennas, scenario.num_sensors, rng)
        if pipeline == "aircomp":
            outcome = aircomp_receive(scenario, ch, features, rng)
        elif pipeline == "orthogonal":
            outcome = orthogonal_receive(scenario, ch, features, rng)
        elif pipeline == "adaptive":
            outcome = adaptive_receive(scenario, ch, features, rng)
        else:
            raise ValueError(f"unknown pipeline {pipeline!r}")
        f_tilde = outcome.f_tilde
        snr_value = outcome.effective_snr
        noise_power = outcome.noise_power_per_dim
        resolved = outcome.resolved_mode
        degenerate = outcome.degenerate
    if degenerate:
        # No usable channel: the posterior carries no information.
        logits = np.zeros(scenario.num_classes)
    else:
        logits = _posterior_logits(scenario, f_tilde, noise_power)
    predicted = int(np.argmax(logits))
    entropy = _entropy_from_logits(logits)
    return label, predicted, entropy, snr_value, logits, resolved


def simulate_trial(scenario, pipeline, rng, fixed_channel=None):
    """Run one trial and return the full :class:`TrialRecord`."""
    label, predicted, entropy, snr_value, logits, resolved = _run_one_trial(
        scenario, pipeline, rng, fixed_channel
    )
    return TrialRecord(
        label=label,
        predicted=predicted,
        posterior=_softmax(logits),
        entropy=entropy,
        effective_snr=snr_value,
        pipeline=pipeline,
        resolved_mode=resolved,
    )


def _run_chunk(scenario, pipeline, master_seed, stream_id, point_index, start, stop, fixed_channel):
    n = stop - start
    entropies = np.empty(n)
    labels = np.empty(n, dtype=np.int64)
    predictions = np.empty(n, dtype=np.int64)
    snrs = np.empty(n)
    for i in range(n):
        rng = substream(master_seed, stream_id, point_index, start + i)
        label, predicted, entropy, snr_value, _, _ = _run_one_trial(
            scenario, pipeline, rng, fixed_channel
        )
        entropies[i] = entropy
        labels[i] = label
        predictions[i] = predicted
        snrs[i] = snr_value
    return entropies, labels, predictions, snrs


def _pool_init(scenario, pipeline, master_seed, stream_id, point_index, fixed_channel):
    global _POOL_STATE
    _POOL_STATE = (scenario, pipeline, master_seed, stream_id, point_index, fixed_channel)


def _pool_chunk(bounds):
    scenario, pipeline, master_seed, stream_id, point_index, fixed_channel = _POOL_STATE
    start, stop = bounds
    return _run_chunk(
        scenario, pipeline, master_seed, stream_id, point_index, start, stop, fixed_channel
    )


def run_trials(
    scenario,
    pipeline,
    trials,
    *,
    stream_id=STREAM_TRIALS,
    point_index=0,
    workers=1,
    fixed_channel=None,
):
    """Run Monte Carlo trials of one access pipeline.

    Each trial draws its own random stream from
    (master_seed, stream_id, point_index, trial_index), so the result is
    independent of ``workers`` and of scheduling, and pipelines evaluated
    with the same stream coordinates see identical labels, features, and
    channels (paired comparisons).

    The channel is redrawn every trial unless ``fixed_channel`` is given.
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
    seed = scenario.config.master_seed
    bounds = [
        (start, min(start + _CHUNK_TRIALS, trials))
        for start in range(0, trials, _CHUNK_TRIALS)
    ]
    if workers <= 1 or len(bounds) == 1:
        parts = [
            _run_chunk(scenario, pipeline, seed, stream_id, point_index, a, b, fixed_channel)
            for a, b in bounds
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(scenario, pipeline, seed, stream_id, point_index, fixed_channel),
        ) as pool:
            parts = list(pool.map(_pool_chunk, bounds))
    return TrialBatch(
        entropies=np.concatenate([p[0] for p in parts]),
        labels=np.concatenate([p[1] for p in parts]),
        predictions=np.concatenate([p[2] for p in parts]),
        effective_snrs=np.concatenate([p[3] for p in parts]),
    )


def estimate_uncertainty(scenario, pipeline, trials, **kwargs):
    """Monte Carlo estimate of the expected posterior entropy.

    Returns ``(mean, standard_error)``.  Requires at least 100 trials so
    the normal-approximation error bars are meaningful.
    """
    if trials < 100:
        raise ValueError("estimate_uncertainty needs at least 100 trials")
    batch = run_trials(scenario, pipeline, trials, **kwargs)
    return batch.mean_entropy, batch.entropy_stderr


def estimate_accuracy(scenario, pipeline, trials, **kwargs):
    """Monte Carlo estimate of classification accuracy.

    Returns ``(mean, standard_error)`` with the same trial-pairing
    guarantees as :func:`run_trials`.
    """
    if trials < 100:
        raise ValueError("estimate_accuracy needs at least 100 trials")
    batch = run_trials(scenario, pipeline, trials, **kwargs)
    return batch.accuracy, batch.accuracy_stderr
