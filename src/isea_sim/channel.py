"""Rayleigh SIMO multi-access channel and analog aggregation front ends.

Two access modes are modeled.  Over-the-air aggregation lets all sensors
transmit simultaneously with power control inverting the channel along the
receive beam v; its effective SNR is limited by the weakest alignment
|v^H h_k|^2 = lambda1 |q1_k|^2, so a draw is summarized by the principal
pair (lambda1, q1) alone.  Orthogonal access gives each sensor its own
slot with a zero-forcing receive beam b_k, trading noise amplification for
isolation; its SNR needs only ||b_k||^2, the diagonal of (H^H H)^-1.
Both reduce to the noiseless average plus isotropic Gaussian noise whose
power is the inverse effective SNR, which is how receivers simulate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless

# Random square Gram matrices have a tight spectral gap at the edge, so
# iterative methods converge slowly; LAPACK is faster at every size we hit.
# At one OpenBLAS thread the subset eigensolver (in scipy's OpenBLAS) beats the
# full one (in numpy's) from 13 rows on.  The switch stays at 64 rows for
# callers that draw channels in their own loop at the default thread count:
# there the idle threads of the two builds fight for the cores, and a K = 50
# draw that switches builds takes 10 ms instead of 1 ms.
_FULL_EIG_MAX = 64


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the N x K channel with its principal singular structure.

    ``q1`` is the principal right singular vector of H (unit norm,
    largest-magnitude entry made real positive) and ``lambda1`` the
    largest eigenvalue of H^H H.  The receive beam v = H q1 / sqrt(lambda1)
    is never needed: v^H h_k = sqrt(lambda1) conj(q1_k).
    """

    H: np.ndarray        # (N, K) complex
    lambda1: float
    q1: np.ndarray       # (K,) complex

    @property
    def num_antennas(self):
        return self.H.shape[0]

    @property
    def num_sensors(self):
        return self.H.shape[1]


@dataclass(frozen=True, eq=False)
class AircompSnr:
    """Effective SNR of over-the-air aggregation for one channel draw."""

    gamma_air: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class AggregationOutcome:
    """Result of pushing one feature set through an access pipeline.

    ``f_tilde`` is the noiseless average plus noise of power
    1/``effective_snr`` per dimension; an SNR of 0 means nothing got
    through and ``f_tilde`` is all NaN.  The adaptive pipeline names the
    branch that won in ``resolved_mode``.
    """

    f_tilde: np.ndarray
    effective_snr: float
    resolved_mode: str | None = None


def _fix_phase(x):
    j = int(np.argmax(np.abs(x)))
    mag = abs(x[j])
    if mag == 0:
        return x
    return x * (x[j].conjugate() / mag)


def _top_eigenpair(G):
    n = G.shape[0]
    if n <= _FULL_EIG_MAX:
        w, V = np.linalg.eigh(G)
        return float(w[-1]), V[:, -1]
    w, V = scipy.linalg.eigh(G, subset_by_index=[n - 1, n - 1])
    return float(w[0]), V[:, 0]


def realization_from_matrix(H):
    """Attach the principal singular pair to an explicit channel matrix.

    The eigendecomposition runs on the smaller Gram matrix of H.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2:
        raise ValueError("channel matrix must be two-dimensional")
    num_antennas, num_sensors = H.shape
    if num_antennas <= num_sensors:
        lam, v = _top_eigenpair(H @ H.conj().T)
        if lam <= 0:
            raise NumericalError("channel matrix has no positive singular value")
        q1 = H.conj().T @ v / np.sqrt(lam)
    else:
        lam, q1 = _top_eigenpair(H.conj().T @ H)
        if lam <= 0:
            raise NumericalError("channel matrix has no positive singular value")
    q1 = _fix_phase(q1 / np.linalg.norm(q1))
    return ChannelRealization(H=H, lambda1=lam, q1=q1)


def sample_channel(num_antennas, num_sensors, rng):
    """Draw H with i.i.d. CN(0, 1) entries and attach its principal pair."""
    shape = (num_antennas, num_sensors)
    H = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return realization_from_matrix(H)


def min_beam_alignment(channel):
    """min_k |v^H h_k|^2 = lambda1 min_k |q1_k|^2, the weakest sensor's gain
    along the receive beam.

    A sensor whose channel column is exactly zero has no gain at all; the
    eigensolver may still leave a rounding-level q1_k there, so such a
    column is answered with an exact zero.
    """
    if not channel.H.any(axis=0).all():
        return 0.0
    return channel.lambda1 * float(np.min(np.abs(channel.q1) ** 2))


def scaled_min_alignment(channel):
    """K-scaled weakest alignment; converges to Exp((1 + sqrt(w))^2) in law
    when the array grows proportionally, N = w K."""
    return channel.num_sensors * min_beam_alignment(channel)


def aircomp_effective_snr(channel, scenario):
    """Effective SNR of over-the-air aggregation.

    Returns an :class:`AircompSnr` carrying gamma_air = 2 K^2 gamma
    min_k |v^H h_k|^2 / nu^2.  A channel whose weakest alignment vanishes
    is flagged degenerate with gamma_air = 0.
    """
    min_align = min_beam_alignment(channel)
    if min_align <= 0:
        return AircompSnr(gamma_air=0.0, degenerate=True)
    K = channel.num_sensors
    gamma_air = 2.0 * K**2 * scenario.transmit_snr / scenario.nu_sq * min_align
    return AircompSnr(gamma_air=float(gamma_air))


def _receive(local_features, effective_snr, rng, resolved_mode=None):
    """The equivalent model every access mode reduces to: the noiseless
    average plus N(0, (1/snr) I).  An SNR of 0 delivers an all-NaN vector
    and draws nothing; an infinite one still consumes its draw."""
    f_bar = aggregate_noiseless(local_features)
    if effective_snr <= 0:
        f_tilde = np.full_like(f_bar, np.nan)
    else:
        f_tilde = f_bar + np.sqrt(1.0 / effective_snr) * rng.standard_normal(f_bar.shape[0])
    return AggregationOutcome(f_tilde, effective_snr, resolved_mode)


def aircomp_receive(scenario, channel, local_features, rng):
    """Aggregate sensor features over the air at gamma_air."""
    return _receive(local_features, aircomp_effective_snr(channel, scenario).gamma_air, rng)


def zf_norms_sq(channel):
    """Squared norms ||b_k||^2 of the zero-forcing receive beams
    B = H (H^H H)^-1, which are the real diagonal of (H^H H)^-1.

    B itself is never formed.  Requires at least as many antennas as
    sensors; raises :class:`InfeasibleAccessError` otherwise and
    :class:`NumericalError` when the Gram matrix is singular.
    """
    N, K = channel.H.shape
    if N < K:
        raise InfeasibleAccessError(
            f"zero-forcing needs num_antennas >= num_sensors, got N={N} < K={K}"
        )
    try:
        gram_inv = np.linalg.inv(channel.H.conj().T @ channel.H)
    except np.linalg.LinAlgError:
        raise NumericalError("channel Gram matrix is singular") from None
    return np.diagonal(gram_inv).real.copy()


def orthogonal_effective_snr(channel, scenario):
    """Effective SNR of orthogonal (per-sensor slot) access.

    gamma_aoa = gamma K^2 / (nu^2 * sum_k ||b_k||^2); the zero-forcing
    norms grow as antennas shrink toward the sensor count.
    """
    total_norm = float(zf_norms_sq(channel).sum())
    gamma = scenario.transmit_snr
    if gamma == np.inf:
        return np.inf
    K = channel.num_sensors
    return float(gamma * K**2 / (scenario.nu_sq * total_norm))


def orthogonal_receive(scenario, channel, local_features, rng):
    """Aggregate via orthogonal access at gamma_aoa."""
    return _receive(local_features, orthogonal_effective_snr(channel, scenario), rng)


def access_snrs(channel, scenario):
    """``(gamma_air, gamma_aoa)`` of one draw, the only access-mode rule.

    gamma_aoa is -inf when orthogonal access is infeasible (N < K), so
    over the air wins exactly when ``gamma_air >= gamma_aoa``: ties and
    infeasible orthogonal access both go to the air.
    """
    gamma_air = aircomp_effective_snr(channel, scenario).gamma_air
    if channel.num_antennas < channel.num_sensors:
        return gamma_air, -np.inf
    return gamma_air, orthogonal_effective_snr(channel, scenario)


def adaptive_receive(scenario, channel, local_features, rng):
    """Receive through the access mode with the larger effective SNR for
    this draw, by :func:`access_snrs`; ``resolved_mode`` names the winner."""
    gamma_air, gamma_aoa = access_snrs(channel, scenario)
    if gamma_air >= gamma_aoa:
        return _receive(local_features, gamma_air, rng, "aircomp")
    return _receive(local_features, gamma_aoa, rng, "orthogonal")
