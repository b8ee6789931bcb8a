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
Each statistic is one function of one draw or of a stack of draws
(..., N, K), each row equal bit for bit to its draw taken alone; the
receivers and their one-draw SNRs are one-row calls of them.
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
# Channel statistics run on stacks of at most this many bytes of channel
# matrices, so their temporaries stay near one draw's footprint at any N K
# (whole 512-trial chunks at N K <= 32); stacking changes no value.
_STACK_BYTES = 2**18


def rows_per_stack(num_antennas, num_sensors):
    """Draws per stack: as many complex N x K matrices as fit in
    _STACK_BYTES, and at least one."""
    return max(1, _STACK_BYTES // (16 * num_antennas * num_sensors))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the N x K channel, or a stack of draws (..., N, K), with
    its principal singular structure.

    ``q1`` is the principal right singular vector of H (unit norm,
    largest-magnitude entry made real positive) and ``lambda1`` the
    largest eigenvalue of H^H H.  The receive beam v = H q1 / sqrt(lambda1)
    is never needed: v^H h_k = sqrt(lambda1) conj(q1_k).
    """

    H: np.ndarray        # (..., N, K) complex
    lambda1: float       # (...) for a stack
    q1: np.ndarray       # (..., K) complex

    @property
    def num_antennas(self):
        return self.H.shape[-2]

    @property
    def num_sensors(self):
        return self.H.shape[-1]


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


def _conj_t(H):
    """Conjugate transpose of each matrix of a stack; a fresh copy each call,
    so no copy outlives the product it feeds."""
    return np.conj(H).swapaxes(-1, -2)


def _top_eigenpairs(G):
    """Largest eigenvalue and its eigenvector of each Hermitian matrix in a
    stack G (n, m, m)."""
    m = G.shape[-1]
    if m <= _FULL_EIG_MAX:
        w, V = np.linalg.eigh(G)
        return w[:, -1], V[:, :, -1]
    pairs = [scipy.linalg.eigh(g, subset_by_index=[m - 1, m - 1]) for g in G]
    return np.array([w[0] for w, _ in pairs]), np.array([V[:, 0] for _, V in pairs])


def _principal_pairs(H):
    """``(lambda1, q1)`` of each matrix in a stack H (n, N, K), each row
    equal bit for bit to the same matrix taken on its own.

    The eigendecomposition runs on the smaller Gram matrix.  q1 is scaled
    to unit norm, each row's squared norm being two dot products of its
    strided real and imaginary parts, and its largest-magnitude entry is
    made real positive with that entry's scalar modulus (``np.hypot``).
    """
    wide = H.shape[1] <= H.shape[2]
    lam, v = _top_eigenpairs(H @ _conj_t(H) if wide else _conj_t(H) @ H)
    if np.any(lam <= 0):
        raise NumericalError("channel matrix has no positive singular value")
    q1 = (_conj_t(H) @ v[..., None])[..., 0] / np.sqrt(lam)[:, None] if wide else v
    re, im = q1.real, q1.imag
    norm = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    q1 = q1 / norm[:, 0]
    # q1 is a unit vector, so its largest entry is nonzero
    top = q1[np.arange(q1.shape[0]), np.argmax(np.abs(q1), axis=1)]
    return lam, q1 * (top.conj() / np.hypot(top.real, top.imag))[:, None]


def realization_from_matrix(H):
    """Attach the principal singular pair to an explicit channel matrix, or
    to each matrix of a stack (..., N, K).

    A stack gives ``lambda1`` of shape (...) and ``q1`` of shape (..., K),
    each row equal to that matrix's own realization.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2:
        raise ValueError("channel matrix must be at least two-dimensional")
    lam, q1 = _principal_pairs(H.reshape(-1, *H.shape[-2:]))
    return ChannelRealization(
        H=H, lambda1=lam.reshape(H.shape[:-2])[()], q1=q1.reshape(*H.shape[:-2], H.shape[-1])
    )


def sample_channel(z):
    """H (..., N, K) with i.i.d. CN(0, 1) entries from standard normals ``z``
    (..., 2, N, K), real parts first; each part times 1/sqrt(2) has the bits
    of ``(z[0] + 1j * z[1]) / np.sqrt(2.0)``."""
    H = np.empty(z.shape[:-3] + z.shape[-2:], dtype=complex)
    H.real, H.imag = np.moveaxis(z, -3, 0) * (1 / np.sqrt(2.0))
    return H


def min_beam_alignment(channel):
    """min_k |v^H h_k|^2 = lambda1 min_k |q1_k|^2, the weakest sensor's gain
    along the receive beam, of one draw or of each draw of a stack.

    A sensor whose channel column is exactly zero has no gain at all; the
    eigensolver may still leave a rounding-level q1_k there, so such a
    column is answered with an exact zero.
    """
    align = channel.lambda1 * np.min(np.abs(channel.q1) ** 2, axis=-1)
    return np.where(channel.H.any(axis=-2).all(axis=-1), align, 0.0)[()]


def air_snrs(channel, scenario):
    """``(gamma_air, degenerate)`` of one draw or of each draw of a stack:
    gamma_air = 2 K^2 gamma min_k |v^H h_k|^2 / nu^2, and a draw whose
    weakest alignment vanishes is degenerate with gamma_air = 0."""
    align = min_beam_alignment(channel)
    degenerate = align <= 0
    gamma_air = np.zeros_like(align)
    K = channel.num_sensors
    scale = 2.0 * K**2 * scenario.transmit_snr / scenario.nu_sq
    np.multiply(scale, align, out=gamma_air, where=~degenerate)
    return gamma_air[()], degenerate


def aircomp_effective_snr(channel, scenario):
    """:func:`air_snrs` of one draw as an :class:`AircompSnr`."""
    gamma_air, degenerate = air_snrs(channel, scenario)
    return AircompSnr(gamma_air=float(gamma_air), degenerate=bool(degenerate))


def _receive(f_bar, effective_snrs, noise):
    """The equivalent model every access mode reduces to: the noiseless
    averages (..., M) plus ``noise`` scaled to power 1/snr.  An SNR <= 0
    delivers an all-NaN vector; an infinite one delivers f_bar exactly."""
    usable = effective_snrs > 0
    scale = np.sqrt(1.0 / np.where(usable, effective_snrs, 1.0))
    return np.where(usable[..., None], f_bar + scale[..., None] * noise, np.nan)


def _receive_one(local_features, effective_snr, rng, resolved_mode=None):
    """Receive one feature set at ``effective_snr``; the M noise samples are
    drawn whatever the SNR, as the trial engine draws them."""
    f_bar = aggregate_noiseless(local_features)
    f_tilde = _receive(f_bar, np.asarray(effective_snr), rng.standard_normal(f_bar.shape[0]))
    return AggregationOutcome(f_tilde, effective_snr, resolved_mode)


def aircomp_receive(scenario, channel, local_features, rng):
    """Aggregate sensor features over the air at gamma_air."""
    return _receive_one(local_features, aircomp_effective_snr(channel, scenario).gamma_air, rng)


def zf_norms_sq(H):
    """Squared norms ||b_k||^2 (..., K) of the zero-forcing receive beams
    B = H (H^H H)^-1 of one channel matrix or a stack H (..., N, K): the
    real diagonal of (H^H H)^-1.

    B itself is never formed.  Requires at least as many antennas as
    sensors; raises :class:`InfeasibleAccessError` otherwise and
    :class:`NumericalError` when a Gram matrix is singular.
    """
    N, K = H.shape[-2:]
    if N < K:
        raise InfeasibleAccessError(
            f"zero-forcing needs num_antennas >= num_sensors, got N={N} < K={K}"
        )
    try:
        gram_inv = np.linalg.inv(_conj_t(H) @ H)
    except np.linalg.LinAlgError:
        raise NumericalError("channel Gram matrix is singular") from None
    return np.diagonal(gram_inv, axis1=-2, axis2=-1).real.copy()


def orth_snrs(norms, scenario):
    """gamma_aoa = gamma K^2 / (nu^2 sum_k ||b_k||^2) of each draw, from its
    K zero-forcing norms (..., K); the norms grow as antennas shrink toward
    the sensor count."""
    total_norm = norms.sum(axis=-1)
    gamma = scenario.transmit_snr
    if gamma == np.inf:
        return np.full_like(total_norm, np.inf)[()]
    return gamma * norms.shape[-1] ** 2 / (scenario.nu_sq * total_norm)


def orthogonal_effective_snr(channel, scenario):
    """gamma_aoa of one draw, by :func:`orth_snrs`."""
    return float(orth_snrs(zf_norms_sq(channel.H), scenario))


def orthogonal_receive(scenario, channel, local_features, rng):
    """Aggregate via orthogonal access at gamma_aoa."""
    return _receive_one(local_features, orthogonal_effective_snr(channel, scenario), rng)


def best_access(gamma_air, gamma_aoa):
    """The adaptive SNR of each draw and whether over the air won it.

    gamma_aoa is -inf where orthogonal access is infeasible (N < K), and
    over the air wins exactly when ``gamma_air >= gamma_aoa``: ties and
    infeasible orthogonal access both go to the air.
    """
    air_wins = gamma_air >= gamma_aoa
    return np.where(air_wins, gamma_air, gamma_aoa)[()], air_wins


def adaptive_receive(scenario, channel, local_features, rng):
    """Receive through the access mode with the larger effective SNR for
    this draw, by :func:`best_access`; ``resolved_mode`` names the winner."""
    gamma_air = aircomp_effective_snr(channel, scenario).gamma_air
    feasible = channel.num_antennas >= channel.num_sensors
    gamma_aoa = orthogonal_effective_snr(channel, scenario) if feasible else -np.inf
    snr, air_wins = best_access(gamma_air, gamma_aoa)
    mode = "aircomp" if air_wins else "orthogonal"
    return _receive_one(local_features, float(snr), rng, mode)


def _pipeline_snrs(scenario, pipeline, H):
    """Effective SNRs (n,) of a stack of channel draws H (n, N, K) under an
    access ``pipeline``, and for ``adaptive`` whether over the air won each
    draw (else None)."""
    N, K = H.shape[-2:]
    if pipeline == "orthogonal":
        return orth_snrs(zf_norms_sq(H), scenario), None
    if pipeline not in ("aircomp", "adaptive"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    gamma_air, _ = air_snrs(realization_from_matrix(H), scenario)
    if pipeline == "aircomp":
        return gamma_air, None
    gamma_aoa = -np.inf if N < K else orth_snrs(zf_norms_sq(H), scenario)
    return best_access(gamma_air, gamma_aoa)
