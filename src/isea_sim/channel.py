"""Rayleigh SIMO multi-access channel and analog aggregation front ends.

Two access modes are modeled.  Over-the-air aggregation lets all sensors
transmit simultaneously with power control inverting the channel along the
receive beam v; its effective SNR is limited by the weakest alignment
|v^H h_k|^2 = lambda1 |q1_k|^2, so a draw is summarized by the principal
pair (lambda1, q1) alone.  Orthogonal access gives each sensor its own
slot with a zero-forcing receive beam b_k, trading noise amplification for
isolation; its SNR needs only ||b_k||^2, the diagonal of (H^H H)^-1, which
the Cholesky factor of H^H H gives.  Both reduce to the noiseless average
plus isotropic Gaussian noise of power 1/SNR, as receivers simulate them.
Each statistic takes one draw or any stack (..., N, K), real or complex, by
one rule (:func:`_any_stack`), and runs at one BLAS thread; each row equals
its draw taken alone bit for bit.  Receivers and one-draw SNRs are one-row
calls of them.  heevr and trtri are scipy's complex LAPACK routines, looked
up by ``_blas.lapack_func`` without importing ``scipy.linalg``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._blas import lapack_func, one_blas_thread
from .errors import InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless

# Random Gram matrices have a tight spectral gap at the edge, so iterative
# methods converge slowly.  At one thread LAPACK's heevr (MRRR) asked for the
# top pair beats numpy's stacked full eigh from 9 rows on: per matrix 14
# against 16 us at 10 rows, 22 against 44 at 16 and 235 against 575 at 64.
_FULL_EIG_MAX = 8


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


def _any_stack(stat):
    """Let ``stat`` of a complex128 stack H (n, N, K) take one draw or any
    stack (..., N, K), real or complex, at one BLAS thread; each array it
    returns (n, ...) comes back with the draws' leading shape in place of n."""

    @functools.wraps(stat)
    def stacked(H, *args, **kwargs):
        H = np.asarray(H)
        if H.ndim < 2:
            raise ValueError("channel matrix must be at least two-dimensional")
        with one_blas_thread():
            out = stat(H.astype(complex, copy=False).reshape(-1, *H.shape[-2:]), *args, **kwargs)
        many = isinstance(out, tuple)
        parts = tuple(x.reshape(H.shape[:-2] + x.shape[1:])[()] for x in (out if many else (out,)))
        return parts if many else parts[0]

    return stacked


def _conj_t(H):
    """Conjugate transpose of each matrix of a stack; a fresh copy each call,
    so no copy outlives the product it feeds."""
    return np.conj(H).swapaxes(-1, -2)


def _top_eigenpairs(G):
    """Largest eigenvalue and its eigenvector of each Hermitian matrix in a
    stack G (n, m, m); above _FULL_EIG_MAX rows one LAPACK heevr call per
    matrix, with the arguments and workspace ``scipy.linalg.eigh`` passes."""
    n, m = G.shape[:2]
    if m <= _FULL_EIG_MAX:
        w, V = np.linalg.eigh(G)
        return w[:, -1], V[:, :, -1]
    heevr, heevr_lwork = lapack_func("heevr"), lapack_func("heevr_lwork")
    work = {k: int(v.real) for k, v in zip(("lwork", "lrwork", "liwork"), heevr_lwork(m, lower=1))}
    lam, V = np.empty(n), np.empty((n, m), dtype=G.dtype)
    for i, g in enumerate(G):
        w, z, _, _, info = heevr(g, range="I", lower=1, il=m, iu=m, **work)
        if info:
            raise NumericalError("eigensolver failed on a channel Gram matrix")
        lam[i], V[i] = w[0], z[:, 0]
    return lam, V


def _principal_pairs(H, gram=None):
    """``(lambda1, q1)`` of each matrix in a stack H (n, N, K), each row
    equal bit for bit to the same matrix taken on its own.

    The eigendecomposition runs on the smaller Gram matrix: H H^H when
    N < K, else H^H H (``gram`` if given), whose eigenvector is q1.  q1 has
    unit norm, from two dot products of its strided real and imaginary
    parts, and its largest entry is made real positive by its ``np.hypot``.
    """
    wide = H.shape[1] < H.shape[2]
    if gram is None:
        gram = H @ _conj_t(H) if wide else _conj_t(H) @ H
    lam, v = _top_eigenpairs(gram)
    if np.any(lam <= 0):
        raise NumericalError("channel matrix has no positive singular value")
    q1 = (_conj_t(H) @ v[..., None])[..., 0] / np.sqrt(lam)[:, None] if wide else v
    re, im = q1.real, q1.imag
    norm = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    q1 = q1 / norm[:, 0]
    # q1 is a unit vector, so its largest entry is nonzero
    top = q1[np.arange(q1.shape[0]), np.argmax(np.abs(q1), axis=1)]
    return lam, q1 * (top.conj() / np.hypot(top.real, top.imag))[:, None]


@_any_stack
def principal_pair(H):
    """``(lambda1, q1)`` of one channel matrix H or of each matrix of a stack
    (..., N, K): lambda1 (...) is the largest eigenvalue of H^H H and q1
    (..., K) the principal right singular vector (unit norm, largest entry
    real positive).  The receive beam v = H q1 / sqrt(lambda1) is never
    formed: v^H h_k = sqrt(lambda1) conj(q1_k)."""
    return _principal_pairs(H)


def sample_channel(z):
    """H (..., N, K) with i.i.d. CN(0, 1) entries from standard normals ``z``
    (..., 2, N, K), real parts first; each part times 1/sqrt(2) has the bits
    of ``(z[0] + 1j * z[1]) / np.sqrt(2.0)``."""
    H = np.empty(z.shape[:-3] + z.shape[-2:], dtype=complex)
    H.real, H.imag = np.moveaxis(z, -3, 0) * (1 / np.sqrt(2.0))
    return H


def _alignment(H, lambda1, q1):
    """lambda1 min_k |q1_k|^2 of H's principal pair; a sensor whose channel
    column is exactly zero has no gain at all, and the eigensolver may still
    leave a rounding-level q1_k there, so such a draw is answered with an
    exact zero."""
    align = lambda1 * np.min(np.abs(q1) ** 2, axis=-1)
    return np.where(H.any(axis=-2).all(axis=-1), align, 0.0)


@_any_stack
def min_beam_alignment(H):
    """min_k |v^H h_k|^2 = lambda1 min_k |q1_k|^2, the weakest sensor's gain
    along the receive beam, of one draw H or of each draw of a stack."""
    return _alignment(H, *_principal_pairs(H))


def _air_snrs(align, num_sensors, scenario):
    """gamma_air, inf past the largest float, and the degenerate flag from weakest alignments."""
    degenerate = align <= 0
    gamma_air = np.zeros_like(align)
    scale = 2.0 * num_sensors**2 * scenario.transmit_snr / scenario.nu_sq
    with np.errstate(over="ignore"):
        np.multiply(scale, align, out=gamma_air, where=~degenerate)
    return gamma_air[()], degenerate


def air_snrs(H, scenario):
    """``(gamma_air, degenerate)`` of one draw H or of each draw of a stack:
    gamma_air = 2 K^2 gamma min_k |v^H h_k|^2 / nu^2, and a draw whose
    weakest alignment vanishes is degenerate with gamma_air = 0."""
    return _air_snrs(min_beam_alignment(H), np.shape(H)[-1], scenario)


def aircomp_effective_snr(H, scenario):
    """:func:`air_snrs` of one draw H as an :class:`AircompSnr`."""
    gamma_air, degenerate = air_snrs(H, scenario)
    return AircompSnr(gamma_air=float(gamma_air), degenerate=bool(degenerate))


def _delivers(snrs):
    """Where an SNR delivers anything: it is positive and its noise power
    1/snr is a float.  An SNR of 0, or one whose 1/snr overflows, does not."""
    with np.errstate(divide="ignore", over="ignore"):
        return (snrs > 0) & (1.0 / snrs < np.inf)


def _receive(f_bar, snrs, noise):
    """The equivalent model every access mode reduces to: the noiseless
    averages (..., M) plus ``noise`` scaled to power 1/snr.  An SNR that
    delivers nothing (:func:`_delivers`) gives an all-NaN vector; an
    infinite one gives f_bar exactly."""
    usable = _delivers(snrs)
    scale = np.sqrt(1.0 / np.where(usable, snrs, 1.0))
    return np.where(usable[..., None], f_bar + scale[..., None] * noise, np.nan)


def _receive_one(local_features, effective_snr, rng, resolved_mode=None):
    """Receive one feature set at ``effective_snr``; the M noise samples are
    drawn whatever the SNR, as the trial engine draws them."""
    f_bar = aggregate_noiseless(local_features)
    f_tilde = _receive(f_bar, np.asarray(effective_snr), rng.standard_normal(f_bar.shape[0]))
    return AggregationOutcome(f_tilde, effective_snr, resolved_mode)


def aircomp_receive(scenario, H, local_features, rng):
    """Aggregate sensor features over the air at gamma_air of the draw H."""
    return _receive_one(local_features, aircomp_effective_snr(H, scenario).gamma_air, rng)


@_any_stack
def zf_norms_sq(H):
    """Squared norms ||b_k||^2 (..., K) of the zero-forcing receive beams
    B = H (H^H H)^-1 of one draw or a stack H (..., N, K), never forming B:
    the diagonal of (H^H H)^-1, by :func:`_zf_diag`.  Raises
    :class:`InfeasibleAccessError` where N < K and :class:`NumericalError`
    where a Gram matrix is singular."""
    N, K = H.shape[-2:]
    if N < K:
        raise InfeasibleAccessError(
            f"zero-forcing needs num_antennas >= num_sensors, got N={N} < K={K}"
        )
    return _zf_diag(_conj_t(H) @ H)


def _zf_diag(gram):
    """Diagonal of the inverse of each Gram matrix G = L L^H of a stack
    (..., K, K), as the column sums of |L^-1|^2 (Golub & Van Loan 4.2)."""
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NumericalError("channel Gram matrix is singular") from None
    trtri = lapack_func("trtri")
    # each L^T is Fortran-ordered, so trtri inverts it in place: L becomes L^-1
    if any(trtri(u, lower=0, overwrite_c=1)[1] for u in L.reshape(-1, *gram.shape[-2:]).mT):
        raise NumericalError("channel Gram matrix is singular")
    return (L.real**2 + L.imag**2).sum(axis=-2)


def orth_snrs(norms, scenario):
    """gamma_aoa = gamma K^2 / (nu^2 sum_k ||b_k||^2) of each draw, from its
    K zero-forcing norms (..., K); the norms grow as antennas shrink toward
    the sensor count.  A gamma_aoa past the largest float saturates to inf."""
    total_norm = norms.sum(axis=-1)
    gamma = scenario.transmit_snr
    if gamma == np.inf:
        return np.full_like(total_norm, np.inf)[()]
    with np.errstate(over="ignore"):
        return gamma * norms.shape[-1] ** 2 / (scenario.nu_sq * total_norm)


def orthogonal_effective_snr(H, scenario):
    """gamma_aoa of one draw H, by :func:`orth_snrs`."""
    return float(orth_snrs(zf_norms_sq(H), scenario))


def orthogonal_receive(scenario, H, local_features, rng):
    """Aggregate via orthogonal access at gamma_aoa of the draw H."""
    return _receive_one(local_features, orthogonal_effective_snr(H, scenario), rng)


def best_access(gamma_air, gamma_aoa):
    """The adaptive SNR of each draw and whether over the air won it.

    gamma_aoa is -inf where orthogonal access is infeasible (N < K), and
    over the air wins exactly when ``gamma_air >= gamma_aoa``: ties and
    infeasible orthogonal access both go to the air.
    """
    air_wins = gamma_air >= gamma_aoa
    return np.where(air_wins, gamma_air, gamma_aoa)[()], air_wins


def adaptive_receive(scenario, H, local_features, rng):
    """Receive through the access mode with the larger effective SNR for
    the draw H, by :func:`snr_pairs` and :func:`best_access`;
    ``resolved_mode`` names the winner."""
    snr, air_wins = best_access(*snr_pairs(H, scenario))
    mode = "aircomp" if air_wins else "orthogonal"
    return _receive_one(local_features, float(snr), rng, mode)


@_any_stack
def snr_pairs(H, scenario):
    """``(gamma_air, gamma_aoa)`` of one draw H or of each draw of a stack,
    -inf where N < K, bit for bit as :func:`air_snrs` and :func:`orth_snrs`
    give them; where N >= K the principal pair and the norms read one H^H H."""
    gram = _conj_t(H) @ H if H.shape[1] >= H.shape[2] else None
    gamma_air, _ = _air_snrs(_alignment(H, *_principal_pairs(H, gram)), H.shape[2], scenario)
    aoa = np.full_like(gamma_air, -np.inf) if gram is None else orth_snrs(_zf_diag(gram), scenario)
    return gamma_air, aoa


def _pipeline_snrs(scenario, pipeline, H):
    """Effective SNRs (n,) of a stack of channel draws H (n, N, K) under an
    access ``pipeline``, and for ``adaptive`` the (gamma_air, gamma_aoa)
    pairs it chose from (else None)."""
    if pipeline == "orthogonal":
        return orth_snrs(zf_norms_sq(H), scenario), None
    if pipeline == "aircomp":
        return air_snrs(H, scenario)[0], None
    if pipeline != "adaptive":
        raise ValueError(f"unknown pipeline {pipeline!r}")
    pairs = snr_pairs(H, scenario)
    return best_access(*pairs)[0], pairs
