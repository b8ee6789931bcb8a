"""Closed-form surrogates, bounds, and asymptotic reference laws.

The Monte Carlo estimators in :mod:`isea_sim.inference` measure sensing
uncertainty directly; this module provides the analytical side: the
pairwise class separations and the discriminant gain they average to,
softmax surrogates of the expected posterior entropy, the two-sided bounds
that sandwich it, the loss factor induced by finite channel SNR, and the
limiting distributions used to validate channel-derived statistics.  It
reads what it needs off a built :class:`~isea_sim.scenario.Scenario` and
imports no other layer.  All entropies use natural logarithms.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

from .errors import NumericalError

KAPPA_LOWER = 0.5


def kappa_upper(feature_dim, c):
    """Exponent coefficient of the upper bound, kappa = 1/(c M + 2)."""
    if c <= 0:
        raise ValueError("c must be positive")
    return 1.0 / (c * feature_dim + 2.0)


def bound_offset(c):
    """Additive constant of the upper bound: log(c e^(1/c) / (1 + c))."""
    if c <= 0:
        raise ValueError("c must be positive")
    return float(np.log(c) + 1.0 / c - np.log1p(c))


def surrogate_uncertainty_full(pairwise, kappa, num_sensors):
    """Softmax surrogate of the expected posterior entropy.

    (1/L) sum_l log(1 + sum_{l' != l} exp(-kappa K D_{l,l'})) evaluated
    with log-sum-exp shifting, so huge separations underflow gracefully
    instead of producing NaN.
    """
    pw = np.asarray(pairwise, dtype=float)
    L = pw.shape[0]
    if pw.shape != (L, L):
        raise ValueError("pairwise must be a square matrix")
    exponents = -kappa * num_sensors * pw
    # the diagonal term exp(0) = 1 is the "1 +" of each row's sum
    np.fill_diagonal(exponents, 0.0)
    return float(np.logaddexp.reduce(exponents, axis=1).mean())


def surrogate_uncertainty_simplified(mean_separation, kappa, num_sensors, num_classes):
    """Equal-distance simplification log(1 + (L-1) exp(-kappa K D_bar))."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    return float(
        np.logaddexp(0.0, np.log(num_classes - 1.0) - kappa * num_sensors * mean_separation)
    )


def _noise_weights(scenario, snr):
    """1/(lambda_i + K/snr) for C's eigenvalues lambda_i, with a trailing
    axis over them: the weighting (C + (K/snr) I)^-1 in C's eigenbasis."""
    snr = np.asarray(snr, dtype=float)
    if not np.all(snr > 0):
        raise ValueError("snr must be positive or infinite")
    # K/inf is 0.0, so infinite SNR is the noiseless weighting 1/lambda_i
    return 1.0 / (scenario.C_evals + scenario.num_sensors / snr[..., None])


def _pair_spread(rows):
    """Mean over ordered pairs of rows of their squared difference, per
    column: (2/(L-1)) sum_l (rows_l - mean)^2 for L rows."""
    centered = rows - rows.mean(axis=0)
    return (2.0 / (rows.shape[0] - 1.0)) * np.sum(centered * centered, axis=0)


def pairwise_separation_matrix(scenario, snr=np.inf):
    """All pairwise class separations after fusion, as a symmetric (L, L)
    matrix with zero diagonal.

    Entry (a, b) is (y_a - y_b)^T diag(1/(lambda + K/snr)) (y_a - y_b) for
    the fused centroids y_l = V^T P_bar mu_l in C's eigenbasis.  At the
    default infinite ``snr`` this is the noiseless separation under C^-1,
    which is K times smaller than the separation under the effective
    covariance C/K.
    """
    Y = scenario.proj_centroids_eig
    w = _noise_weights(scenario, snr)
    # one row at a time: (Y - y)^2 is the same array as (y - Y)^2, so
    # entries (a, b) and (b, a) are the same sum, and the diagonal is 0
    return np.stack([np.sum((Y - y) ** 2 * w, axis=1) for y in Y])


def mean_separation(scenario, snr=np.inf):
    """Mean of the off-diagonal pairwise separations, the discriminant gain
    D_bar(snr) = sum_i s_i / (lambda_i + K/snr), where s_i is the pair
    spread of the fused centroids along C's eigenvector i.

    ``snr`` may be an array of SNRs; the result then has its shape, and
    each entry equals the call at that SNR alone bit for bit.
    """
    spread = _pair_spread(scenario.proj_centroids_eig)
    gain = np.sum(spread * _noise_weights(scenario, snr), axis=-1)
    return float(gain) if gain.ndim == 0 else gain


def uncertainty_bounds(pairwise, c, num_sensors, feature_dim):
    """Two-sided surrogate bounds on the expected posterior entropy.

    Returns ``(lower, upper)`` where the lower bound uses kappa = 1/2 and
    the upper uses kappa = 1/(c M + 2) plus the additive offset.
    """
    lower = surrogate_uncertainty_full(pairwise, KAPPA_LOWER, num_sensors)
    upper = surrogate_uncertainty_full(
        pairwise, kappa_upper(feature_dim, c), num_sensors
    ) + bound_offset(c)
    return lower, upper


def asymptotic_separation(scenario):
    """Large-K limit xi of the mean separation: (r/M)^2 sum_i t_i / lambda_i,
    with t_i the pair spread of the centroids along C's eigenvector i and
    (r/M) I the mean projection of the uniform rank-r synthesis.  (r/M)^2
    scales each term before the sum, so that a spread near the largest
    float does not overflow it."""
    ratio = scenario.config.observation_rank / scenario.feature_dim
    spread = _pair_spread(scenario.centroids @ scenario.C_evecs)
    return float(np.sum(ratio**2 * spread / scenario.C_evals))


def channel_loss_factor(scenario, snr):
    """Multiplicative separation loss from finite effective SNR,
    D_bar(snr) / D_bar(inf).

    ``snr`` may be an array of SNRs; the result then has its shape.
    Infinite SNR gives exactly 1.0.

    Raises:
        ValueError: if an SNR is not positive.
        NumericalError: if the noiseless mean separation is zero.
    """
    degraded = mean_separation(scenario, snr)
    d_bar = mean_separation(scenario)
    if d_bar <= 0:
        raise NumericalError("mean separation is zero; loss factor undefined")
    return degraded / d_bar


def expected_loss_factor_bounds(r):
    """Lower bounds on the channel-averaged loss factor.

    For the loss factor averaged over the exponential SNR law with scale
    parameter ``r``, returns ``(e1_form, log_form)``:

        e1_form  = 1 - e^(1/r) E1(1/r) / r      (tighter)
        log_form = 1 - log(1 + r) / r           (looser, elementary)
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r == np.inf:
        return 1.0, 1.0
    x = 1.0 / r
    e1_form = 1.0 - x * exp_integral_e1_scaled(x)
    log_form = 1.0 - np.log1p(r) / r
    return float(e1_form), float(log_form)


def expected_loss_r(scenario, omega):
    """Scale parameter of the averaged-loss bounds for array ratio omega:
    r = 2 gamma (1 + sqrt(omega))^2 lambda_min(C) / nu^2."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    lam_min = float(scenario.C_evals[0])  # C is positive definite, so r is inf at gamma = inf
    return 2.0 * scenario.transmit_snr * (1.0 + np.sqrt(omega)) ** 2 * lam_min / scenario.nu_sq


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0."""
    x = float(x)
    if not x > 0:
        raise ValueError("E1 requires x > 0")
    return float(scipy.special.exp1(x))


def exp_integral_e1_scaled(x):
    """Overflow-safe e^x E1(x).

    From x = 700 on, where E1 falls into subnormals, this is the asymptotic
    series sum_{n=0}^{6} (-1)^n n! y^(n+1) in y = 1/x, whose truncation
    error is below 7! y^8, a relative 1e-16.  Powers of y underflow to 0
    where powers of x would overflow.
    """
    x = float(x)
    if not x > 0:
        raise ValueError("E1 requires x > 0")
    if x < 700.0:
        return float(np.exp(x) * scipy.special.exp1(x))
    y = 1.0 / x
    return sum((-1) ** n * math.factorial(n) * y ** (n + 1) for n in range(7))


def scaled_alignment_cdf(omega):
    """Limiting CDF of the K-scaled weakest beam alignment.

    Exponential with mean (1 + sqrt(omega))^2, where omega = N/K is the
    antenna-to-sensor ratio held fixed as the system grows.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    mean = (1.0 + np.sqrt(omega)) ** 2

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-np.maximum(x, 0.0) / mean), 0.0)

    return cdf


def zf_norm_cdf(num_antennas, num_sensors):
    """Exact CDF of a zero-forcing beam's squared norm: twice an inverse
    chi-square with 2(N - K + 1) degrees of freedom."""
    m = num_antennas - num_sensors + 1
    if m < 1:
        raise ValueError("requires num_antennas >= num_sensors")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 0, scipy.special.gammaincc(m, 1.0 / np.maximum(x, 1e-300)), 0.0)

    return cdf


def crossing_probability(num_sensors, omega):
    """Asymptotic probability that over-the-air beats orthogonal access:
    exp(-(K/2)(sqrt(omega) - 1)/(sqrt(omega) + 1)) for omega >= 1, else 1."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if omega <= 1.0:
        return 1.0
    root = np.sqrt(omega)
    return float(np.exp(-0.5 * num_sensors * (root - 1.0) / (root + 1.0)))


def ks_statistic(samples, reference_cdf):
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n < 100:
        raise ValueError("need at least 100 samples for a meaningful distance")
    F = np.asarray(reference_cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - F), np.max(F - (grid - 1.0 / n))))
