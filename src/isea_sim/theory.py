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

from .errors import NumericalError

KAPPA_LOWER = 0.5


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
    # a separation past the largest float saturates to -inf and adds exp(-inf) = 0
    with np.errstate(over="ignore"):
        exponents = -kappa * num_sensors * pw
    # the diagonal term exp(0) = 1 is the "1 +" of each row's sum
    np.fill_diagonal(exponents, 0.0)
    return float(np.logaddexp.reduce(exponents, axis=1).mean())


def _noise_weights(scenario, snr):
    """1/(lambda_i + K/snr) for C's eigenvalues lambda_i, with a trailing
    axis over them: the weighting (C + (K/snr) I)^-1 in C's eigenbasis."""
    snr = np.asarray(snr, dtype=float)
    if not np.all(snr >= 0):
        raise ValueError("snr must be nonnegative or infinite")
    # K/inf is 0.0, so infinite SNR is the noiseless weighting 1/lambda_i;
    # K/0, or K/snr past the largest float, is inf, and weighs nothing
    with np.errstate(divide="ignore", over="ignore"):
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
    # entries (a, b) and (b, a) are the same sum, and the diagonal is 0;
    # a separation beyond the largest float saturates to inf
    with np.errstate(over="ignore"):
        return np.stack([np.sum((Y - y) ** 2 * w, axis=1) for y in Y])


def mean_separation(scenario, snr=np.inf):
    """Mean of the off-diagonal pairwise separations, the discriminant gain
    D_bar(snr) = sum_i s_i / (lambda_i + K/snr), where s_i is the pair
    spread of the fused centroids along C's eigenvector i.

    ``snr`` may be an array of SNRs; the result then has its shape, and
    each entry equals the call at that SNR alone bit for bit.
    """
    spread = _pair_spread(scenario.proj_centroids_eig)
    # a gain beyond the largest float saturates to inf
    with np.errstate(over="ignore"):
        gain = np.sum(spread * _noise_weights(scenario, snr), axis=-1)
    return float(gain) if gain.ndim == 0 else gain


def uncertainty_bounds(pairwise, c, num_sensors, feature_dim):
    """Two-sided surrogate bounds on the expected posterior entropy.

    Returns ``(lower, upper)`` where the lower bound uses kappa = 1/2 and
    the upper uses kappa = 1/(c M + 2) plus the additive offset.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    lower = surrogate_uncertainty_full(pairwise, KAPPA_LOWER, num_sensors)
    # the offset log(c e^(1/c) / (1 + c)), positive for every c > 0
    offset = float(np.log(c) + 1.0 / c - np.log1p(c))
    upper = surrogate_uncertainty_full(pairwise, 1.0 / (c * feature_dim + 2.0), num_sensors)
    return lower, upper + offset


def asymptotic_separation(scenario):
    """Large-K limit xi of the mean separation: (r/M)^2 sum_i t_i / lambda_i,
    with t_i the pair spread of the centroids along C's eigenvector i and
    (r/M) I the mean projection of the uniform rank-r synthesis.  (r/M)^2
    scales each term before the sum, so that a spread near the largest
    float does not overflow it; a term that overflows all the same
    saturates xi to inf."""
    ratio = scenario.config.observation_rank / scenario.feature_dim
    with np.errstate(over="ignore"):
        spread = _pair_spread(scenario.centroids @ scenario.C_evecs)
        return float(np.sum(ratio**2 * spread / scenario.C_evals))


def channel_loss_factor(scenario, snr):
    """Multiplicative separation loss from finite effective SNR,
    D_bar(snr) / D_bar(inf).

    ``snr`` may be an array of SNRs; the result then has its shape.
    Infinite SNR gives exactly 1.0 and SNR 0 gives 0.0.  Where D_bar(inf)
    saturates to inf or underflows to 0, the loss is the same ratio written
    as the mean of lambda_i / (lambda_i + K/snr) weighted by s_i / lambda_i,
    with the fused centroids scaled by their largest entry and the weights
    by lambda_min / lambda_i, so that no sum overflows or underflows to 0
    and the loss stays in [0, 1].

    Raises:
        ValueError: if an SNR is negative.
        NumericalError: if the fused centroids have no spread, also
            scaled by their largest entry.
    """
    snr = np.asarray(snr, dtype=float)
    d_bar = mean_separation(scenario)
    if 0 < d_bar < np.inf:
        degraded = np.asarray(mean_separation(scenario, snr))
    else:
        Y, lam = scenario.proj_centroids_eig, scenario.C_evals
        # fused centroids that are all 0 scale to NaN, which fails the check
        with np.errstate(invalid="ignore"):
            weights = _pair_spread(Y / np.abs(Y).max()) * (lam[0] / lam)
        d_bar = weights.sum()
        if not d_bar > 0:
            raise NumericalError("mean separation is zero; loss factor undefined")
        degraded = np.sum(weights * lam * _noise_weights(scenario, snr), axis=-1)
    loss = np.divide(degraded, d_bar, out=np.ones_like(degraded), where=snr != np.inf)
    return float(loss) if loss.ndim == 0 else loss


def expected_loss_factor_bounds(r):
    """Lower bounds on the channel-averaged loss factor.

    For the loss factor averaged over the exponential SNR law with scale
    parameter ``r``, returns ``(e1_form, log_form)``:

        e1_form  = 1 - e^(1/r) E1(1/r) / r      (tighter)
        log_form = 1 - log(1 + r) / r           (looser, elementary)

    Both tend to 1 as r grows and to 0 as r falls, within one rounding
    of 1 below r = 1e-16; at r = 0, and wherever 1/r overflows, both are 0.
    """
    if not r >= 0:
        raise ValueError("r must be nonnegative")
    if r == np.inf:
        return 1.0, 1.0
    with np.errstate(divide="ignore", over="ignore"):
        x = np.divide(1.0, r)
    if x == np.inf:
        return 0.0, 0.0
    e1_form = 1.0 - x * exp_integral_e1_scaled(x)
    log_form = 1.0 - np.log1p(r) / r
    return float(e1_form), float(log_form)


def expected_loss_r(scenario, omega):
    """Scale parameter of the averaged-loss bounds for array ratio omega:
    r = 2 gamma (1 + sqrt(omega))^2 lambda_min(C) / nu^2, inf past the
    largest float."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    lam_min = float(scenario.C_evals[0])  # C is positive definite, so r is inf at gamma = inf
    with np.errstate(over="ignore"):
        return 2.0 * scenario.transmit_snr * (1.0 + np.sqrt(omega)) ** 2 * lam_min / scenario.nu_sq


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
        import scipy.special  # on use, so importing theory does not load it

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

    import scipy.special  # on use, as in exp_integral_e1_scaled

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
