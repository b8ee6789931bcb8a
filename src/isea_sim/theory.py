"""Closed-form surrogates, bounds, and asymptotic reference laws.

The Monte Carlo estimators in :mod:`isea_sim.inference` measure sensing
uncertainty directly; this module provides the analytical side: softmax
surrogates of the expected posterior entropy, the two-sided bounds that
sandwich it, the loss factor induced by finite channel SNR, and the
limiting distributions used to validate channel-derived statistics.
All entropies use natural logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import NumericalError
from .inference import pairwise_separation_matrix
from .scenario import isotropic_observation_mean

KAPPA_LOWER = 0.5


def kappa_upper(feature_dim, c):
    """Exponent coefficient of the upper bound, kappa = 1/(c M + 2)."""
    if c <= 0:
        raise ValueError("c must be positive")
    return 1.0 / (c * feature_dim + 2.0)


def kappa_alternative(feature_dim, c):
    """Alternative convention kappa = 1/(c M + 1) seen in plotted overlays."""
    if c <= 0:
        raise ValueError("c must be positive")
    return 1.0 / (c * feature_dim + 1.0)


def bound_offset(c):
    """Additive constant of the upper bound: log(c e^(1/c) / (1 + c))."""
    if c <= 0:
        raise ValueError("c must be positive")
    return float(np.log(c) + 1.0 / c - np.log1p(c))


@dataclass(frozen=True)
class SurrogateParams:
    """A (kappa, additive offset) pair selecting one surrogate variant."""

    kappa: float
    offset: float = 0.0

    @classmethod
    def lower(cls):
        return cls(kappa=KAPPA_LOWER, offset=0.0)

    @classmethod
    def upper(cls, feature_dim, c=1.0):
        return cls(kappa=kappa_upper(feature_dim, c), offset=bound_offset(c))


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
    total = 0.0
    for l in range(L):
        exponents = np.delete(-kappa * num_sensors * pw[l], l)
        total += float(np.logaddexp.reduce(np.concatenate(([0.0], exponents))))
    return total / L


def surrogate_uncertainty_simplified(mean_separation, kappa, num_sensors, num_classes):
    """Equal-distance simplification log(1 + (L-1) exp(-kappa K D_bar))."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    return float(
        np.logaddexp(0.0, np.log(num_classes - 1.0) - kappa * num_sensors * mean_separation)
    )


@dataclass(frozen=True, eq=False)
class SeparationSummary:
    """Pairwise class-separation statistics of a scenario.

    ``separation_matrix`` is the feature-space average of the outer
    products of centroid differences over ordered pairs; its trace against
    P_bar W P_bar reproduces ``mean_separation`` exactly.
    ``residual_scale`` is the variance of the pairwise separations, the
    natural size of the error made by the equal-distance simplification.
    """

    pairwise: np.ndarray          # (L, L)
    mean_separation: float
    separation_matrix: np.ndarray  # (M, M)
    residual_scale: float


def separation_summary(scenario, snr=None):
    """Compute pairwise separations and their summary statistics.

    ``snr`` selects the noiseless weighting C^-1 (None) or the
    channel-degraded weighting (C + (K/snr) I)^-1.
    """
    pw = pairwise_separation_matrix(scenario, snr=snr)
    L = pw.shape[0]
    off_diag = pw[~np.eye(L, dtype=bool)]
    centered = scenario.centroids - scenario.centroids.mean(axis=0)
    pop_cov = centered.T @ centered / L
    separation_matrix = (2.0 * L / (L - 1.0)) * pop_cov
    mean_sep = float(off_diag.mean())
    return SeparationSummary(
        pairwise=pw,
        mean_separation=mean_sep,
        separation_matrix=separation_matrix,
        residual_scale=float(((off_diag - mean_sep) ** 2).mean()),
    )


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


def asymptotic_separation(scenario, expected_obs=None):
    """Large-K limit of the mean separation: Tr(EP C^-1 EP D).

    ``expected_obs`` defaults to the closed-form mean projection
    (r/M) I of the uniform rank-r synthesis.
    """
    if expected_obs is None:
        expected_obs = isotropic_observation_mean(
            scenario.feature_dim, scenario.config.observation_rank
        )
    D = separation_summary(scenario).separation_matrix
    return float(np.trace(expected_obs @ scenario.C_inv @ expected_obs @ D))


def channel_loss_factor(scenario, snr):
    """Multiplicative separation loss from finite effective SNR.

    Evaluates D_tilde(snr) / D_bar where the degraded mean separation is
    computed in expanded form:

        D_tilde = D_bar - Tr(P_bar C^-1 (C^-1 + (snr/K) I)^-1 C^-1 P_bar D)

    which agrees with the direct weighting (C + (K/snr) I)^-1 and shows
    the loss explicitly as a subtraction.  In C's eigenbasis the trace is
    a weighted sum over eigenvalues, so the scenario part is computed once
    and ``snr`` may be an array of SNRs; the result then has its shape.
    Infinite SNR gives exactly 1.0.
    """
    snr = np.asarray(snr, dtype=float)
    if not np.all(snr > 0):
        raise ValueError("snr must be positive")
    summary = separation_summary(scenario)
    d_bar = summary.mean_separation
    if d_bar <= 0:
        raise NumericalError("mean separation is zero; loss factor undefined")
    V = scenario.C_evecs
    core = V.T @ scenario.C_inv @ scenario.P_bar @ summary.separation_matrix
    weights = np.diag(core @ scenario.P_bar @ scenario.C_inv @ V)
    inner = 1.0 / scenario.C_evals + snr[..., None] / scenario.num_sensors
    correction = np.sum(weights / inner, axis=-1)
    loss = (d_bar - correction) / d_bar
    return float(loss) if loss.ndim == 0 else loss


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
    if scenario.sigma_sq == 0:
        return np.inf
    gamma = 1.0 / scenario.sigma_sq
    lam_min = float(scenario.C_evals[0])
    return 2.0 * gamma * (1.0 + np.sqrt(omega)) ** 2 * lam_min / scenario.nu_sq


_EULER = float(np.euler_gamma)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Power series below x = 1, modified Lentz continued fraction above;
    both converge past 1e-12 relative accuracy.
    """
    x = float(x)
    if not x > 0:
        raise ValueError("E1 requires x > 0")
    if x <= 1.0:
        return _e1_series(x)
    return np.exp(-x) * _e1_cf_tail(x)


def exp_integral_e1_scaled(x):
    """Overflow-safe e^x E1(x); useful when x is large."""
    x = float(x)
    if not x > 0:
        raise ValueError("E1 requires x > 0")
    if x <= 1.0:
        return np.exp(x) * _e1_series(x)
    return _e1_cf_tail(x)


def _e1_series(x, max_terms=30):
    total = -_EULER - np.log(x)
    term = 1.0
    for n in range(1, max_terms + 1):
        term *= -x / n
        contribution = -term / n
        total += contribution
        if abs(contribution) < 1e-16 * max(abs(total), 1e-300):
            break
    return total


def _e1_cf_tail(x, max_iter=200):
    # Continued fraction 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...))), evaluated by
    # the modified Lentz method; equals e^x E1(x).
    tiny = 1e-300
    b = x + 1.0
    f = b if b != 0 else tiny
    C = f
    D = 0.0
    for n in range(1, max_iter + 1):
        a = -float(n * n)
        b = x + 2.0 * n + 1.0
        D = b + a * D
        if D == 0:
            D = tiny
        C = b + a / C
        if C == 0:
            C = tiny
        D = 1.0 / D
        delta = C * D
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return 1.0 / f


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
