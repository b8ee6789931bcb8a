"""Closed-form layer: surrogates, loss factors, special functions, CDFs.

Everything here is deterministic or runs on frozen substreams, so observed
values quoted in comments are stable across runs.
"""

import dataclasses
import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import isea_sim as iz
from isea_sim import theory
from isea_sim.harness.experiments import _per_draw, _weakest_alignment
from isea_sim.streams import substream


def _scenario(**overrides):
    defaults = dict(
        feature_dim=5,
        num_classes=6,
        num_sensors=10,
        num_antennas=12,
        observation_rank=5,
        centroid_scale=0.3,
        sensing_covariance_scale=0.1,
        transmit_snr_db=10.0,
        master_seed=9,
    )
    defaults.update(overrides)
    return iz.build_scenario(iz.ScenarioConfig(**defaults))


def _pair_outer_mean(centroids):
    """D: mean over ordered class pairs of the outer products of the
    centroid differences."""
    L = centroids.shape[0]
    diffs = centroids[:, None, :] - centroids[None, :, :]
    return np.einsum("abi,abj->ij", diffs, diffs) / (L * (L - 1))


def _oracle_mean_separation(sc, snr):
    """D_bar(snr) from the explicitly inverted (C + (K/snr) I), pair by pair."""
    L = sc.num_classes
    W = np.linalg.inv(sc.C + (sc.num_sensors / snr) * np.eye(sc.feature_dim))
    fused = sc.centroids @ sc.P_bar.T
    diffs = fused[:, None, :] - fused[None, :, :]
    return np.einsum("abi,ij,abj->", diffs, W, diffs) / (L * (L - 1))


def _structured_scenario():
    """A non-isotropic sensing covariance, so each eigenmode has its own weight."""
    A = substream(31, 2).standard_normal((5, 5))
    covariance = A @ A.T / 5 + 0.05 * np.eye(5)
    cfg = iz.ScenarioConfig(
        feature_dim=5, num_classes=6, num_sensors=10, observation_rank=2, master_seed=9
    )
    return iz.build_scenario(cfg, covariance=covariance)


def _equal_distance_matrix(num_classes, distance):
    pw = np.full((num_classes, num_classes), float(distance))
    np.fill_diagonal(pw, 0.0)
    return pw


def _equal_distance_surrogate(distance, kappa, num_sensors, num_classes):
    """The surrogate's closed form at equal pairwise distances d:
    log(1 + (L-1) exp(-kappa K d))."""
    return float(np.log1p((num_classes - 1.0) * np.exp(-kappa * num_sensors * distance)))


# ---------------------------------------------------------------------------
# softmax surrogate


def test_full_surrogate_zero_distances_gives_log_class_count():
    for L in (2, 3, 7):
        for K in (1, 10, 500):
            got = iz.surrogate_uncertainty_full(np.zeros((L, L)), 0.5, K)
            assert got == pytest.approx(np.log(L), abs=1e-12)


def test_full_surrogate_vanishes_for_huge_separations():
    pw = _equal_distance_matrix(5, 1e6)
    got = iz.surrogate_uncertainty_full(pw, 0.5, 10)
    assert got == 0.0  # exponents underflow cleanly instead of producing NaN


def test_full_surrogate_rejects_nonsquare_input():
    with pytest.raises(ValueError):
        iz.surrogate_uncertainty_full(np.zeros((3, 4)), 0.5, 10)


def test_full_surrogate_equals_simplified_at_equal_distances():
    for d in (0.03, 0.4, 2.0):
        for K in (3, 25):
            full = iz.surrogate_uncertainty_full(_equal_distance_matrix(6, d), 0.5, K)
            simp = _equal_distance_surrogate(d, 0.5, K, 6)
            assert full == pytest.approx(simp, abs=1e-12)


def test_two_class_zero_distance_is_log_two():
    lower, _ = iz.uncertainty_bounds(np.zeros((2, 2)), 1.0, 10, 5)
    assert lower == pytest.approx(np.log(2.0), abs=1e-14)


def test_simplified_surrogate_strictly_decreasing_in_sensor_count():
    # the full surrogate at equal distances, the simplified setting
    pw = _equal_distance_matrix(10, 0.2)
    vals = [iz.surrogate_uncertainty_full(pw, 0.5, k) for k in range(1, 41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_full_minus_simplified_residual_tracks_separation_variance():
    # Perturb an equal-distance matrix by widening amounts and regress the
    # gap between the full surrogate and the equal-distance closed form at
    # the mean distance on the off-diagonal variance.
    # The gap is a second-order effect, so the fit should pass near the
    # origin and correlate tightly.
    rng = substream(55, 0)
    L, K, kappa = 6, 5, 0.5
    xs, ys = [], []
    for i in range(100):
        eps = 0.003 * (i + 1)
        off = 1.0 + eps * (rng.random((L, L)) * 2 - 1)
        pw = np.triu(off, 1)
        pw = pw + pw.T
        vals = pw[~np.eye(L, dtype=bool)]
        full = iz.surrogate_uncertainty_full(pw, kappa, K)
        simp = _equal_distance_surrogate(vals.mean(), kappa, K, L)
        xs.append(vals.var())
        ys.append(abs(full - simp))
    xs, ys = np.asarray(xs), np.asarray(ys)
    corr = np.corrcoef(xs, ys)[0, 1]
    slope, intercept = np.polyfit(xs, ys, 1)
    assert corr > 0.99
    assert slope > 0
    assert abs(intercept) < 0.02 * ys.max()


def _per_row_surrogate(pairwise, kappa, num_sensors):
    """The surrogate's defining form, one class at a time: drop entry l of
    row l and put the "1 +" term in front of the log-sum-exp."""
    L = pairwise.shape[0]
    total = 0.0
    for l in range(L):
        exponents = np.delete(-kappa * num_sensors * pairwise[l], l)
        total += float(np.logaddexp.reduce(np.concatenate(([0.0], exponents))))
    return total / L


def test_full_surrogate_matches_the_per_row_form_and_ignores_the_diagonal():
    rng = substream(55, 1)
    for L in (2, 3, 6, 11):
        pw = rng.exponential(2.0, (L, L))
        pw = pw + pw.T
        pw[np.diag_indices(L)] = rng.normal(0.0, 50.0, L)  # must not count
        for kappa, K in ((0.5, 1), (0.5, 40), (1.0 / 12.0, 7)):
            got = iz.surrogate_uncertainty_full(pw, kappa, K)
            assert got == pytest.approx(_per_row_surrogate(pw, kappa, K), rel=1e-14, abs=1e-300)


@given(
    distances=st.lists(st.floats(0.0, 1e6), min_size=3, max_size=15),
    kappa=st.floats(1e-3, 1.0),
    num_sensors=st.integers(1, 10000),
)
@settings(max_examples=100, deadline=None)
def test_full_surrogate_fuzz_stays_in_range(distances, kappa, num_sensors):
    n = len(distances)
    L = int(np.ceil((1 + np.sqrt(1 + 8 * n)) / 2))
    pw = np.zeros((L, L))
    iu = np.triu_indices(L, 1)
    flat = (distances * L)[: iu[0].size]
    pw[iu] = flat
    pw = pw + pw.T
    got = iz.surrogate_uncertainty_full(pw, kappa, num_sensors)
    assert np.isfinite(got)
    assert 0.0 <= got <= np.log(L) + 1e-9


# ---------------------------------------------------------------------------
# two-sided bounds


def test_bounds_gap_at_zero_distance_is_the_offset():
    # at zero distance both surrogates are log L, so the gap is the upper
    # bound's offset log(c e^(1/c) / (1 + c)): 1 - log 2 at c = 1, and > 0
    lower, upper = iz.uncertainty_bounds(np.zeros((4, 4)), 1.0, 10, 6)
    assert upper - lower == pytest.approx(1.0 - np.log(2.0), abs=1e-14)
    for c in np.logspace(-3, 3, 25):
        lower, upper = iz.uncertainty_bounds(np.zeros((4, 4)), float(c), 10, 6)
        assert upper - lower > 0


def test_kappa_conventions():
    # kappa = 1/2 below, and 1/(c M + 2) above plus log(c e^(1/c) / (1 + c))
    pw = _equal_distance_matrix(5, 0.3)
    for M, c, kappa in ((10, 1.0, 1.0 / 12.0), (4, 0.5, 0.25)):
        lower, upper = iz.uncertainty_bounds(pw, c, 7, M)
        offset = np.log(c * np.exp(1.0 / c) / (1.0 + c))
        assert lower == iz.surrogate_uncertainty_full(pw, 0.5, 7)
        full = iz.surrogate_uncertainty_full(pw, kappa, 7)
        assert upper == pytest.approx(full + offset, abs=1e-14)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="c must be positive"):
            iz.uncertainty_bounds(pw, bad, 7, 10)


def test_bounds_ordered_on_random_instances():
    rng = substream(55, 1)
    for _ in range(1000):
        L = int(rng.integers(2, 9))
        M = int(rng.integers(1, 12))
        c = float(10.0 ** rng.uniform(-2, 2))
        K = int(rng.integers(1, 200))
        base = rng.uniform(0.0, 5.0, size=(L, L))
        pw = np.triu(base, 1)
        pw = pw + pw.T
        lower, upper = iz.uncertainty_bounds(pw, c, K, M)
        assert lower <= upper


def test_bounds_collapse_at_zero_distance():
    lower, upper = iz.uncertainty_bounds(np.zeros((4, 4)), 1.0, 10, 6)
    assert lower == pytest.approx(np.log(4.0), abs=1e-12)
    assert upper == pytest.approx(np.log(4.0) + 1.0 - np.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# pairwise separations and the large-K limit


def test_separation_matrix_trace_identity():
    sc = _scenario()
    D = _pair_outer_mean(sc.centroids)
    traced = float(np.trace(sc.P_bar @ np.linalg.inv(sc.C) @ sc.P_bar @ D))
    assert traced == pytest.approx(iz.mean_separation(sc), rel=1e-10)


def test_separation_matrix_survives_a_large_common_offset():
    # centroids sharing an offset of 1e8 leave the differences O(1); a
    # Gram expansion d_a + d_b - 2 G_ab cancels them away
    cfg = iz.ScenarioConfig(
        feature_dim=5, num_classes=4, num_sensors=6, num_antennas=8,
        observation_rank=5, sensing_covariance_scale=1.0,
    )
    sc = iz.build_scenario(cfg, centroids=iz.build_scenario(cfg).centroids + 1e8)
    Y = sc.proj_centroids_eig
    off = ~np.eye(4, dtype=bool)
    for snr in (np.inf, 2.0):
        w = 1.0 / (sc.C_evals + sc.num_sensors / snr)
        pw = iz.pairwise_separation_matrix(sc, snr)
        oracle = np.array([[math.fsum((Y[a] - Y[b]) ** 2 * w) for b in range(4)] for a in range(4)])
        assert pw[off] == pytest.approx(oracle[off], rel=1e-12)
        assert pw[off].mean() == pytest.approx(iz.mean_separation(sc, snr), rel=1e-12)


def test_separation_matrix_is_symmetric_bit_for_bit_with_zero_diagonal():
    for M, L, r in ((1, 2, 1), (3, 5, 2), (7, 11, 3), (10, 10, 1), (10, 6, 10), (13, 8, 5)):
        cfg = iz.ScenarioConfig(
            feature_dim=M, num_classes=L, num_sensors=4, observation_rank=r, master_seed=M + L
        )
        A = substream(M, L).standard_normal((M, M))
        for covariance in (None, A @ A.T / M + 0.05 * np.eye(M)):
            sc = iz.build_scenario(cfg, covariance=covariance)
            for snr in (np.inf, 0.3, 10.0, 1e6):
                pw = iz.pairwise_separation_matrix(sc, snr)
                assert np.array_equal(pw, pw.T)
                assert np.all(np.diag(pw) == 0.0)


def test_asymptotic_separation_identity_projection_traces_separation():
    sc = _scenario(
        feature_dim=4,
        num_classes=3,
        observation_rank=4,
        centroid_scale=0.7,
        sensing_covariance_scale=1.0,
        master_seed=7,
    )
    D = _pair_outer_mean(sc.centroids)
    assert iz.asymptotic_separation(sc) == pytest.approx(np.trace(D), rel=1e-12)


def test_asymptotic_separation_matches_sampled_projection_mean():
    sc = _scenario(
        feature_dim=6,
        num_classes=5,
        num_sensors=8,
        num_antennas=10,
        observation_rank=3,
        centroid_scale=0.5,
        sensing_covariance_scale=0.2,
        master_seed=41,
    )
    rng = substream(20240, 24)
    n = 100000
    ep = np.zeros((6, 6))
    for _ in range(n // 10000):  # in stacks of 10,000 blocks
        ep += iz.generate_observation_matrix(rng.standard_normal((10000, 6, 6)), 3).sum(axis=0)
    ep /= n
    D = _pair_outer_mean(sc.centroids)
    empirical = float(np.trace(ep @ np.linalg.inv(sc.C) @ ep @ D))
    closed = iz.asymptotic_separation(sc)
    assert empirical == pytest.approx(closed, rel=0.01)  # observed 0.08% off


# ---------------------------------------------------------------------------
# finite-SNR loss factor


def test_loss_factor_limits_and_monotonicity():
    sc = _scenario()
    assert iz.channel_loss_factor(sc, np.inf) == 1.0
    assert iz.channel_loss_factor(sc, 1e12) == pytest.approx(1.0, abs=1e-6)
    vals = [iz.channel_loss_factor(sc, s) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # at SNR 0 nothing gets through: D_bar(0) = 0, so the loss is exactly 0
    assert iz.channel_loss_factor(sc, 0.0) == 0.0
    with pytest.raises(ValueError):
        iz.channel_loss_factor(sc, -1.0)


def test_loss_factor_is_one_at_infinite_snr_where_the_gain_saturates():
    # centroids at 5e153 push D_bar past the largest float: D_bar(inf) is
    # inf, and the loss at infinite SNR is still exactly 1, at SNR 0
    # exactly 0, with no warning; C = 0.1 I, so at every SNR the loss is
    # lambda / (lambda + K/snr) whatever the centroids, D_bar(snr) finite
    # (1e-300) or saturated too (2, where D_bar(inf) / D_bar(2) was inf/inf)
    sc = _scenario(
        feature_dim=4, num_classes=3, num_sensors=1, observation_rank=1, centroid_scale=5e153
    )
    assert iz.mean_separation(sc) == np.inf
    assert iz.mean_separation(sc, 2.0) == np.inf
    assert iz.channel_loss_factor(sc, np.inf) == 1.0
    snrs = np.array([np.inf, 0.0, 1e-300, 2.0, 1e300])
    loss = iz.channel_loss_factor(sc, snrs)
    assert loss[0] == 1.0 and loss[1] == 0.0
    np.testing.assert_allclose(loss[2:], 0.1 / (0.1 + 1.0 / snrs[2:]), rtol=1e-12)
    assert np.all((0.0 <= loss) & (loss <= 1.0))


def test_saturated_loss_factor_is_the_ratio_at_any_centroid_scale():
    # D_bar(snr) / D_bar(inf) does not depend on the centroids' scale, so
    # where D_bar(inf) overflows to inf or underflows to 0, under a
    # structured C, the loss is the plain ratio of the same centroids at
    # their own scale
    structured = _structured_scenario()
    cfg = dataclasses.replace(structured.config, num_sensors=1)
    small = iz.build_scenario(cfg, covariance=structured.C)
    snrs = np.array([0.0, 1e-3, 0.5, 2.0, 50.0, np.inf])
    want = iz.channel_loss_factor(small, snrs)
    assert 0.0 < want[1] and want[-2] < 1.0
    for scale, saturated in [(2e153, np.inf), (1e-200, 0.0)]:
        scaled = iz.build_scenario(cfg, centroids=small.centroids * scale, covariance=structured.C)
        assert iz.mean_separation(scaled) == saturated
        np.testing.assert_allclose(iz.channel_loss_factor(scaled, snrs), want, rtol=1e-12, atol=0)


def test_loss_factor_is_undefined_where_the_fused_centroids_are_all_zero():
    # D_bar(inf) is 0 and the rescaled route finds no spread either: the
    # centroids separate nothing at any scale, and no warning leaks
    sc = iz.build_scenario(_scenario().config, centroids=np.zeros((6, 5)))
    with pytest.raises(iz.NumericalError, match="mean separation is zero"):
        iz.channel_loss_factor(sc, 2.0)


def test_surrogate_saturates_without_a_warning():
    # at K = 300 the exponents -kappa K D pass the largest float; each
    # saturates to -inf and adds nothing, so the lower bound is exactly 0
    sc = _scenario(
        feature_dim=4,
        num_classes=3,
        num_sensors=300,
        observation_rank=1,
        centroid_scale=1e153,
        master_seed=20240,
    )
    pw = iz.pairwise_separation_matrix(sc)
    offset = float(np.log(1.0) + 1.0 - np.log1p(1.0))
    assert iz.uncertainty_bounds(pw, 1.0, 300, 4) == (0.0, offset)


def test_loss_factor_accepts_an_array_of_snrs():
    # one call over many draws must match the direct weighting draw by draw
    sc = _scenario()
    snrs = np.array([0.1, 1.0, 10.0, 100.0, np.inf])
    vals = iz.channel_loss_factor(sc, snrs)
    assert vals.shape == snrs.shape
    d_bar = iz.mean_separation(sc)
    for snr, val in zip(snrs[:-1], vals):
        direct = iz.mean_separation(sc, snr=snr) / d_bar
        assert val == pytest.approx(direct, rel=1e-10)
        assert val == iz.channel_loss_factor(sc, snr)  # bit for bit
    assert vals[-1] == 1.0
    assert iz.channel_loss_factor(sc, snrs.reshape(5, 1)).shape == (5, 1)
    # SNR 0 gives 0 beside any other SNR, each entry as it gives alone
    np.testing.assert_array_equal(
        iz.channel_loss_factor(sc, np.array([1.0, 0.0])), [iz.channel_loss_factor(sc, 1.0), 0.0]
    )
    with pytest.raises(ValueError):
        iz.channel_loss_factor(sc, np.array([1.0, -1.0]))


def test_loss_factor_matches_an_inverse_oracle_down_to_tiny_snr():
    sc = _structured_scenario()
    d_bar = _oracle_mean_separation(sc, np.inf)
    snrs = (1e-9, 1e-3, 50.0, np.inf)
    for snr in snrs[:-1]:
        expected = _oracle_mean_separation(sc, snr) / d_bar
        assert iz.channel_loss_factor(sc, snr) == pytest.approx(expected, rel=1e-12, abs=0)
    assert iz.channel_loss_factor(sc, np.inf) == 1.0
    scalars = [iz.channel_loss_factor(sc, snr) for snr in snrs]
    assert np.array_equal(iz.channel_loss_factor(sc, np.array(snrs)), scalars)


def test_asymptotic_separation_traces_the_pair_outer_mean_against_c_inverse():
    sc = _structured_scenario()
    ratio = sc.config.observation_rank / sc.feature_dim
    D = _pair_outer_mean(sc.centroids)
    expected = ratio**2 * np.trace(np.linalg.inv(sc.C) @ D)
    assert iz.asymptotic_separation(sc) == pytest.approx(expected, rel=1e-12)


def test_separations_stay_finite_for_centroids_near_overflow():
    # centroids of scale 2e153 put the centroid spread near the largest float
    sc = iz.build_scenario(iz.ScenarioConfig(centroid_scale=2e153))
    assert np.isfinite(iz.asymptotic_separation(sc))
    # C = 0.1 I at K = 10, so the loss is 0.1 / (0.1 + 10/50)
    assert iz.channel_loss_factor(sc, 50.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_none_is_not_an_snr():
    sc = _scenario()
    for separation in (iz.mean_separation, iz.pairwise_separation_matrix):
        with pytest.raises(ValueError):
            separation(sc, snr=None)


def test_loss_factor_isotropic_closed_form():
    # With C = c I the weighting shrinks every mode equally, so the factor
    # reduces to c / (c + K / snr).
    for c, snr in ((0.1, 20.0), (0.5, 3.0), (2.0, 100.0)):
        sc = _scenario(sensing_covariance_scale=c)
        expected = c / (c + sc.num_sensors / snr)
        assert iz.channel_loss_factor(sc, snr) == pytest.approx(expected, rel=1e-10)


def test_loss_factor_expanded_form_matches_direct_weighting():
    # The subtraction form D_bar - Tr(P_bar C^-1 (C^-1 + (snr/K) I)^-1 C^-1 P_bar D),
    # formed here with explicit inverses, is algebraically equal to the mean
    # separation under (C + (K/snr) I)^-1 that the library takes in C's
    # eigenbasis; compare the two over random scenarios.
    rng = substream(20240, 23)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 9))
        sc = _scenario(
            feature_dim=M,
            num_classes=int(rng.integers(2, 7)),
            num_sensors=int(rng.integers(2, 30)),
            num_antennas=40,
            observation_rank=int(rng.integers(1, M + 1)),
            centroid_scale=float(rng.uniform(0.1, 2.0)),
            sensing_covariance_scale=float(rng.uniform(0.05, 1.0)),
            transmit_snr_db=float(rng.uniform(-5, 25)),
            master_seed=int(rng.integers(1, 2**32)),
        )
        snr = float(rng.uniform(0.1, 100.0))
        C_inv = np.linalg.inv(sc.C)
        inner = np.linalg.inv(C_inv + (snr / sc.num_sensors) * np.eye(M))
        D = _pair_outer_mean(sc.centroids)
        d_bar = np.trace(sc.P_bar @ C_inv @ sc.P_bar @ D)
        correction = np.trace(sc.P_bar @ C_inv @ inner @ C_inv @ sc.P_bar @ D)
        expanded = (d_bar - correction) / d_bar
        worst = max(worst, abs(expanded - iz.channel_loss_factor(sc, snr)))
    assert worst < 1e-8  # observed 4e-16


def test_noisy_surrogate_decay_rate_under_proportional_power():
    # Hold K/snr fixed while sweeping the surrogate sensor count: the
    # degraded separation freezes and log-uncertainty becomes affine with
    # slope -kappa * D_bar * loss.
    sc = _scenario()
    eta = 2.0
    snr = eta * sc.num_sensors
    dbar = iz.mean_separation(sc)
    loss = iz.channel_loss_factor(sc, snr)
    kappa = 0.5
    ks = np.arange(20, 61, 4)
    ys = np.array(
        [
            np.log(_equal_distance_surrogate(dbar * loss, kappa, int(k), 6))
            for k in ks
        ]
    )
    slope, intercept = np.polyfit(ks, ys, 1)
    resid = ys - (slope * ks + intercept)
    assert 1.0 - resid.var() / ys.var() > 0.999999
    assert slope == pytest.approx(-kappa * dbar * loss, rel=1e-6)


# ---------------------------------------------------------------------------
# channel-averaged loss bounds


def test_averaged_loss_bounds_order_and_range():
    for r in (0.1, 1.0, 10.0, 100.0):
        e1_form, log_form = iz.expected_loss_factor_bounds(r)
        assert 0.0 < log_form <= e1_form < 1.0


def test_averaged_loss_bound_reference_value_at_unit_scale():
    e1_form, log_form = iz.expected_loss_factor_bounds(1.0)
    assert e1_form == pytest.approx(1.0 - np.e * special.exp1(1.0), abs=1e-12)
    assert e1_form == pytest.approx(0.403652637676806, abs=1e-12)
    assert log_form == pytest.approx(1.0 - np.log(2.0), abs=1e-14)


def test_averaged_loss_bounds_limits():
    small = iz.expected_loss_factor_bounds(1e-6)
    assert 0.0 < small[0] < 1e-4 and 0.0 < small[1] < 1e-4
    assert iz.expected_loss_factor_bounds(np.inf) == (1.0, 1.0)
    # both bounds tend to 0 as r falls, within one rounding of 1 below
    # r = 1e-16, and are exactly 0 at r = 0 and where 1/r overflows, with
    # no warning
    for r in (1e-18, 1e-300):
        assert all(0.0 <= bound <= 2.0**-53 for bound in iz.expected_loss_factor_bounds(r))
    for r in (5e-324, 0.0):
        assert iz.expected_loss_factor_bounds(r) == (0.0, 0.0)
    for r in (-1.0, np.nan):
        with pytest.raises(ValueError):
            iz.expected_loss_factor_bounds(r)


def test_expected_loss_scale_parameter_formula():
    sc = _scenario(sensing_covariance_scale=0.25)
    omega = 2.5
    gamma = 1.0 / sc.sigma_sq
    by_hand = 2.0 * gamma * (1.0 + np.sqrt(omega)) ** 2 * 0.25 / sc.nu_sq
    assert iz.expected_loss_r(sc, omega) == pytest.approx(by_hand, rel=1e-12)
    with pytest.raises(ValueError):
        iz.expected_loss_r(sc, -1.0)


def test_expected_loss_scale_infinite_without_channel_noise():
    sc = _scenario(transmit_snr_db=float("inf"))
    assert iz.expected_loss_r(sc, 1.0) == np.inf


# ---------------------------------------------------------------------------
# exponential integral


def _e1(x):
    """E1(x) from the library's overflow-safe e^x E1(x), where e^-x is a
    normal float."""
    return iz.exp_integral_e1_scaled(x) * np.exp(-x)


def test_exponential_integral_reference_value():
    assert _e1(1.0) == pytest.approx(0.21938393439552029, abs=1e-9)


def test_exponential_integral_against_quadrature():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        oracle, err = integrate.quad(
            lambda t: np.exp(-t) / t, x, np.inf, limit=400, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-11
        assert _e1(x) == pytest.approx(oracle, abs=1e-9)


def test_exponential_integral_classical_envelope():
    # (e^-x / 2) log(1 + 2/x)  <  E1(x)  <  e^-x log(1 + 1/x)
    for x in np.logspace(-3, 2, 50):
        val = _e1(float(x))
        assert 0.0 < val < np.exp(-x) * np.log1p(1.0 / x)
        assert val > 0.5 * np.exp(-x) * np.log1p(2.0 / x)


def test_exponential_integral_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            iz.exp_integral_e1_scaled(bad)


def test_scaled_exponential_integral_survives_large_arguments():
    # e^x E1(x) ~ 1/x - 1/x^2 for large x; the plain form underflows to zero.
    assert iz.exp_integral_e1_scaled(1e8) == pytest.approx(1e-8, rel=1e-6)
    assert special.exp1(800.0) == pytest.approx(0.0, abs=1e-300)
    assert iz.exp_integral_e1_scaled(800.0) > 0.0


def test_scaled_exponential_integral_near_the_largest_float():
    # the series in powers of 1/x underflows where powers of x would overflow
    assert iz.exp_integral_e1_scaled(1e300) == pytest.approx(1e-300, rel=1e-12)


def test_scaled_exponential_integral_continuous_at_series_switch():
    # below 700 the value is e^x E1(x), from 700 on the asymptotic series
    below = iz.exp_integral_e1_scaled(np.nextafter(700.0, 0.0))
    above = iz.exp_integral_e1_scaled(700.0)
    assert above == pytest.approx(below, rel=1e-13)


# ---------------------------------------------------------------------------
# limiting distributions


def test_alignment_cdf_reference_points():
    assert iz.scaled_alignment_cdf(0.0)(1.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert iz.scaled_alignment_cdf(1.0)(4.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert iz.scaled_alignment_cdf(4.0)(9.0 * np.log(2.0)) == pytest.approx(0.5)
    cdf = iz.scaled_alignment_cdf(1.0)
    np.testing.assert_array_equal(cdf(np.array([-1.0, 0.0])), [0.0, 0.0])
    with pytest.raises(ValueError):
        iz.scaled_alignment_cdf(-0.5)


def test_zf_norm_cdf_is_a_distribution_with_known_mean():
    cdf = iz.zf_norm_cdf(16, 10)
    grid = np.logspace(-6, 6, 400)
    vals = cdf(grid)
    assert vals[0] < 1e-12 and vals[-1] > 1 - 1e-12
    assert np.all(np.diff(vals) >= 0)
    mean, err = integrate.quad(lambda x: 1.0 - cdf(x), 0, np.inf, limit=200)
    assert err < 1e-6
    assert mean == pytest.approx(1.0 / 6.0, rel=1e-4)
    with pytest.raises(ValueError):
        iz.zf_norm_cdf(9, 10)


def test_zf_norm_cdf_square_channel_closed_form():
    cdf = iz.zf_norm_cdf(3, 3)
    xs = np.array([0.2, 0.5, 1.0, 3.0, 10.0])
    np.testing.assert_allclose(cdf(xs), np.exp(-1.0 / xs), atol=1e-14)


def test_crossing_probability_values():
    assert iz.crossing_probability(10, 0.25) == 1.0
    assert iz.crossing_probability(10, 1.0) == 1.0
    assert iz.crossing_probability(50, 4.0) == pytest.approx(np.exp(-50.0 / 6.0))
    assert iz.crossing_probability(100, 4.0) < iz.crossing_probability(50, 4.0)
    assert iz.crossing_probability(50, 9.0) < iz.crossing_probability(50, 4.0)
    with pytest.raises(ValueError):
        iz.crossing_probability(10, -1.0)


def test_min_alignment_mean_near_asymptotic_scale():
    # K * min_k |v^H h_k|^2 should average near (1 + sqrt(omega))^2 once K
    # is moderately large; omega = 4 keeps the hard-edge bias small.
    for point, (K, N), seen in ((0, (50, 200), 1.0033), (1, (200, 800), 0.9599)):
        rng = substream(20240, 21, point_index=point)
        (align,) = _per_draw(_weakest_alignment, 1, N, K, lambda a, b: repeat(rng, b - a), 1000)
        draws = K * align
        ratio = draws.mean() / (1.0 + np.sqrt(N / K)) ** 2
        assert ratio == pytest.approx(seen, abs=2e-4)
        assert abs(ratio - 1.0) < 0.10


# ---------------------------------------------------------------------------
# empirical distance


def test_ks_statistic_null_calibration():
    rng = substream(20240, 22)
    u = rng.random(10000)
    ks = iz.ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
    assert ks == pytest.approx(0.006691, abs=1e-5)
    assert ks < 0.0163  # 99% point of the Kolmogorov law at n = 1e4


def test_ks_statistic_flags_degenerate_sample():
    ks = iz.ks_statistic(np.full(500, 0.3), lambda x: np.clip(x, 0.0, 1.0))
    assert ks >= 0.5


def test_ks_statistic_rejects_tiny_samples():
    with pytest.raises(ValueError):
        iz.ks_statistic(np.linspace(0, 1, 99), lambda x: x)
