"""Label and feature sampling, noiseless aggregation."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

import isea_sim as iz
from isea_sim.streams import substream


def _scenario(**overrides):
    base = dict(
        feature_dim=5,
        num_classes=5,
        num_sensors=10,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        master_seed=20240,
        mc_trials=1000,
    )
    base.update(overrides)
    return iz.build_scenario(iz.ScenarioConfig(**base))


def test_label_frequencies_are_uniform():
    rng = substream(0, 0)
    counts = np.bincount([iz.sample_label(2, rng) for _ in range(100000)], minlength=2)
    assert np.all(np.abs(counts / 100000 - 0.5) < 0.005)


def test_label_sequence_reproducible():
    a = [iz.sample_label(7, substream(5, 0)) for _ in range(50)]
    b = [iz.sample_label(7, substream(5, 0)) for _ in range(50)]
    assert a == b


def test_label_uniformity_chi_square():
    rng = substream(1, 0)
    counts = np.bincount([iz.sample_label(20, rng) for _ in range(100000)], minlength=20)
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.01


def test_zero_covariance_features_are_exact_projections():
    # C = 0 is outside the config contract, so build it directly: sampling
    # then returns the projected centroids P_k mu_l exactly.
    scen = _scenario()
    zero = np.zeros_like(scen.C)
    scen = dataclasses.replace(scen, C=zero, C_factor=zero)
    f = iz.sample_local_features(scen, 1, substream(2, 0))
    assert np.array_equal(f, scen.sensor_centroids[:, 1])


def test_local_feature_mean():
    scen = _scenario()
    rng = substream(3, 0)
    n = 100000
    acc = np.zeros(5)
    for _ in range(n):
        acc += iz.sample_local_features(scen, 4, rng)[2]
    dev = np.abs(acc / n - scen.sensor_centroids[2, 4])
    assert np.all(dev < 3 * np.sqrt(0.1 / n))


def test_local_feature_covariance():
    scen = _scenario()
    rng = substream(4, 0)
    n = 100000
    samples = np.empty((n, 5))
    for i in range(n):
        samples[i] = iz.sample_local_features(scen, 0, rng)[0]
    S = np.cov(samples, rowvar=False)
    assert np.linalg.norm(S - scen.C) / np.linalg.norm(scen.C) < 0.05


def test_batch_sampling_matches_marginals():
    scen = _scenario(num_sensors=4)
    batch = iz.sample_local_features(scen, 2, substream(6, 0))
    assert batch.shape == (4, 5)
    assert np.all(np.isfinite(batch))


def test_aggregate_single_vector_is_identity():
    v = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(iz.aggregate_noiseless(v), v[0])


def test_aggregate_equal_vectors():
    v = np.array([0.5, 1.5, -0.5])
    stack = np.tile(v, (7, 1))
    np.testing.assert_allclose(iz.aggregate_noiseless(stack), v, atol=1e-15)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        iz.aggregate_noiseless(np.empty((0, 3)))


def test_aggregate_rejects_wrong_shape():
    with pytest.raises(ValueError):
        iz.aggregate_noiseless(np.zeros(3))


def test_aggregate_linearity():
    rng = substream(8, 0)
    f = rng.standard_normal((6, 4))
    g = rng.standard_normal((6, 4))
    lhs = iz.aggregate_noiseless(2.0 * f + 3.0 * g)
    rhs = 2.0 * iz.aggregate_noiseless(f) + 3.0 * iz.aggregate_noiseless(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_aggregate_moments_shrink_with_sensor_count():
    # Averaging K noisy views keeps the projected mean and divides the
    # noise covariance by K.
    scen = _scenario()
    rng = substream(9, 0)
    n = 20000
    agg = np.empty((n, 5))
    for i in range(n):
        agg[i] = iz.aggregate_noiseless(iz.sample_local_features(scen, 3, rng))
    ref = scen.C / 10
    se = agg.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(agg.mean(axis=0) - scen.P_bar @ scen.centroids[3]) < 3 * se)
    S = np.cov(agg, rowvar=False)
    assert np.linalg.norm(S - ref) / np.linalg.norm(ref) < 0.05
