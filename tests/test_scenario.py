"""Scenario construction: projections, centroids, analytic symbol variance."""

import dataclasses

import numpy as np
import pytest

import isea_sim as iz
from isea_sim.streams import substream


def _config(**overrides):
    base = dict(
        feature_dim=5,
        num_classes=5,
        num_sensors=3,
        num_antennas=4,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        master_seed=20240,
        mc_trials=1000,
    )
    base.update(overrides)
    return iz.ScenarioConfig(**base)


# ---------------------------------------------------------------- projections


def test_full_rank_projection_is_identity():
    P = iz.generate_observation_matrix(3, 3, substream(0, 0))
    np.testing.assert_allclose(P, np.eye(3), atol=1e-12)


def test_projection_algebra_large():
    P = iz.generate_observation_matrix(100, 50, substream(7, 0))
    assert abs(np.trace(P) - 50) < 1e-9
    assert np.max(np.abs(P @ P - P)) < 1e-9
    assert np.max(np.abs(P - P.T)) < 1e-12


def test_projection_rank_bounds_rejected():
    rng = substream(0, 0)
    with pytest.raises(ValueError):
        iz.generate_observation_matrix(5, 6, rng)
    with pytest.raises(ValueError):
        iz.generate_observation_matrix(5, 0, rng)


def test_random_subspace_mean_is_isotropic():
    # E[P] = (r/M) I by rotation invariance of the subspace draw.
    rng = substream(11, 0)
    n = 100000
    acc = np.zeros((5, 5))
    sq = np.zeros((5, 5))
    for _ in range(n):
        P = iz.generate_observation_matrix(5, 1, rng)
        acc += P
        sq += P * P
    mean = acc / n
    var = sq / n - mean * mean
    se = np.sqrt(var / n)
    dev = np.abs(mean - 0.2 * np.eye(5))
    assert np.all(dev <= 3 * se)


# ------------------------------------------------------------------ centroids


def test_zero_scale_centroids_are_zero():
    mu = iz.generate_centroids(4, 3, 0.0, substream(1, 0))
    assert np.array_equal(mu, np.zeros((3, 4)))


def test_centroid_generation_is_deterministic():
    a = iz.generate_centroids(5, 5, 1.0, substream(1, 0))
    b = iz.generate_centroids(5, 5, 1.0, substream(1, 0))
    assert np.array_equal(a, b)


def test_centroid_entry_variance():
    # 5 draws of a 20 x 100 block pool 10^4 entries.
    vals = np.concatenate(
        [iz.generate_centroids(100, 20, 1.0, substream(s, 0)).ravel() for s in range(5)]
    )
    assert vals.size == 10000
    assert abs(vals.var(ddof=1) - 1.0) < 0.05


# ------------------------------------------------------------- build_scenario


def test_shared_centroid_symbol_variance_reduces_to_noise():
    # One shared centroid removes all between-class variance, so the
    # average per-symbol variance is exactly the noise variance c.
    cfg = _config(sensing_covariance_scale=0.37)
    shared = np.tile(np.array([0.4, -1.2, 0.0, 2.0, 0.3]), (5, 1))
    scen = iz.build_scenario(cfg, centroids=shared)
    assert abs(scen.nu_sq - 0.37) < 1e-12


def test_reference_scenario_passes_validator():
    scen = iz.build_scenario(_config())
    iz.validate_scenario(scen)


def test_validator_rejects_a_scaled_projection():
    scen = iz.build_scenario(_config())
    stretched = dataclasses.replace(scen, P=scen.P * (1.0 + 1e-6))
    with pytest.raises(iz.ConfigError, match="not idempotent"):
        iz.validate_scenario(stretched)


def test_validator_rejects_a_nan_covariance_inverse():
    # a NaN fails no ">= tol" comparison, so every check must be "not < tol"
    scen = iz.build_scenario(_config())
    broken = dataclasses.replace(scen, C_evals=np.full_like(scen.C_evals, np.nan))
    with pytest.raises(iz.ConfigError, match="identity check"):
        iz.validate_scenario(broken)


def test_symbol_variance_matches_monte_carlo():
    cfg = _config(num_sensors=5, mc_trials=1000)
    scen = iz.build_scenario(cfg)
    rng = substream(3, 0)
    trials = 20000
    samples = np.empty((trials, 5, 5))  # (trial, sensor, dim)
    for t in range(trials):
        label = iz.sample_label(5, rng)
        samples[t] = iz.sample_local_features(scen, label, rng)
    per_entry_var = samples.var(axis=0, ddof=1)
    assert abs(per_entry_var.mean() - scen.nu_sq) / scen.nu_sq < 0.03


def test_symbol_variance_increases_with_centroid_scale():
    v = [
        iz.build_scenario(_config(centroid_scale=s)).nu_sq
        for s in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(v, v[1:]))


def test_build_is_pure():
    a = iz.build_scenario(_config())
    b = iz.build_scenario(_config())
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.P, b.P)
    assert a.nu_sq == b.nu_sq


def test_covariance_inverse_identity():
    scen = iz.build_scenario(_config(feature_dim=8, observation_rank=3))
    C_inv = scen.C_evecs @ np.diag(1.0 / scen.C_evals) @ scen.C_evecs.T
    assert np.max(np.abs(C_inv @ scen.C - np.eye(8))) < 1e-9


def test_non_positive_definite_covariance_rejected():
    cfg = _config()
    bad = np.diag([1.0, 1.0, 1.0, 1.0, -0.1])
    with pytest.raises((iz.ConfigError, iz.NumericalError, np.linalg.LinAlgError)):
        iz.build_scenario(cfg, covariance=bad)


def test_projection_invariants_on_built_scenario():
    scen = iz.build_scenario(_config(feature_dim=9, observation_rank=4, num_sensors=6))
    for P in scen.P:
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(P @ P - P)) < 1e-9
        assert abs(np.trace(P) - 4) < 1e-9
    np.testing.assert_allclose(scen.P_bar, scen.P.mean(axis=0), atol=1e-12)


# ------------------------------------------------------------- config parsing


VALID_TEXT = """
# sensing run
feature_dim = 6
num_classes = 4
num_sensors = 8
num_antennas = 10   # receive array
observation_rank = 2
sensing_covariance_scale = 0.2
transmit_snr_db = 5.0
master_seed = 99
mc_trials = 500
"""


def test_parse_config_text_roundtrip():
    cfg = iz.parse_config_text(VALID_TEXT)
    assert cfg.feature_dim == 6
    assert cfg.num_classes == 4
    assert cfg.num_antennas == 10
    assert cfg.transmit_snr_db == 5.0
    assert cfg.master_seed == 99
    # every field, each one off its default, parses back to its value and type
    fields = dataclasses.fields(iz.ScenarioConfig)
    want = iz.ScenarioConfig(**{f.name: f.default + 1 for f in fields})
    text = "".join(f"{f.name} = {getattr(want, f.name)!r}\n" for f in fields)
    parsed = iz.parse_config_text(text)
    assert parsed == want
    assert all(type(getattr(parsed, f.name)) is type(f.default) for f in fields)


def test_unknown_config_key_rejected():
    with pytest.raises(iz.ConfigError):
        iz.parse_config_text("feature_dim = 5\nbogus_key = 1\n")


def test_malformed_config_value_rejected():
    with pytest.raises(iz.ConfigError, match="feature_dim expects an integer"):
        iz.parse_config_text("feature_dim = five\n")
    with pytest.raises(iz.ConfigError, match="transmit_snr_db expects a number"):
        iz.parse_config_text("transmit_snr_db = ten\n")


def test_non_finite_config_value_rejected():
    with pytest.raises(iz.ConfigError):
        iz.parse_config_text("transmit_snr_db = inf\n")


def test_transmit_snr_with_overflowing_noise_power_rejected():
    # sigma^2 = 10**(-dB/10) overflows below about -3083 dB; a very high
    # dB still gives sigma^2 = 0, which is infinite SNR
    with pytest.raises(iz.ConfigError, match="noise power"):
        _config(transmit_snr_db=-4000.0)
    assert iz.build_scenario(_config(transmit_snr_db=4000.0)).sigma_sq == 0.0


def test_transmit_snr_is_the_inverse_noise_power():
    assert iz.build_scenario(_config(transmit_snr_db=10.0)).transmit_snr == pytest.approx(10.0)
    assert iz.build_scenario(_config(transmit_snr_db=4000.0)).transmit_snr == np.inf


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(VALID_TEXT, encoding="utf-8")
    cfg = iz.load_config(path)
    assert cfg.num_sensors == 8


def test_invalid_field_combinations_rejected():
    with pytest.raises(iz.ConfigError):
        _config(observation_rank=9)  # exceeds feature_dim
    with pytest.raises(iz.ConfigError):
        _config(num_classes=1)
    with pytest.raises(iz.ConfigError):
        _config(sensing_covariance_scale=0.0)


# ------------------------------------------------- mean observation matrix


def test_expected_observation_converges_to_isotropic():
    n = 100000
    rng = substream(6, 0)
    est = np.zeros((10, 10))
    for _ in range(n):
        est += iz.generate_observation_matrix(10, 2, rng)
    est /= n
    # Per-entry standard errors at this sample size are below 4e-4 (the
    # largest single-draw entry variance is about 0.014 on the diagonal).
    dev = np.abs(est - (2 / 10) * np.eye(10))
    assert np.max(dev) < 3 * 4e-4
