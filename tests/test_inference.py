"""Classification, posterior entropy, and the Monte Carlo trial engine."""

import concurrent.futures
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import dblquad, quad

import isea_sim as iz
from isea_sim import channel, inference
from isea_sim.streams import substream, trial_streams


def _config(**overrides):
    base = dict(
        feature_dim=5,
        num_classes=5,
        num_sensors=10,
        num_antennas=12,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        transmit_snr_db=10.0,
        master_seed=20240,
        mc_trials=1000,
    )
    base.update(overrides)
    return iz.ScenarioConfig(**base)


def _plane_scenario():
    """M=2 full-rank scenario with unit-separated centroids."""
    cfg = _config(feature_dim=2, num_classes=2, num_sensors=1, observation_rank=2)
    cents = np.array([[1.0, 0.0], [0.0, 0.0]])
    return iz.build_scenario(cfg, centroids=cents)


def _line_scenario(var=0.1):
    """M=1, two centroids at +-1, single sensor."""
    cfg = _config(
        feature_dim=1, num_classes=2, num_sensors=1, observation_rank=1,
        sensing_covariance_scale=var,
    )
    return iz.build_scenario(cfg, centroids=np.array([[1.0], [-1.0]]))


# -------------------------------------------------------- discrimination gain
# _plane_scenario has a single sensor, so P_bar = P_0 and the fused pairwise
# separation is that sensor's local discrimination gain.


def test_gain_vanishes_for_same_class():
    scen = iz.build_scenario(_config())
    assert iz.pairwise_separation_matrix(scen)[2, 2] == 0.0


def test_gain_closed_form_in_plane():
    scen = _plane_scenario()
    assert abs(iz.pairwise_separation_matrix(scen)[0, 1] - 10.0) < 1e-9


def test_gain_matches_symmetric_kl_quadrature():
    # The gain is the symmetric KL divergence between the two local
    # feature densities; integrate it directly as the oracle.
    scen = _plane_scenario()
    mus = scen.sensor_centroids[0]
    det = 0.1 * 0.1

    def density(x, y, mu):
        q = ((x - mu[0]) ** 2 + (y - mu[1]) ** 2) / 0.1
        return np.exp(-0.5 * q) / (2 * np.pi * np.sqrt(det))

    def integrand(y, x):
        p = density(x, y, mus[0])
        q = density(x, y, mus[1])
        if p < 1e-300 or q < 1e-300:
            return 0.0
        return (p - q) * np.log(p / q)

    val, err = dblquad(integrand, -4, 5, -4, 4, epsabs=1e-9)
    assert err < 1e-6
    assert abs(iz.pairwise_separation_matrix(scen)[0, 1] - val) < 1e-6


def test_gain_symmetry():
    scen = iz.build_scenario(_config(observation_rank=3))
    for snr in (np.inf, 3.7):
        mat = iz.pairwise_separation_matrix(scen, snr=snr)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)


# --------------------------------------------------------- pairwise separation


def test_separation_noisy_limit_recovers_noiseless():
    scen = iz.build_scenario(_config())
    clean = iz.pairwise_separation_matrix(scen)[0, 1]
    noisy = iz.pairwise_separation_matrix(scen, snr=1e12)[0, 1]
    assert abs(noisy - clean) / clean < 1e-6


def test_separation_shrinks_with_noise():
    scen = iz.build_scenario(_config())
    clean = iz.pairwise_separation_matrix(scen)[1, 3]
    for snr in (0.1, 1.0, 10.0, 100.0):
        assert iz.pairwise_separation_matrix(scen, snr=snr)[1, 3] < clean


def test_noisy_separation_direct_inverse_route():
    scen = iz.build_scenario(_config(observation_rank=2))
    K, gamma = 10, 3.7
    middle = np.linalg.inv(scen.C + (K / gamma) * np.eye(5))
    mat = iz.pairwise_separation_matrix(scen, snr=gamma)
    for a, b in [(0, 1), (2, 4)]:
        delta = scen.centroids[a] - scen.centroids[b]
        direct = delta @ scen.P_bar @ middle @ scen.P_bar @ delta
        assert abs(mat[a, b] - direct) < 1e-10


# ----------------------------------------------------------------- classifier


def _oracle_posterior(scen, f, snr=np.inf):
    """Posterior from the Mahalanobis distances under the explicitly
    inverted M x M effective covariance C/K + (1/snr) I; an independent
    check on the library's eigenbasis route."""
    cov = scen.C / scen.num_sensors + (1.0 / snr) * np.eye(scen.feature_dim)
    diff = scen.centroids @ scen.P_bar.T - np.asarray(f, dtype=float)[None, :]
    maha = np.einsum("li,ij,lj->l", diff, np.linalg.inv(cov), diff)
    weights = np.exp(-0.5 * (maha - maha.min()))
    return weights / weights.sum()


def _classified(scen, f, snr=np.inf):
    """Entropies, posteriors and decisions of the received vectors ``f``
    (n, M), or of one vector, all at effective SNR ``snr``: the engine's one
    classifier route, ``_classify`` through ``_posterior_logits`` and
    ``_entropies``."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    return inference._classify(scen, f, np.full(f.shape[0], float(snr)))


def test_posterior_matches_explicit_inverse_oracle():
    A = substream(31, 1).standard_normal((5, 5))
    covariance = A @ A.T / 5 + 0.05 * np.eye(5)  # non-isotropic override
    scenarios = (
        iz.build_scenario(_config(num_classes=8, observation_rank=2)),
        iz.build_scenario(_config(num_classes=8, observation_rank=3), covariance=covariance),
    )
    rng = substream(31, 0)
    for scen in scenarios:
        for snr in (np.inf, 0.7, 5.0):
            fs = [
                scen.P_bar @ scen.centroids[rng.integers(8)] + rng.standard_normal(5) * 0.3
                for _ in range(200)
            ]
            _, probs, decisions = _classified(scen, fs, snr)
            oracle = [_oracle_posterior(scen, f, snr) for f in fs]
            np.testing.assert_allclose(probs, oracle, atol=1e-9)
            np.testing.assert_array_equal(decisions, probs.argmax(axis=1))


def test_classifier_at_zero_snr_is_uninformative():
    # a trial with no usable channel gets the uniform posterior, entropy
    # log L and decision 0, beside informative trials of the same call
    scen = iz.build_scenario(_config())
    snrs = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
    entropies, probs, decisions = inference._classify(scen, scen.centroids @ scen.P_bar.T, snrs)
    dead = snrs == 0
    np.testing.assert_array_equal(probs[dead], 0.2)
    np.testing.assert_array_equal(entropies[dead], np.log(5))
    np.testing.assert_array_equal(decisions, [0, 1, 0, 3, 0])


def test_an_snr_whose_noise_power_overflows_delivers_nothing():
    # 1/snr of a subnormal SNR is past the largest float: such a trial is
    # received and classified as at SNR 0, with no warning, while an SNR
    # whose noise power is a float is received at it
    scen = iz.build_scenario(_config())
    snrs = np.array([5e-324, 1e-300, 0.0, 5.0])
    f_bar = np.repeat(scen.centroids[:1] @ scen.P_bar.T, 4, axis=0)
    f_tilde = channel._receive(f_bar, snrs, np.ones_like(f_bar))
    assert np.isnan(f_tilde[[0, 2]]).all() and np.isfinite(f_tilde[[1, 3]]).all()
    entropies, probs, _ = inference._classify(scen, f_tilde, snrs)
    np.testing.assert_array_equal(probs[[0, 2]], 0.2)
    np.testing.assert_array_equal(entropies[[0, 2]], np.log(5))


def test_classifier_recovers_exact_centroid():
    scen = iz.build_scenario(_config())
    decisions = _classified(scen, scen.centroids @ scen.P_bar.T)[2]
    np.testing.assert_array_equal(decisions, np.arange(5))


def test_classifier_nearest_centroid_on_line():
    scen = _line_scenario()
    np.testing.assert_array_equal(_classified(scen, [[0.2], [-0.2]])[2], [0, 1])


def test_classifier_agrees_with_posterior_argmax():
    scen = iz.build_scenario(_config(num_classes=8, observation_rank=2))
    f = substream(30, 0).standard_normal((10000, 5)) * 2.0
    _, probs, decisions = _classified(scen, f, 5.0)
    np.testing.assert_array_equal(decisions, probs.argmax(axis=1))


def test_posterior_uniform_when_indistinguishable():
    cfg = _config(num_classes=4)
    shared = np.tile(np.array([0.3, -0.7, 0.1, 0.0, 1.0]), (4, 1))
    scen = iz.build_scenario(cfg, centroids=shared)
    _, probs, decisions = _classified(scen, [5.0, 0.0, -2.0, 1.0, 0.0])
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)
    assert decisions[0] == 0  # ties resolve to the lowest index


def test_posterior_stable_for_extreme_inputs():
    scen = iz.build_scenario(_config())
    probs = _classified(scen, np.full(5, 1e4))[1]  # log-likelihood spread far beyond exp range
    assert np.all(probs >= 0)
    assert np.all(probs <= 1)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_posterior_matches_logistic_closed_form():
    var = 0.1
    scen = _line_scenario(var)
    x = np.linspace(-3, 3, 25)
    probs = _classified(scen, x[:, None])[1]
    expected = 1.0 / (1.0 + np.exp(-2.0 * x / var))
    assert np.max(np.abs(probs[:, 0] - expected)) < 1e-10


@given(st.lists(st.floats(-50, 50), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_posterior_normalization_fuzz(values):
    scen = iz.build_scenario(_config())
    entropies, probs, _ = _classified(scen, values)
    assert abs(probs.sum() - 1.0) < 1e-12
    ent = special.entr(probs).sum()
    assert 0.0 <= ent <= np.log(5) + 1e-12
    assert entropies[0] == pytest.approx(ent, abs=1e-12)


def test_ill_conditioned_covariance_raises():
    # C/K has condition number 1e13, past the 1e12 limit of the classifier.
    cfg = _config(feature_dim=3, num_classes=3, num_sensors=1, observation_rank=3)
    scen = iz.build_scenario(cfg, covariance=np.diag([1e-13, 1.0, 1.0]))
    with pytest.raises(iz.NumericalError):
        iz.run_trials(scen, "noiseless", 10)
    with pytest.raises(iz.NumericalError):
        _classified(scen, np.zeros(3))


# ------------------------------------------------------------- trial running


def test_identical_centroids_give_maximal_uncertainty():
    cfg = _config(num_classes=5)
    shared = np.tile(np.array([0.1, 0.2, 0.3, 0.4, 0.5]), (5, 1))
    scen = iz.build_scenario(cfg, centroids=shared)
    batch = iz.run_trials(scen, "noiseless", 500)
    assert abs(batch.mean_entropy - np.log(5)) < 1e-12
    assert batch.entropy_stderr < 1e-15  # rounding jitter only
    acc = iz.run_trials(scen, "noiseless", 4000).accuracy
    # the tie-break always selects class 0, which is drawn 1/L of the time
    assert abs(acc - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 4000)


def test_uncertainty_matches_quadrature_oracle():
    scen = _line_scenario()
    mus = (scen.centroids @ scen.P_bar.T)[:, 0]

    def integrand(f):
        lik = np.exp(-0.5 * (f - mus) ** 2 / 0.1) / np.sqrt(2 * np.pi * 0.1)
        mix = lik.mean()
        p = lik / lik.sum()
        p = p[p > 0]
        return mix * float(-(p * np.log(p)).sum())

    exact, quad_err = quad(integrand, -8, 8, limit=200)
    assert quad_err < 1e-8
    batch = iz.run_trials(scen, "noiseless", 20000)
    assert abs(batch.mean_entropy - exact) < 3 * batch.entropy_stderr


def test_a_class_with_a_minus_inf_logit_adds_no_entropy():
    # its weight exp(-inf) is 0, and 0 log 0 is 0, not 0 * (-inf) = NaN
    logits = np.array([[0.3, 1.2, -0.4, 2.0]])
    with_minus_inf = np.insert(logits, 1, -np.inf, axis=1)
    expected = inference._entropies(logits)[0]
    assert inference._entropies(with_minus_inf)[0] == pytest.approx(expected, abs=1e-15)


def test_uncertainty_not_monotone_in_sensor_count():
    # With rank-1 observations, adding a sensor can reshuffle the fused
    # subspace and raise the uncertainty; seed 1 shows a clear step.
    cfg2 = _config(master_seed=1, num_sensors=2)
    cfg3 = _config(master_seed=1, num_sensors=3)
    b2 = iz.run_trials(iz.build_scenario(cfg2), "noiseless", 4000)
    b3 = iz.run_trials(iz.build_scenario(cfg3), "noiseless", 4000)
    gap = b3.mean_entropy - b2.mean_entropy
    assert gap > 3 * (b2.entropy_stderr + b3.entropy_stderr)


def test_perfectly_separable_scenario_is_classified_exactly():
    cfg = _config(
        feature_dim=4, num_classes=3, num_sensors=2, observation_rank=4,
        sensing_covariance_scale=1e-12, transmit_snr_db=float("inf"),
    )
    scen = iz.build_scenario(cfg)
    batch = iz.run_trials(scen, "noiseless", 2000)
    assert batch.accuracy == 1.0
    assert batch.accuracy_stderr == 0.0


def test_higher_observation_rank_improves_accuracy():
    accs = {}
    for r in (50, 70):
        cfg = _config(
            feature_dim=100, num_classes=20, num_sensors=4, observation_rank=r,
            centroid_scale=0.08,
        )
        batch = iz.run_trials(iz.build_scenario(cfg), "noiseless", 4000)
        accs[r] = batch
    gap = accs[70].accuracy - accs[50].accuracy
    assert gap > 3 * (accs[70].accuracy_stderr + accs[50].accuracy_stderr)


def test_unknown_pipeline_rejected():
    scen = iz.build_scenario(_config())
    with pytest.raises(ValueError):
        iz.run_trials(scen, "telepathy", 200)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_rejected(workers):
    scen = iz.build_scenario(_config())
    with pytest.raises(ValueError, match="workers must be at least 1"):
        iz.run_trials(scen, "aircomp", 10, workers=workers)


def test_orthogonal_trials_infeasible_without_antennas():
    scen = iz.build_scenario(_config(num_antennas=4))
    with pytest.raises(iz.InfeasibleAccessError):
        iz.run_trials(scen, "orthogonal", 200)


def test_worker_split_is_invisible(monkeypatch):
    # 600 trials are six stacks of at most 111 (N = 12, K = 10), so a
    # two-worker run exercises the pool path and must reproduce the serial
    # arrays; 200 one-row stacks reach the pool's 100 in one batch.
    scen = iz.build_scenario(_config())
    for stack_bytes, trials in ((inference._STACK_BYTES, 600), (1, 200)):
        monkeypatch.setattr(inference, "_STACK_BYTES", stack_bytes)
        serial = iz.run_trials(scen, "aircomp", trials)
        pooled = iz.run_trials(scen, "aircomp", trials, workers=2)
        assert np.array_equal(serial.entropies, pooled.entropies)
        assert np.array_equal(serial.predictions, pooled.predictions)
        assert np.array_equal(serial.snrs, pooled.snrs)


def _record_pool_sizes(monkeypatch):
    """Make run_trials' pools record the worker count each one asks for."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def _usable_cpus(monkeypatch, cpus):
    """Make run_trials see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_pool_starts_no_more_workers_than_stacks(monkeypatch):
    # A fork pool starts all of its workers at the first submit.  At 200
    # trials (two stacks, of 111 and 89) and three workers on three CPUs the
    # calling process runs the first stack, so the pool must ask for one
    # worker, and the arrays must still equal the serial run's.
    sizes = _record_pool_sizes(monkeypatch)
    _usable_cpus(monkeypatch, 3)
    scen = iz.build_scenario(_config())
    serial = iz.run_trials(scen, "aircomp", 200)
    pooled = iz.run_trials(scen, "aircomp", 200, workers=3)
    assert sizes == [1]
    for field in ("entropies", "labels", "predictions", "snrs"):
        np.testing.assert_array_equal(getattr(serial, field), getattr(pooled, field))


@pytest.mark.parametrize("pipeline", iz.PIPELINES)
def test_calling_process_runs_its_share_of_the_stacks(monkeypatch, pipeline):
    # 1,100 trials are ten channel stacks of at most 111, or three
    # noiseless stacks of at most 512.  On three CPUs, at two workers the
    # calling process runs the even stacks and a one-worker pool the odd
    # ones; at three workers the calling process runs every third stack
    # and a two-worker pool the others.
    sizes = _record_pool_sizes(monkeypatch)
    _usable_cpus(monkeypatch, 3)
    scen = iz.build_scenario(_config())
    serial = iz.run_trials(scen, pipeline, 1100, stream_id=6, point_index=1)
    for workers in (2, 3):
        pooled = iz.run_trials(scen, pipeline, 1100, stream_id=6, point_index=1, workers=workers)
        for field in ("entropies", "labels", "predictions", "snrs"):
            np.testing.assert_array_equal(getattr(serial, field), getattr(pooled, field))
    assert sizes == [1, 2]


def test_workers_are_bounded_by_the_usable_cpus(monkeypatch):
    # A fork pool starts all of its workers at once, so a huge ``workers``
    # must fork no more processes than the CPUs can run: none on one CPU,
    # one beside the calling process on two.  Without sched_getaffinity the
    # bound is os.cpu_count(), or one CPU where that is unknown.
    sizes = _record_pool_sizes(monkeypatch)
    scen = iz.build_scenario(_config())
    serial = iz.run_trials(scen, "orthogonal", 1100)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        pooled = iz.run_trials(scen, "orthogonal", 1100, workers=100_000)
        np.testing.assert_array_equal(serial.entropies, pooled.entropies)
    monkeypatch.delattr(os, "sched_getaffinity")
    for count in (1, None, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        pooled = iz.run_trials(scen, "orthogonal", 1100, workers=100_000)
        np.testing.assert_array_equal(serial.entropies, pooled.entropies)
    assert sizes == [1, 1]


@pytest.mark.parametrize("num_antennas", [8, 12])
def test_kept_draws_replace_a_partners_draws(monkeypatch, num_antennas):
    # an adaptive run that keeps its draws runs as it does alone, and each
    # other access pipeline given them classifies its trials as it does
    # alone, drawing nothing; where N < K adaptive's SNRs are aircomp's
    scen = iz.build_scenario(_config(num_antennas=num_antennas))
    feasible = num_antennas >= scen.num_sensors
    partners = ("aircomp", "orthogonal")[: 1 + feasible]
    alone = {p: iz.run_trials(scen, p, 300, stream_id=6, point_index=1) for p in partners}
    adaptive = iz.run_trials(scen, "adaptive", 300, stream_id=6, point_index=1)
    keeps = iz.run_trials(scen, "adaptive", 300, stream_id=6, point_index=1, keep_draws=True)
    assert adaptive.draws is None and keeps.draws.labels is keeps.labels
    assert keeps.draws.rows.shape == (300, 2 * scen.feature_dim + 2)
    for field in ("entropies", "labels", "predictions", "snrs"):
        np.testing.assert_array_equal(getattr(adaptive, field), getattr(keeps, field))
    monkeypatch.setattr(inference, "trial_streams", None)
    monkeypatch.setattr(inference, "sample_channel", None)
    for pipeline in partners:
        given = iz.run_trials(scen, pipeline, 300, draws=keeps.draws)
        for field in ("entropies", "labels", "predictions", "snrs"):
            np.testing.assert_array_equal(getattr(alone[pipeline], field), getattr(given, field))
    if not feasible:
        np.testing.assert_array_equal(keeps.snrs, alone["aircomp"].snrs)
        np.testing.assert_array_equal(keeps.draws.rows[:, -1], np.full(300, -np.inf))
    with pytest.raises(ValueError, match="one row"):
        iz.run_trials(scen, "aircomp", 299, draws=keeps.draws)
    for pipeline in ("noiseless", "adaptive"):
        with pytest.raises(ValueError, match="take kept draws"):
            iz.run_trials(scen, pipeline, 300, draws=keeps.draws)
    with pytest.raises(ValueError, match="to keep"):
        iz.run_trials(scen, "aircomp", 300, keep_draws=True)


def test_paired_uncertainty_decreases_with_snr():
    # Under one seed only the noise scale depends on the transmit SNR: each
    # trial draws the same label, features and channel at every SNR, so the
    # per-trial entropies are paired across the runs.
    prev = None
    for db in (-10.0, 0.0, 10.0, 20.0):
        scen = iz.build_scenario(_config(transmit_snr_db=db))
        batch = iz.run_trials(scen, "aircomp", 4000)
        if prev is not None:
            assert np.array_equal(batch.labels, prev.labels)
            diff = prev.entropies - batch.entropies
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            assert diff.mean() > 3 * se
        prev = batch


@pytest.mark.parametrize("pipeline", iz.PIPELINES)
def test_simulate_trial_replays_run_trials(pipeline):
    # 600 trials are stacks of 111 rows (N = 12, K = 10), or of 512 for
    # noiseless; indices 110 and 111 sit on either side of a channel stack
    # edge and 511 and 512 of the noiseless one, and the two-worker run maps
    # the even stacks in the calling process and the odd ones in the pool.
    scen = iz.build_scenario(_config())
    stream_id, point = 7, 3
    batch = iz.run_trials(scen, pipeline, 600, stream_id=stream_id, point_index=point, workers=2)
    for i in (0, 110, 111, 511, 512, 599):
        rec = iz.simulate_trial(scen, pipeline, substream(20240, stream_id, point, i))
        assert rec.label == batch.labels[i]
        assert rec.predicted == batch.predictions[i]
        assert rec.entropy == batch.entropies[i]
        assert rec.effective_snr == batch.snrs[i]
        assert abs(rec.posterior.sum() - 1.0) < 1e-12
        assert int(np.argmax(rec.posterior)) == rec.predicted


def test_trial_streams_match_substreams():
    # the re-keyed generator must draw exactly what a fresh substream draws,
    # whatever the previous trial consumed
    start, stop = 509, 517
    for t, rng in zip(range(start, stop), trial_streams(20240, 7, 3, start, stop)):
        fresh = substream(20240, 7, 3, t)
        for draw in (lambda g: g.integers(5), lambda g: g.standard_normal((t % 4 + 1, 3))):
            np.testing.assert_array_equal(draw(rng), draw(fresh))


def test_one_normal_draw_per_trial_equals_its_four_blocks():
    # After its label a trial draws one row of K M + 2 N K + M normals into
    # its stack; a Philox generator keeps no state between normal calls, so
    # the row equals the views, the channel's real and imaginary parts and
    # the noise drawn with one call each.
    K, M, N = 6, 5, 9
    for t, rng in zip(range(509, 517), trial_streams(20240, 5, 2, 509, 517)):
        separate = substream(20240, 5, 2, t)
        assert iz.sample_label(5, rng) == iz.sample_label(5, separate)
        row = np.empty(K * M + 2 * N * K + M)
        rng.standard_normal(out=row)
        blocks = [separate.standard_normal(shape) for shape in ((K, M), (N, K), (N, K), M)]
        np.testing.assert_array_equal(row, np.concatenate([b.ravel() for b in blocks]))


@pytest.mark.parametrize("pipeline", iz.PIPELINES)
def test_stack_size_does_not_change_results(monkeypatch, pipeline):
    # A trial draws 295 normals (N = 12, K = 10, M = 5), or 50 noiseless:
    # stacks of 7 channel or 41 noiseless rows in place of 111 or 512 move
    # every stack edge, and 7 and 41 divide neither 600 nor the defaults.
    scen = iz.build_scenario(_config())
    batches = []
    for stack_bytes in (inference._STACK_BYTES, 7 * 8 * 295):
        monkeypatch.setattr(inference, "_STACK_BYTES", stack_bytes)
        batches.append(iz.run_trials(scen, pipeline, 600, stream_id=7, point_index=3))
    for field in ("entropies", "labels", "predictions", "snrs"):
        np.testing.assert_array_equal(getattr(batches[0], field), getattr(batches[1], field))


def test_stacks_hold_at_most_512_rows_and_stack_bytes_of_normals(monkeypatch):
    # rows_per_stack is the engine's one batching rule: the largest count up
    # to 512 whose rows of a trial's normals fit in _STACK_BYTES, at least one
    for row in (1, 64, 65, 295, 350, 1000, 2**15, 2**15 + 1, 10**6):
        rows = inference.rows_per_stack(row)
        assert 1 <= rows <= 512
        assert rows == 1 or 8 * rows * row <= inference._STACK_BYTES
        assert rows == 512 or 8 * (rows + 1) * row > inference._STACK_BYTES
    # the engine's stacks follow it; a noiseless trial draws K M = 1,000
    # normals and no channel, so its stacks ignore N K and hold 32 rows
    # where a channel stack (81,010 normals) holds one
    spans = []
    run_stack = inference._run_stack

    def record(*args):
        spans.append(args[-2:])
        return run_stack(*args)

    monkeypatch.setattr(inference, "_run_stack", record)
    scen = iz.build_scenario(_config(feature_dim=10, num_sensors=100, num_antennas=400))
    iz.run_trials(scen, "noiseless", 70)
    assert spans == [(0, 32), (32, 64), (64, 70)]
    spans.clear()
    iz.run_trials(scen, "aircomp", 3)
    assert spans == [(0, 1), (1, 2), (2, 3)]


def test_a_stack_holds_about_stack_bytes_at_any_k():
    # At K = 2,000 one noiseless trial draws K M = 10,000 normals (80 kB),
    # so its stacks hold three rows: 512-row stacks would hold 41 MB of
    # normals and as much again in each view-sized temporary.
    scen = iz.build_scenario(_config(feature_dim=5, num_sensors=2000))
    tracemalloc.start()
    try:
        iz.run_trials(scen, "noiseless", 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * inference._STACK_BYTES


def test_trial_records_have_consistent_fields():
    scen = iz.build_scenario(_config(num_antennas=14))
    rec = iz.simulate_trial(scen, "adaptive", substream(40, 0))
    assert 0 <= rec.label < 5
    assert 0 <= rec.predicted < 5
    assert 0.0 <= rec.entropy <= np.log(5) + 1e-12
    assert rec.effective_snr > 0


def test_batch_summaries_match_arrays():
    scen = iz.build_scenario(_config())
    batch = iz.run_trials(scen, "aircomp", 500)
    assert batch.mean_entropy == pytest.approx(batch.entropies.mean())
    assert batch.accuracy == pytest.approx(
        np.mean(batch.labels == batch.predictions)
    )
    expected_se = batch.entropies.std(ddof=1) / np.sqrt(500)
    assert batch.entropy_stderr == pytest.approx(expected_se)


# ------------------------------------------- stacked engine, per-draw oracle


def _reference_pair(H):
    """One draw's principal pair computed on its own, as the one-draw code
    computed it: the top eigenpair of the smaller Gram matrix, the 1-D
    ``np.linalg.norm``, and the largest entry's phase divided out by its
    scalar modulus."""
    N, K = H.shape
    if N < K:
        w, V = np.linalg.eigh(H @ H.conj().T)
        q1 = H.conj().T @ V[:, -1] / np.sqrt(w[-1])
    else:
        w, V = np.linalg.eigh(H.conj().T @ H)
        q1 = V[:, -1]
    q1 = q1 / np.linalg.norm(q1)
    top = q1[np.argmax(np.abs(q1))]
    return float(w[-1]), q1 * (top.conjugate() / abs(top))


def _draw_trial(scenario, pipeline, rng):
    """Reference route: one trial through the per-draw functions, each block
    of normals drawn with its own call and the channel formed through the
    engine's own binding of ``sample_channel``.  gamma_air comes from the
    principal pair of :func:`_reference_pair`, gamma_aoa from
    ``orthogonal_effective_snr``, and the trial is received at the SNR of
    its pipeline."""
    label = iz.sample_label(scenario.num_classes, rng)
    K, M, N = scenario.num_sensors, scenario.feature_dim, scenario.num_antennas
    features = iz.sample_local_features(scenario, label, rng.standard_normal((K, M)))
    if pipeline == "noiseless":
        return label, iz.aggregate_noiseless(features), np.inf, None
    H = inference.sample_channel(rng.standard_normal((2, N, K)))
    mode = None
    if pipeline == "orthogonal":
        snr = channel.orthogonal_effective_snr(H, scenario)
    else:
        snr = float(channel._air_snrs(channel._alignment(H, *_reference_pair(H)), K, scenario)[0])
    if pipeline == "adaptive":
        gamma_aoa = channel.orthogonal_effective_snr(H, scenario) if N >= K else -np.inf
        snr, air_wins = iz.best_access(snr, gamma_aoa)
        mode = "aircomp" if air_wins else "orthogonal"
    outcome = channel._receive_one(features, float(snr), rng, mode)
    return label, outcome.f_tilde, outcome.effective_snr, outcome.resolved_mode


def _oracle_batch(scenario, pipeline, trials, stream_id, point):
    """The reference route's trials, classified as run_trials classifies."""
    draws = [
        _draw_trial(scenario, pipeline, substream(scenario.config.master_seed, stream_id, point, t))
        for t in range(trials)
    ]
    labels, f_tilde, snrs, modes = zip(*draws)
    snrs = np.array(snrs)
    entropies, _, predictions = inference._classify(scenario, np.array(f_tilde), snrs)
    return (entropies, np.array(labels), predictions, snrs), modes


def _assert_engine_matches_oracle(scenario, pipeline, trials=530):
    # 530 trials cross a stack edge: noiseless stacks hold 512 rows, and
    # channel stacks 394, 306 and 229 at N = 4, 6 and 9 (K = 6)
    batch = iz.run_trials(scenario, pipeline, trials, stream_id=5, point_index=2)
    want, modes = _oracle_batch(scenario, pipeline, trials, 5, 2)
    for field, expected in zip(("entropies", "labels", "predictions", "snrs"), want):
        np.testing.assert_array_equal(getattr(batch, field), expected, err_msg=field)
    return batch, modes


@pytest.mark.parametrize(
    ("pipeline", "num_antennas"),
    [(p, n) for p in iz.PIPELINES for n in (4, 6, 9) if (p, n) != ("orthogonal", 4)],
)
def test_stacked_engine_matches_per_draw_oracle(pipeline, num_antennas):
    # K = 6 sensors: N = 4 < K (orthogonal infeasible), N = K and N = 9 > K,
    # where each access mode wins some adaptive trials
    scen = iz.build_scenario(_config(num_sensors=6, num_antennas=num_antennas))
    _, modes = _assert_engine_matches_oracle(scen, pipeline)
    for t in (0, 511, 529):
        record = iz.simulate_trial(scen, pipeline, substream(20240, 5, 2, t))
        assert record.resolved_mode == modes[t]
    if pipeline == "adaptive":
        expected = {"aircomp", "orthogonal"} if num_antennas >= 6 else {"aircomp"}
        assert set(modes) == expected


def _zero_some_columns(sample_channel):
    """A sampler that silences sensor 0 on the draws whose H[0, 0] has real
    part above 1, about one in six, in one draw (2, N, K) of normals or in
    each of a stack (n, 2, N, K)."""

    def sample(z):
        H = sample_channel(z)
        silenced = H[..., 0, 0].real > 1.0
        H[..., :, 0] = np.where(silenced[..., None], 0.0, H[..., :, 0])
        return H

    return sample


def _after_features(scenario, t):
    """Trial t's generator of the oracle tests, advanced past its label and
    feature draws."""
    rng = substream(scenario.config.master_seed, 5, 2, t)
    iz.sample_label(scenario.num_classes, rng)
    rng.standard_normal((scenario.num_sensors, scenario.feature_dim))
    return rng


@pytest.mark.parametrize(("pipeline", "num_antennas"), [("aircomp", 9), ("aircomp", 4), ("adaptive", 4)])
def test_zero_column_trials_alone_get_zero_snr(monkeypatch, pipeline, num_antennas):
    monkeypatch.setattr(inference, "sample_channel", _zero_some_columns(inference.sample_channel))
    scen = iz.build_scenario(_config(num_sensors=6, num_antennas=num_antennas))
    batch, _ = _assert_engine_matches_oracle(scen, pipeline)
    shape = (2, num_antennas, 6)
    zeroed = np.array([
        inference.sample_channel(_after_features(scen, t).standard_normal(shape))[0, 0] == 0
        for t in range(batch.trials)
    ])
    assert 0 < zeroed.sum() < batch.trials
    np.testing.assert_array_equal(batch.snrs == 0, zeroed)
    np.testing.assert_array_equal(batch.entropies[zeroed], np.log(scen.num_classes))


@pytest.mark.parametrize("pipeline", ["orthogonal", "adaptive"])
def test_singular_gram_raises_numerical_error(monkeypatch, pipeline):
    monkeypatch.setattr(inference, "sample_channel", _zero_some_columns(inference.sample_channel))
    scen = iz.build_scenario(_config(num_sensors=6, num_antennas=9))
    with pytest.raises(iz.NumericalError) as excinfo:
        iz.run_trials(scen, pipeline, 100)
    assert not isinstance(excinfo.value, np.linalg.LinAlgError)


def test_all_zero_channel_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(
        inference, "sample_channel", lambda z: np.zeros(z.shape[:-3] + z.shape[-2:], complex)
    )
    scen = iz.build_scenario(_config(num_sensors=6, num_antennas=9))
    with pytest.raises(iz.NumericalError):
        iz.run_trials(scen, "aircomp", 10)


def test_orthogonal_replay_infeasible_without_antennas():
    scen = iz.build_scenario(_config(num_sensors=6, num_antennas=4))
    with pytest.raises(iz.InfeasibleAccessError):
        iz.simulate_trial(scen, "orthogonal", substream(1, 0))
