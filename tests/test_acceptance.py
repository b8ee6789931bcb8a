"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible under ``pytest -s``) with its
wall time and enforces a runtime budget on top of the statistical
tolerance.  All randomness is drawn from frozen substreams of the default
master seed, so every number here is reproducible bit for bit.
"""

import dataclasses
import os
import time
from contextlib import contextmanager
from functools import partial
from itertools import repeat

import numpy as np
import pytest
from scipy import integrate, special, stats

import isea_sim as iz
from isea_sim import feature_model, theory
from isea_sim.channel import snr_pairs
from isea_sim.harness.experiments import (
    ExperimentSpec,
    _alignment_ks,
    _per_draw,
    _zf_norm_ks,
    run_experiment,
)
from isea_sim.streams import substream

MASTER_SEED = 20240


def in_order(rng):
    """A ``streams(a, b)`` factory that hands out ``rng`` for every draw:
    the in-process stacks of one worker draw from it in sequence."""
    return lambda a, b: repeat(rng, b - a)


@contextmanager
def criterion(number, title, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} {title}: FAIL ({elapsed:.1f} s)")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number:02d} {title}: FAIL ({elapsed:.1f} s over budget)")
        raise AssertionError(
            f"criterion {number} runtime {elapsed:.1f} s exceeds {budget_s} s budget"
        )
    print(f"criterion {number:02d} {title}: PASS ({elapsed:.1f} s)")


def _config(**overrides):
    defaults = dict(
        feature_dim=5,
        num_classes=5,
        num_sensors=10,
        num_antennas=12,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        transmit_snr_db=10.0,
        master_seed=MASTER_SEED,
    )
    defaults.update(overrides)
    return iz.ScenarioConfig(**defaults)


def test_01_aggregated_feature_moments():
    # the fused noiseless feature is Gaussian with mean P_bar mu_l and
    # covariance C / K; estimate both from 1e5 draws of one fixed label
    with criterion(1, "aggregated-feature moments", budget_s=10):
        sc = iz.build_scenario(_config())
        rng = substream(MASTER_SEED, 0)
        label = 2
        trials = 100000
        shape = (sc.num_sensors, sc.feature_dim)
        agg = np.empty((trials, sc.feature_dim))
        for i in range(trials):
            agg[i] = feature_model.aggregate_noiseless(
                feature_model.sample_local_features(sc, label, rng.standard_normal(shape))
            )
        target_mean = sc.P_bar @ sc.centroids[label]
        target_cov = sc.C / sc.num_sensors
        se = np.sqrt(np.diag(target_cov) / trials)
        dev = np.abs(agg.mean(axis=0) - target_mean)
        assert np.all(dev <= 3.0 * se)  # observed max 1.47 SE
        emp_cov = np.cov(agg.T)
        frob = np.linalg.norm(emp_cov - target_cov) / np.linalg.norm(target_cov)
        assert frob < 0.05  # observed 0.56%


def test_02_uncertainty_sandwich():
    # Monte Carlo uncertainty must sit between the two surrogate bounds,
    # give or take estimator noise, at every sensor count
    with criterion(2, "two-sided uncertainty bounds", budget_s=60):
        for K in range(1, 13):
            sc = iz.build_scenario(
                _config(num_sensors=K, observation_rank=2)
            )
            batch = iz.run_trials(sc, "noiseless", 10000, stream_id=1, point_index=K - 1)
            pw = theory.pairwise_separation_matrix(sc)
            lower, upper = iz.uncertainty_bounds(pw, 1.0, K, sc.feature_dim)
            slack = 3.0 * batch.entropy_stderr
            assert lower - slack <= batch.mean_entropy <= upper + slack, (
                f"K={K}: {batch.mean_entropy:.4f} outside "
                f"[{lower:.4f}, {upper:.4f}] +/- {slack:.4f}"
            )


def test_03_exponential_uncertainty_decay():
    # equalized pairwise distances: the surrogate, log(1 + (L-1) e^(-K D_bar / 2))
    # there, must decay exactly exponentially, and the simulated uncertainty
    # must keep falling across the same sensor range
    with criterion(3, "exponential decay in sensor count", budget_s=120):
        base = _config(num_sensors=20, num_antennas=24, observation_rank=5)
        centroids = np.sqrt(0.045) * np.eye(5)
        sc = iz.build_scenario(base, centroids=centroids)
        pw = iz.pairwise_separation_matrix(sc)
        off = pw[~np.eye(5, dtype=bool)]
        assert off.max() - off.min() < 1e-12  # distances really are equal
        xi = iz.asymptotic_separation(sc)
        d_bar = iz.mean_separation(sc)
        ks_grid = np.arange(20, 61)
        ys = [np.log(iz.surrogate_uncertainty_full(pw, 0.5, int(k))) for k in ks_grid]
        closed = np.log(np.log1p(4.0 * np.exp(-0.5 * d_bar * ks_grid)))
        np.testing.assert_allclose(ys, closed, rtol=1e-12)
        slope, intercept = np.polyfit(ks_grid, ys, 1)
        resid = ys - (slope * ks_grid + intercept)
        assert 1.0 - resid.var() / np.var(ys) > 0.999
        assert slope == pytest.approx(-0.5 * xi, rel=0.02)  # observed 0.0005% off

        means, errs = [], []
        for point, K in enumerate((20, 30, 40, 50, 60)):
            cfg = dataclasses.replace(base, num_sensors=K, num_antennas=K + 4)
            scK = iz.build_scenario(cfg, centroids=centroids)
            batch = iz.run_trials(scK, "noiseless", 30000, stream_id=2, point_index=point)
            means.append(batch.mean_entropy)
            errs.append(batch.entropy_stderr)
        for i in range(len(means) - 1):
            drop = means[i] - means[i + 1]
            combined = np.sqrt(errs[i] ** 2 + errs[i + 1] ** 2)
            assert drop > 3.0 * combined  # weakest observed drop is ~9 SE


def test_04_scaled_snr_limit_law():
    # the K-scaled weakest alignment follows its limiting exponential law
    with criterion(4, "weakest-alignment limit law", budget_s=180):
        ks, _ = _alignment_ks(100, 100, in_order(substream(MASTER_SEED, 13)), 10000)
        assert ks == pytest.approx(0.0271, abs=2e-4)
        assert ks < 0.03


@pytest.mark.skipif(
    not os.environ.get("ISEA_PAPER_SCALE"),
    reason="set ISEA_PAPER_SCALE=1 to run the K=200 convergence check (~2 min)",
)
def test_04_scaled_snr_limit_law_paper_scale():
    # doubling K tightens the fit to the limit law
    with criterion(4, "weakest-alignment limit law at K=200"):
        rng = substream(MASTER_SEED, 13, point_index=1)
        ks, _ = _alignment_ks(200, 200, in_order(rng), 20000)
        assert ks < 0.02
        assert ks < 0.0271  # tighter than the K=100 distance above


def test_05_zf_beam_norm_law():
    # zero-forcing beam norms follow the scaled inverse chi-square law
    with criterion(5, "zero-forcing norm law", budget_s=30):
        scen = iz.build_scenario(_config(num_sensors=10, num_antennas=16))
        ks, first, _ = _zf_norm_ks(scen, in_order(substream(MASTER_SEED, 14)), 10000)
        assert ks == pytest.approx(0.0089, abs=2e-4)
        assert ks < 0.02
        assert first.mean() == pytest.approx(1.0 / 6.0, rel=0.05)  # observed 0.40% off


@pytest.fixture(scope="module")
def access_mode_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "sweep-n.csv"
    cfg = iz.ScenarioConfig(
        feature_dim=10,
        num_classes=10,
        num_sensors=10,
        num_antennas=12,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        transmit_snr_db=10.0,
        master_seed=MASTER_SEED,
        mc_trials=1000,
    )
    start = time.perf_counter()
    report = run_experiment(ExperimentSpec("sweep-n", cfg, output_path=out))
    elapsed = time.perf_counter() - start
    rows = {}
    for row in report.rows:
        rows.setdefault(int(row.sweep_value), {})[row.pipeline] = row
    return cfg, rows, elapsed


def test_06_access_mode_crossing(access_mode_sweep):
    cfg, rows, sweep_elapsed = access_mode_sweep
    with criterion(6, "access-mode crossing point", budget_s=180 - sweep_elapsed):
        crossing = None
        for N in range(2, 21):
            orth = rows[N]["orthogonal"]
            if orth.feasible != "ok":
                continue
            if orth.mean_uncertainty < rows[N]["aircomp"].mean_uncertainty:
                crossing = N
                break
        assert crossing is not None and 8 <= crossing <= 12  # observed N* = 12

        # below the crossing: with N = 5 < K orthogonal access cannot run
        # at all, so over-the-air wins against the chance-level entropy
        air5 = rows[5]["aircomp"]
        assert rows[5]["orthogonal"].feasible == "INFEASIBLE"
        assert air5.mean_uncertainty + 3 * air5.uncertainty_stderr < np.log(10)

        # above the crossing: compare per trial over the shared stream,
        # which removes the common channel draw from the noise
        scN = iz.build_scenario(dataclasses.replace(cfg, num_antennas=18))
        air = iz.run_trials(scN, "aircomp", 1000, stream_id=12, point_index=16)
        orth = iz.run_trials(scN, "orthogonal", 1000, stream_id=12, point_index=16)
        assert air.mean_entropy == rows[18]["aircomp"].mean_uncertainty
        assert orth.mean_entropy == rows[18]["orthogonal"].mean_uncertainty
        diff = air.entropies - orth.entropies
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > 3.0 * se  # observed 6.6 SE


def test_07_adaptive_mode_dominance(access_mode_sweep):
    # runtime shared with the crossing sweep
    _, rows, _ = access_mode_sweep
    with criterion(7, "adaptive mode dominance"):
        for N in range(2, 21):
            adaptive = rows[N]["adaptive"]
            for pipeline in ("aircomp", "orthogonal"):
                other = rows[N][pipeline]
                if other.feasible != "ok":
                    continue
                slack = 3.0 * np.sqrt(
                    adaptive.accuracy_stderr**2 + other.accuracy_stderr**2
                )
                assert adaptive.accuracy >= other.accuracy - slack, f"N={N} vs {pipeline}"


def test_08_crossing_probability_formula():
    with criterion(8, "crossing probability formula", budget_s=60):
        K, omega = 50, 1.44
        N = round(omega * K)
        sc = iz.build_scenario(_config(num_sensors=K, num_antennas=N))
        rng = substream(MASTER_SEED, 16)

        air, aoa = _per_draw(partial(snr_pairs, scenario=sc), 2, N, K, in_order(rng), 10000)
        empirical = np.mean(iz.best_access(air, aoa)[1])
        predicted = theory.crossing_probability(K, omega)
        assert abs(empirical - predicted) < 0.05  # observed 0.0185


def test_09_entropy_quadrature_oracle():
    # two classes on a line: the expected posterior entropy has an exact
    # one-dimensional integral to check the Monte Carlo estimator against
    with criterion(9, "entropy quadrature oracle", budget_s=5):
        sc = iz.build_scenario(
            _config(feature_dim=1, num_classes=2, num_sensors=1, num_antennas=2),
            centroids=np.array([[1.0], [-1.0]]),
        )
        var = sc.config.sensing_covariance_scale / sc.num_sensors
        sigma = np.sqrt(var)

        def integrand(f):
            # closed-form two-class posterior: logistic in the logit 2 f / var
            post = special.expit([2.0 * f / var, -2.0 * f / var])
            return stats.norm.pdf(f, 1.0, sigma) * special.entr(post).sum()

        oracle, quad_err = integrate.quad(integrand, -8.0, 8.0, limit=400)
        assert quad_err < 1e-7  # far below the Monte Carlo noise floor
        batch = iz.run_trials(sc, "noiseless", 100000, stream_id=3, point_index=0)
        z = abs(batch.mean_entropy - oracle) / batch.entropy_stderr
        assert z < 3.0  # observed 1.8


def test_10_exponential_integral():
    with criterion(10, "exponential integral", budget_s=1):
        oracle, err = integrate.quad(
            lambda t: np.exp(-t) / t, 1.0, np.inf, limit=400, epsabs=1e-13
        )
        assert err < 1e-9
        # E1(x) = e^-x (e^x E1(x)), where e^-x is a normal float
        e1_at_one = iz.exp_integral_e1_scaled(1.0) * np.exp(-1.0)
        assert abs(e1_at_one - oracle) < 1e-9
        assert e1_at_one == pytest.approx(0.2193839344, abs=1e-9)
        for x in np.logspace(-3, 2, 50):
            val = iz.exp_integral_e1_scaled(float(x)) * np.exp(-x)
            assert 0.0 < val <= np.exp(-x) * np.log1p(1.0 / x)


def test_11_worker_determinism(tmp_path):
    with criterion(11, "worker-count determinism", budget_s=30):
        contents = []
        for workers in (1, 3):
            out = tmp_path / f"workers{workers}.csv"
            cfg = _config(num_sensors=10)
            cfg = dataclasses.replace(cfg, mc_trials=600)
            spec = ExperimentSpec("sweep-k", cfg, output_path=out, sweep_values=(1, 2, 3))
            run_experiment(spec, workers=workers)
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]
