"""Experiments, CSV schema, and the CLI.

Monte Carlo rows quoted in comments come from the frozen default seed, so
they are exact across runs and platforms.
"""

import dataclasses
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import isea_sim as iz
from isea_sim import _blas, channel, inference
from isea_sim.errors import ConfigError, NumericalError
from isea_sim.harness import cli, experiments
from isea_sim.harness.experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentSpec,
    SweepReport,
    SweepRow,
    _alignment_ks,
    _zf_norm_ks,
    run_experiment,
)
from isea_sim.streams import substream

CONFIG_TEXT = """\
# desk-scale scenario
feature_dim = 10
num_classes = 10
num_sensors = 10
num_antennas = 12
observation_rank = 1
sensing_covariance_scale = 0.1
centroid_scale = 1.0
transmit_snr_db = 10.0
master_seed = 20240
mc_trials = 200
"""


def _cfg(**overrides):
    return iz.ScenarioConfig(**{"mc_trials": 500, **overrides})


def in_order(rng):
    """A ``streams(a, b)`` factory that hands out ``rng`` for every draw:
    the in-process stacks of one worker draw from it in sequence."""
    return lambda a, b: repeat(rng, b - a)


@pytest.fixture(scope="module")
def sweep_k_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweepk") / "sweep-k.csv"
    spec = ExperimentSpec("sweep-k", iz.ScenarioConfig(mc_trials=2000), output_path=out)
    return run_experiment(spec), out


# ---------------------------------------------------------------------------
# spec construction


def test_spec_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentSpec(scenario=_cfg(), experiment="sweep-z", sweep_values=(1, 2))


def test_spec_rejects_bad_sweeps_and_pipelines():
    with pytest.raises(ConfigError, match="nonempty"):
        ExperimentSpec(scenario=_cfg(), experiment="sweep-k", sweep_values=())
    with pytest.raises(ConfigError, match="increasing"):
        ExperimentSpec(scenario=_cfg(), experiment="sweep-k", sweep_values=(3, 3))
    with pytest.raises(ConfigError, match="pipelines"):
        ExperimentSpec(
            scenario=_cfg(),
            experiment="sweep-k",
            sweep_values=(1, 2),
            pipelines=("psychic",),
        )


def test_spec_fills_in_default_grids_and_pipelines():
    cfg = _cfg(num_sensors=7, num_antennas=9)
    assert ExperimentSpec("snr-dist", cfg).sweep_values == (7,)
    assert ExperimentSpec("bnorm-dist", cfg).sweep_values == (9,)
    assert ExperimentSpec("sweep-k", cfg).sweep_values == tuple(range(1, 13))
    assert ExperimentSpec("sweep-n", cfg).pipelines == ("aircomp", "orthogonal", "adaptive")
    # a fixed-pipeline experiment accepts its own set spelled out
    crossing = ("aircomp", "orthogonal", "adaptive")
    assert ExperimentSpec("crossing", cfg, pipelines=crossing).pipelines == crossing
    assert ExperimentSpec("bounds", cfg).output_path is None
    with pytest.raises(ConfigError):
        ExperimentSpec("nope", cfg)
    assert set(EXPERIMENTS) == {
        "sweep-k",
        "sweep-n",
        "bounds",
        "snr-dist",
        "bnorm-dist",
        "crossing",
        "aloss",
    }


# ---------------------------------------------------------------------------
# CSV schema


def test_csv_header_and_formatting():
    rows = (
        SweepRow(
            sweep_value=2,
            pipeline="aircomp",
            mean_uncertainty=0.123456789123,
            uncertainty_stderr=1e-12,
            accuracy=12345678912.0,
            accuracy_stderr=float("nan"),
            mean_effective_snr=float("inf"),
        ),
        SweepRow(sweep_value=8, pipeline="orthogonal", feasible="INFEASIBLE"),
    )
    text = SweepReport(experiment="sweep-k", rows=rows).to_csv_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 11
    # nine significant digits, None and non-finite cells left empty
    assert lines[1] == "2,aircomp,0.123456789,1e-12,1.23456789e+10,,,,,,ok"
    assert lines[2] == "8,orthogonal,,,,,,,,,INFEASIBLE"
    assert text.endswith("\n")


def test_csv_writes_one_row_per_value_and_pipeline(tmp_path, sweep_k_report):
    report, out = sweep_k_report
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 1 + 12 * 2
    seen = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert len(set(seen)) == len(seen)
    pipelines = {p for _, p in seen}
    assert pipelines == {"noiseless", "aircomp"}


def test_sweep_k_uncertainty_profile(sweep_k_report):
    report, _ = sweep_k_report
    air = [r for r in report.rows if r.pipeline == "aircomp"]
    noiseless = [r for r in report.rows if r.pipeline == "noiseless"]
    assert air[0].mean_uncertainty == pytest.approx(1.328106, abs=1e-5)
    assert air[-1].mean_uncertainty == pytest.approx(0.313170, abs=1e-5)
    # fusing more sensors sharpens the posterior
    hs = [r.mean_uncertainty for r in noiseless]
    assert all(a >= b for a, b in zip(hs, hs[1:]))
    # channel noise can only blur it; the runs share per-trial streams
    for noisy, clean in zip(air, noiseless):
        assert noisy.mean_uncertainty >= clean.mean_uncertainty - 1e-12
    for row in air:
        assert row.surrogate_lower <= row.mean_uncertainty * 1.001
        assert row.mean_effective_snr > 0
        assert row.asymptotic_prediction > 0


def test_worker_count_does_not_change_csv_bytes(tmp_path):
    texts = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}.csv"
        spec = ExperimentSpec(
            "sweep-k", _cfg(mc_trials=600), output_path=out, sweep_values=(2, 3)
        )
        run_experiment(spec, workers=workers)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "experiment, sweep",
    [("snr-dist", (10, 12)), ("bnorm-dist", (10, 16)), ("crossing", (1.0, 1.5)), ("aloss", (1, 10))],
)
def test_channel_only_csv_bytes_do_not_depend_on_workers(monkeypatch, experiment, sweep):
    # 300 draws at N K = 100 to 196 are two to four stacks of 83 to 163, so
    # at two workers on two usable CPUs every point forks a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = iz.parse_config_text(CONFIG_TEXT.replace("mc_trials = 200", "mc_trials = 300"))
    spec = ExperimentSpec(experiment, cfg, output_path=None, sweep_values=sweep)
    one, two = (run_experiment(spec, workers=w).to_csv_text() for w in (1, 2))
    assert one == two


@pytest.mark.parametrize("workers", [0, -3])
def test_per_draw_rejects_a_worker_count_below_one(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        experiments._per_draw(
            experiments._weakest_alignment, 1, 4, 3, in_order(substream(1, 0)), 10, workers
        )


# ---------------------------------------------------------------------------
# distribution checks


def test_snr_distribution_check_rejects_small_sensor_count():
    # K = 5 is far from the large-system limit; the check must say so
    # rather than quietly passing.
    ks, _ = _alignment_ks(5, 5, in_order(substream(20240, 25)), 1000)
    assert ks == pytest.approx(0.1478, abs=2e-4)
    assert not ks < 0.03
    with pytest.raises(ValueError):
        _alignment_ks(5, 5, in_order(substream(20240, 25)), 5)


def test_zf_norm_check_runs_and_reports(tmp_path):
    scen = iz.build_scenario(_cfg(num_sensors=10, num_antennas=16))
    ks, first, snrs = _zf_norm_ks(scen, in_order(substream(20240, 26)), 1000)
    assert 0.0 < ks < 0.1
    assert first.shape == snrs.shape == (1000,)
    assert first.mean() == pytest.approx(1.0 / 6.0, rel=0.15)
    # each draw keeps its first norm and gamma_aoa, the SNR of all K norms
    H = iz.sample_channel(substream(20240, 26).standard_normal((2, 16, 10)))
    norms = iz.zf_norms_sq(H)
    assert (first[0], snrs[0]) == (norms[0], iz.orth_snrs(norms, scen))


def test_snr_dist_experiment_emits_single_default_row(tmp_path):
    out = tmp_path / "snr.csv"
    spec = ExperimentSpec("snr-dist", _cfg(num_sensors=8, num_antennas=8), output_path=out)
    report = run_experiment(spec)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.sweep_value == 8 and row.pipeline == "aircomp"
    assert row.mean_uncertainty is None
    assert row.mean_effective_snr > 0
    assert row.asymptotic_prediction > 0
    assert any("KS=" in note for note in report.notes)


def test_snr_dist_reports_the_simulated_ratio(tmp_path):
    # At K = 7 the config's omega = 12/10 gives N = round(8.4) = 8, so the
    # row and note must use 8/7, the ratio that was simulated, not 1.2.
    spec = ExperimentSpec("snr-dist", _cfg(), output_path=tmp_path / "snr.csv", sweep_values=(7,))
    report = run_experiment(spec)
    scen = iz.build_scenario(_cfg(num_sensors=7, num_antennas=8))
    scale = 2.0 * 7 / (scen.sigma_sq * scen.nu_sq)
    expected = scale * (1.0 + np.sqrt(8 / 7)) ** 2
    assert report.rows[0].asymptotic_prediction == pytest.approx(expected, rel=1e-12)
    assert "omega=1.14286" in report.notes[0]


def test_bnorm_dist_marks_infeasible_points(tmp_path):
    out = tmp_path / "bn.csv"
    spec = ExperimentSpec("bnorm-dist", _cfg(), output_path=out, sweep_values=(8, 16))
    report = run_experiment(spec)
    infeasible, feasible = report.rows
    assert infeasible.feasible == "INFEASIBLE"
    assert infeasible.mean_effective_snr is None
    sc = iz.build_scenario(_cfg(num_antennas=16))
    predicted = (1.0 / sc.sigma_sq) * 10 * (16 - 10) / sc.nu_sq
    assert feasible.asymptotic_prediction == pytest.approx(predicted, rel=1e-12)
    assert feasible.mean_effective_snr == pytest.approx(predicted, rel=0.15)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "8,orthogonal,,,,,,,,,INFEASIBLE"


def test_crossing_experiment_rows(tmp_path):
    out = tmp_path / "cross.csv"
    spec = ExperimentSpec("crossing", _cfg(), output_path=out, sweep_values=(0.25, 1.0, 4.0))
    report = run_experiment(spec)
    assert len(report.rows) == 9
    by_omega = {}
    for row in report.rows:
        by_omega.setdefault(row.sweep_value, {})[row.pipeline] = row
    # omega = 0.25 simulates round(2.5) = 2 antennas, so the row reports 2/10;
    # too few antennas for orthogonal access: over-the-air wins by default
    assert set(by_omega) == {0.2, 1.0, 4.0}
    assert by_omega[0.2]["aircomp"].accuracy == 1.0
    assert by_omega[0.2]["orthogonal"].feasible == "INFEASIBLE"
    # near-square arrays keep over-the-air ahead most of the time
    assert by_omega[1.0]["aircomp"].accuracy > 0.85
    assert by_omega[1.0]["aircomp"].asymptotic_prediction == 1.0
    # wide arrays flip the ordering; the decay law tracks the rate
    wide = by_omega[4.0]["aircomp"]
    assert wide.accuracy < 0.25
    assert wide.asymptotic_prediction == pytest.approx(np.exp(-10 / 6), rel=1e-12)
    assert abs(wide.accuracy - wide.asymptotic_prediction) < 0.1
    # picking the better branch per draw beats either branch's average
    for omega in (1.0, 4.0):
        rows = by_omega[omega]
        assert rows["adaptive"].mean_effective_snr >= max(
            rows["aircomp"].mean_effective_snr, rows["orthogonal"].mean_effective_snr
        )


def test_aloss_experiment_orders_bounds(tmp_path):
    out = tmp_path / "aloss.csv"
    spec = ExperimentSpec("aloss", _cfg(), output_path=out, sweep_values=(0.5, 5.0, 50.0))
    report = run_experiment(spec)
    measured = [r.accuracy for r in report.rows]
    assert all(0.0 < m <= 1.0 for m in measured)
    assert measured == sorted(measured)  # milder noise, milder loss
    for row in report.rows:
        assert row.surrogate_lower <= row.surrogate_upper
        # the averaged-loss formula is a large-system value approached from
        # below, so at this size it sits above the measured mean
        assert row.accuracy <= row.surrogate_upper
        assert row.asymptotic_prediction == row.surrogate_upper
    assert report.rows[0].accuracy == pytest.approx(0.5365, abs=2e-4)


def test_experiments_raise_on_nonpositive_aloss_snr(tmp_path):
    with pytest.raises(ConfigError, match="linear SNRs and must be positive"):
        ExperimentSpec("aloss", _cfg(), sweep_values=(-1.0, 1.0))


@pytest.mark.parametrize(
    "experiment, sweep, overrides, message",
    [
        ("crossing", (0.2, 0.25), {}, "crossing sweep values 0.2 and 0.25 both simulate K=10, N=2"),
        ("crossing", (0, 1), {}, "omega=0 at K=10 gives round(omega K) = 0 antennas"),
        ("snr-dist", (2,), {"num_antennas": 2}, "omega=0.2 at K=2 gives round(omega K) = 0"),
        ("aloss", (-1, 1), {}, "aloss sweep values are linear SNRs and must be positive"),
        ("snr-dist", None, {"mc_trials": 50}, "needs at least 100 draws, got 50"),
        ("bnorm-dist", None, {"mc_trials": 50}, "needs at least 100 draws, got 50"),
        # both give transmit_snr_db = 3000.0 exactly
        ("aloss", (1e300, 1.0000000000000002e300), {}, "and 1.0000000000000002e+300 both simulate"),
    ],
)
def test_spec_rejects_sweeps_the_experiment_cannot_run(experiment, sweep, overrides, message):
    # rejected when the spec is built, before any channel or trial is drawn
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentSpec(experiment, _cfg(**overrides), sweep_values=sweep)


@pytest.mark.parametrize(
    "experiment, value", [("crossing", np.inf), ("crossing", np.nan), ("aloss", np.inf)]
)
def test_spec_rejects_a_sweep_value_that_is_not_finite(experiment, value):
    with pytest.raises(ConfigError, match=f"sweep value {value:g} is not finite"):
        ExperimentSpec(experiment, _cfg(), sweep_values=(value,))


@pytest.mark.parametrize(
    "experiment, sweep, message",
    [
        ("sweep-k", (0, 1), "num_sensors must be at least 1"),
        ("sweep-n", (0, 2), "num_antennas must be at least 1"),
    ],
)
def test_spec_rejects_a_point_that_is_not_a_valid_scenario(experiment, sweep, message):
    # each point's config is built with the spec, not when its point runs
    with pytest.raises(ConfigError, match=message):
        ExperimentSpec(experiment=experiment, scenario=_cfg(), sweep_values=sweep)


def _largest_counts(cfg):
    """The largest K at the config's N for sweep-k, and N at its K for
    bnorm-dist, whose scenario arrays (K M^2 + K L M floats) fit in 2 GiB
    with what the point holds.  sweep-k holds a complex N x K channel, six
    8-byte words per trial (four of results, two of their standard errors'
    temporaries) and, at so large a K, one-row stacks, an aircomp one the
    largest: its K M + 2 N K + M normals, three temporaries as large and
    2 L M classifier floats.  bnorm-dist holds, at so large an N, a stack of
    one draw (3 N K + 3 K^2 complex words) and 4 words of results per
    draw."""
    M, L, N, K = cfg.feature_dim, cfg.num_classes, cfg.num_antennas, cfg.num_sensors
    limit = 2 * 2**30
    fixed = 48 * cfg.mc_trials + 8 * (4 * M + 2 * L * M)
    largest_k = (limit - fixed) // (8 * (M * M + L * M) + 16 * N + 32 * (M + 2 * N))
    fixed = 8 * K * (M * M + L * M) + 48 * K * K + 32 * cfg.mc_trials
    return largest_k, (limit - fixed) // (48 * K)


def test_spec_rejects_a_point_above_the_memory_limit():
    # checked on the computed size; nothing of that size is allocated
    cfg = _cfg()
    largest_k, largest_n = _largest_counts(cfg)
    assert ExperimentSpec("sweep-k", cfg, sweep_values=(1, largest_k)).sweep_values[-1] == largest_k
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("sweep-k", cfg, sweep_values=(1, largest_k + 1))
    spec = ExperimentSpec("bnorm-dist", cfg, sweep_values=(largest_n,))
    assert spec.sweep_values[-1] == largest_n
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("bnorm-dist", cfg, sweep_values=(largest_n + 1,))
    # one stack's (rows, L, M) classifier temporaries: 32 noiseless or 16
    # aircomp rows (M = 1,000, K = 1) of 2 x 10^7 floats, 4.8 or 2.4 GiB
    wide = _cfg(feature_dim=1000, num_classes=10000, num_sensors=1, num_antennas=2)
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("sweep-k", wide, sweep_values=(1,), pipelines=("noiseless",))
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("sweep-n", wide, sweep_values=(2,), pipelines=("aircomp",))
    # six 8-byte words per trial, 4.4 TiB here
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("sweep-k", _cfg(mc_trials=10**11), sweep_values=(1,))
    # a desk-scale point passes; a channel-only experiment keeps a few words
    # of results per draw, 4 with their copies, so 10^11 draws need 2.9 TiB
    ExperimentSpec("sweep-k", _cfg(feature_dim=100, num_classes=100), sweep_values=(1,))
    ExperimentSpec("crossing", _cfg(mc_trials=10**6))
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        ExperimentSpec("crossing", _cfg(mc_trials=10**11))
    # a noiseless trial at K = 20,000 draws 1.6 MB of normals, so its stacks
    # hold one row and the point needs about 40 MiB, not a 512-row stack's
    # 0.8 GB of normals and as much again in each view-sized temporary
    ExperimentSpec("sweep-k", cfg, sweep_values=(20000,), pipelines=("noiseless",))
    assert experiments._point_bytes(_cfg(num_sensors=20000), ("noiseless",)) < 48 * 2**20
    # adaptive beside aircomp or orthogonal keeps its draws for them, 2 M + 2
    # floats per trial; all three channel pipelines draw rows of one width
    alone = experiments._point_bytes(cfg, ("adaptive",))
    assert experiments._point_bytes(cfg, ("aircomp",)) == alone
    kept = 8 * (2 * cfg.feature_dim + 2) * cfg.mc_trials
    for partners in (("aircomp",), ("orthogonal",), ("aircomp", "orthogonal")):
        for pipelines in (partners + ("adaptive",), ("adaptive",) + partners):
            assert experiments._point_bytes(cfg, pipelines) == alone + kept


def _assert_point_bytes_bound_the_traced_peak(pipelines, feature_dim):
    # traced peak of one sweep-n point at K = N = 1: it stays below the
    # pre-check's count, and grows per trial by no more than it.  Rows of a
    # few floats keep the stacks small and the runs short; caches of small
    # blocks add a few kB that do not grow with the trials, so the growth
    # per trial gets a byte of slack.
    def traced(trials):
        cfg = _cfg(
            feature_dim=feature_dim, num_classes=2, num_sensors=1, num_antennas=1, mc_trials=trials
        )
        spec = ExperimentSpec("sweep-n", cfg, sweep_values=(1,), pipelines=pipelines)
        tracemalloc.start()
        try:
            run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, experiments._point_bytes(cfg, pipelines)

    traced(600)  # imports and numpy's caches, before the measured runs
    (low, low_bound), (high, high_bound) = traced(4000), traced(20000)
    assert low <= low_bound and high <= high_bound
    assert (high - low) / 16000 <= (high_bound - low_bound) / 16000 + 1.0


@pytest.mark.parametrize(
    "pipelines", [("noiseless",), ("noiseless", "aircomp"), ("aircomp", "orthogonal", "adaptive")]
)
def test_point_bytes_bound_the_traced_peak_of_a_point(pipelines):
    # a point holds one pipeline's results at a time, with their standard
    # errors' temporaries and the draws adaptive keeps (M = 1)
    _assert_point_bytes_bound_the_traced_peak(pipelines, 1)


def test_point_bytes_bound_the_traced_peak_of_a_shared_point():
    # adaptive's kept draws grow with M, 2 M + 2 floats per trial, which
    # M = 1 cannot tell from a constant: at M = 6 an under-count by M floats
    # per trial exceeds the byte of slack
    _assert_point_bytes_bound_the_traced_peak(("aircomp", "orthogonal", "adaptive"), 6)


@pytest.mark.parametrize("experiment", ["snr-dist", "bnorm-dist", "crossing", "aloss"])
def test_point_bytes_bound_the_traced_peak_of_a_channel_only_point(experiment):
    # a channel-only point holds a stack of draws, each with its normals, H,
    # H^H and up to three Gram-sized arrays, and its statistics' results.
    # At K = 100, N = 101 one draw fills a stack and its Grams are as large
    # as H; at K = 20, N = 25 and M = 30, bnorm-dist's 20 norms and aloss's
    # 30-wide loss temporaries per draw grow with the draws.
    def traced(K, N, M, draws):
        cfg = _cfg(num_sensors=K, num_antennas=N, feature_dim=M, num_classes=2, mc_trials=draws)
        value = {"snr-dist": K, "bnorm-dist": N, "crossing": N / K, "aloss": 10.0}[experiment]
        point = experiments._EXPERIMENTS[experiment].config_at(cfg, value)
        assert (point.num_sensors, point.num_antennas) == (K, N)
        tracemalloc.start()
        try:
            run_experiment(ExperimentSpec(experiment, cfg, sweep_values=(value,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, experiments._point_bytes(point)

    traced(20, 25, 30, 200)  # imports and numpy's caches, before the measured runs
    peak, bound = traced(100, 101, 10, 100)
    assert peak <= bound
    (low, low_bound), (high, high_bound) = traced(20, 25, 30, 1000), traced(20, 25, 30, 4000)
    assert low <= low_bound and high <= high_bound
    assert (high - low) / 3000 <= (high_bound - low_bound) / 3000 + 1.0


def _no_point_may_run(monkeypatch):
    """Make every sweep point fail the test: each one builds a scenario first."""

    def build_scenario(config):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(experiments, "build_scenario", build_scenario)


def test_paper_scale_checks_the_doubled_grid_before_the_first_point(monkeypatch):
    # N = 2 largest_n would need more than 2 GiB per channel draw
    _no_point_may_run(monkeypatch)
    cfg = _cfg()
    _, largest_n = _largest_counts(cfg)
    spec = ExperimentSpec("bnorm-dist", cfg, output_path=None, sweep_values=(largest_n,))
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        run_experiment(spec, paper_scale=True)
    # ten times 10^7 trials would need 4.8 GB of results and temporaries
    spec = ExperimentSpec("sweep-k", _cfg(mc_trials=10**7), sweep_values=(1,))
    with pytest.raises(ConfigError, match="above the 2 GiB limit"):
        run_experiment(spec, paper_scale=True)


def test_sweep_values_reach_the_points_as_floats(tmp_path):
    # np.log10 of a 301-digit Python int raises TypeError
    out = tmp_path / "aloss.csv"
    spec = ExperimentSpec("aloss", _cfg(mc_trials=50), output_path=out, sweep_values=(1, 10**300))
    assert spec.sweep_values == (1.0, 1e300)
    assert run_experiment(spec).rows[-1].accuracy == 1.0
    with pytest.raises(ConfigError, match="too large"):
        ExperimentSpec("aloss", _cfg(), sweep_values=(10**400,))


# ---------------------------------------------------------------------------
# command line


def _write_config(tmp_path, text=CONFIG_TEXT):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_runs_an_experiment(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "result.csv"
    code = cli.main(
        ["aloss", "--config", str(config), "--out", str(out), "--sweep", "1,10"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"aloss: 2 rows -> {out}" in stdout
    assert "mean loss" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_cli_seed_and_trials_overrides_change_output(tmp_path):
    config = _write_config(tmp_path)
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}.csv"
        code = cli.main(
            [
                "aloss",
                "--config",
                str(config),
                "--out",
                str(out),
                "--sweep",
                "1",
                "--seed",
                str(seed),
                "--trials",
                "150",
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


def test_cli_rejects_unknown_experiment(tmp_path, capsys):
    config = _write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["teleport", "--config", str(config)])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_reports_missing_config(tmp_path, capsys):
    code = cli.main(["aloss", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_reports_unknown_config_key(tmp_path, capsys):
    config = _write_config(tmp_path, CONFIG_TEXT + "warp_factor = 9\n")
    code = cli.main(["aloss", "--config", str(config)])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_cli_runs_an_aloss_sweep_up_to_1e300(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "aloss.csv"
    assert cli.main(["aloss", "--config", str(config), "--out", str(out), "--sweep", "1,1e300"]) == 0
    row = dict(zip(CSV_COLUMNS, out.read_text(encoding="utf-8").splitlines()[2].split(",")))
    assert row["sweep_value"] == "1e+300"
    assert row["accuracy"] == "1"


def test_cli_runs_an_aloss_point_at_1e_minus_50(tmp_path):
    # r ~ 1e-50 puts the averaged-loss series at x = 1/r ~ 1e50
    config = _write_config(tmp_path)
    out = tmp_path / "aloss.csv"
    assert cli.main(["aloss", "--config", str(config), "--out", str(out), "--sweep", "1e-50"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert dict(zip(CSV_COLUMNS, lines[1].split(",")))["sweep_value"] == "1e-50"


def test_cli_runs_a_sweep_whose_discriminant_gain_saturates(tmp_path):
    # centroids at 5e153 push D_bar past the largest float; the noiseless
    # loss factor D_bar(inf) / D_bar(inf) is still 1, so every cell is finite
    text = "feature_dim = 4\nnum_classes = 3\ncentroid_scale = 5e153\nmc_trials = 200\n"
    config = _write_config(tmp_path, text)
    out = tmp_path / "sweep-k.csv"
    assert cli.main(["sweep-k", "--config", str(config), "--out", str(out), "--sweep", "1,2"]) == 0
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
    assert [(r["sweep_value"], r["pipeline"]) for r in rows] == [
        (k, p) for k in ("1", "2") for p in ("noiseless", "aircomp")
    ]
    for row in rows:
        assert np.isfinite(float(row["asymptotic_prediction"]))


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(CONFIG_TEXT.encode("utf-8") + b"# caf\xff\n")
    out = tmp_path / "never.csv"
    code = cli.main(["aloss", "--config", str(config), "--out", str(out), "--sweep", "1"])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_an_unwritable_out_path(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "missing" / "x.csv"
    code = cli.main(["aloss", "--config", str(config), "--out", str(out), "--sweep", "1"])
    assert code == 2
    assert f"cannot write CSV to {out}" in capsys.readouterr().err


def test_unwritable_out_path_is_found_before_the_first_point(tmp_path, monkeypatch):
    _no_point_may_run(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    spec = ExperimentSpec("aloss", _cfg(), output_path=out, sweep_values=(1.0,))
    with pytest.raises(ConfigError, match="cannot write CSV to"):
        run_experiment(spec)
    assert not out.parent.exists()


def test_out_path_probe_leaves_the_path_as_it_found_it(tmp_path, monkeypatch):
    # the probe passes, then the first point fails
    _no_point_may_run(monkeypatch)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n", encoding="utf-8")
    for out in (new, old):
        spec = ExperimentSpec("aloss", _cfg(), output_path=out, sweep_values=(1.0,))
        with pytest.raises(AssertionError, match="a sweep point ran"):
            run_experiment(spec)
    assert not new.exists()
    assert old.read_text(encoding="utf-8") == "kept\n"


def test_output_path_none_writes_no_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = ExperimentSpec("aloss", _cfg(mc_trials=20), output_path=None, sweep_values=(1.0,))
    assert spec.output_path is None
    report = run_experiment(spec)
    assert len(report.rows) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_empty_sweep(tmp_path, capsys):
    config = _write_config(tmp_path)
    code = cli.main(["aloss", "--config", str(config), "--sweep", " , "])
    assert code == 2


@pytest.mark.parametrize(
    "args, config_extra, message",
    [
        (["aloss", "--sweep", "1,abc"], "", "'abc' is not a number"),
        (["aloss", "--sweep", "1,nan"], "", "not finite"),
        (["sweep-k", "--sweep", "1.5"], "", "must be integers"),
        (["bounds", "--sweep", "1.5"], "", "must be integers"),
        (["sweep-n", "--sweep", "2,12.5"], "", "must be integers"),
        (["aloss", "--sweep", "1", "--workers", "-3"], "", "workers must be at least 1"),
        (["aloss", "--sweep", "1"], "num_sensors = 8\n", "duplicate configuration key"),
        # a tuple swaps a line of CONFIG_TEXT instead of appending one
        (["sweep-k", "--sweep", "1"], ("transmit_snr_db = 10.0", "transmit_snr_db = -4000"),
         "noise power 10**(-dB/10) that is not finite"),
        (["aloss", "--sweep", "1e-320,1"], "", "noise power 10**(-dB/10) that is not finite"),
        (["sweep-k", "--sweep", "1"],
         ("sensing_covariance_scale = 0.1", "sensing_covariance_scale = 1e-320"),
         "covariance inverse fails the identity check"),
        (["sweep-k", "--sweep", "2,1e12"], "", "above the 2 GiB limit"),
        (["sweep-n", "--sweep", "1e12"], "", "above the 2 GiB limit"),
        # counts beyond any float: in the config, and through --trials for a
        # trial experiment and a channel-only one
        (["sweep-n", "--sweep", "12"], ("mc_trials = 200", "mc_trials = " + "9" * 400),
         "a count is too large to size its arrays"),
        (["sweep-n", "--sweep", "12", "--trials", "9" * 400], "",
         "a count is too large to size its arrays"),
        (["crossing", "--trials", "9" * 400], "", "a count is too large to size its arrays"),
        # empty values are given, not absent: no default grid or pipelines
        (["aloss", "--sweep", ""], "", "--sweep produced an empty grid"),
        (["sweep-k", "--sweep", "1", "--pipelines", ""], "", "pipelines must be a nonempty subset"),
        (["aloss", "--sweep", "2,,3"], "", "--sweep '2,,3' has an empty value"),
    ],
)
def test_cli_input_errors_exit_two(tmp_path, capsys, args, config_extra, message):
    if isinstance(config_extra, tuple):
        text = CONFIG_TEXT.replace(*config_extra)
    else:
        text = CONFIG_TEXT + config_extra
    config = _write_config(tmp_path, text)
    out = tmp_path / "never.csv"
    code = cli.main([args[0], "--config", str(config), "--out", str(out), *args[1:]])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, pipelines, message",
    [
        ("crossing", "noiseless", "crossing always runs pipelines aircomp,orthogonal,adaptive"),
        ("crossing", "aircomp,orthogonal", "crossing always runs"),
        ("snr-dist", "orthogonal", "snr-dist always runs pipelines aircomp"),
        ("bnorm-dist", "aircomp,orthogonal", "bnorm-dist always runs pipelines orthogonal"),
        ("aloss", "aircomp,adaptive", "aloss always runs pipelines aircomp"),
        ("sweep-k", "aircomp,aircomp", "must not repeat"),
        ("crossing", "aircomp,orthogonal,adaptive,aircomp", "must not repeat"),
    ],
)
def test_cli_rejects_ignored_or_repeated_pipelines(tmp_path, capsys, experiment, pipelines, message):
    config = _write_config(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main(
        [experiment, "--config", str(config), "--out", str(out), "--pipelines", pipelines]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, sweep, grid",
    [("snr-dist", (5, 10), (5, 10, 20)), ("bnorm-dist", (12, 24), (12, 24, 48))],
)
def test_paper_scale_grid_has_no_repeated_points(tmp_path, experiment, sweep, grid):
    cfg = _cfg(mc_trials=100)
    spec = ExperimentSpec(experiment, cfg, output_path=tmp_path / "p.csv", sweep_values=sweep)
    report = run_experiment(spec, paper_scale=True)
    assert tuple(row.sweep_value for row in report.rows) == grid


@pytest.mark.parametrize("experiment", ["snr-dist", "bnorm-dist"])
def test_cli_distribution_check_needs_100_draws(tmp_path, capsys, experiment):
    config = _write_config(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main([experiment, "--config", str(config), "--out", str(out), "--trials", "50"])
    assert code == 2
    assert "at least 100 draws" in capsys.readouterr().err
    assert not out.exists()


def test_cli_crossing_rejects_a_point_without_antennas(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main(["crossing", "--config", str(config), "--out", str(out), "--sweep", "0,1"])
    assert code == 2
    assert "round(omega K) = 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_crossing_rejects_two_points_with_one_antenna_count(tmp_path, capsys):
    # at K = 10, omega = 0.2 and 0.25 both round to N = 2
    config = _write_config(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main(
        ["crossing", "--config", str(config), "--out", str(out), "--sweep", "0.2,0.25"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "crossing sweep values 0.2 and 0.25 both simulate K=10, N=2," in err
    assert not out.exists()


def test_cli_snr_dist_rejects_a_point_without_antennas(tmp_path, capsys):
    # omega = N/K = 2/10, so K = 2 would need round(0.4) = 0 antennas
    config = _write_config(
        tmp_path, CONFIG_TEXT.replace("num_antennas = 12", "num_antennas = 2")
    )
    out = tmp_path / "never.csv"
    code = cli.main(["snr-dist", "--config", str(config), "--out", str(out), "--sweep", "2"])
    assert code == 2
    assert "round(omega K) = 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, variance",
    [
        # the centroid spread overflows to inf at M = 4, L = 3, so every
        # AirComp SNR would come out 0; at M = L = 10 it is NaN
        ("feature_dim = 4\nnum_classes = 3\nnum_sensors = 4\nnum_antennas = 6\n"
         "centroid_scale = 1e154\nmc_trials = 200\n", "inf"),
        (CONFIG_TEXT.replace("centroid_scale = 1.0", "centroid_scale = 1e154"), "nan"),
    ],
    ids=["inf", "nan"],
)
def test_cli_rejects_a_symbol_variance_that_is_not_finite(tmp_path, capsys, text, variance):
    config = _write_config(tmp_path, text)
    out = tmp_path / "never.csv"
    code = cli.main(["sweep-k", "--config", str(config), "--out", str(out), "--sweep", "1,2"])
    assert code == 2
    assert f"transmit symbol variance {variance} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_a_nan_cell_as_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # one NaN entropy makes the point's mean uncertainty a NaN cell, not an empty one
    real_run_trials = experiments.run_trials

    def one_nan_entropy(*args, **kwargs):
        batch = real_run_trials(*args, **kwargs)
        batch.entropies[0] = np.nan
        return batch

    monkeypatch.setattr(experiments, "run_trials", one_nan_entropy)
    config = _write_config(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main(["sweep-k", "--config", str(config), "--out", str(out), "--sweep", "1,2"])
    assert code == 3
    assert "sweep-k at 1, pipeline noiseless: mean_uncertainty is NaN" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runs_centroids_of_scale_2e153(tmp_path):
    # the K = 1 noiseless logits reach -inf, and the centroid spread is
    # near the largest float; every uncertainty and prediction is finite,
    # and the saturation, which is handled, prints no warning
    config = _write_config(
        tmp_path, CONFIG_TEXT.replace("centroid_scale = 1.0", "centroid_scale = 2e153")
    )
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "isea_sim.harness.cli", "sweep-k", "--config", str(config),
         "--out", str(out), "--sweep", "1,2"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(iz.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 4
    for column in ("mean_uncertainty", "asymptotic_prediction"):
        cells = [row[header.index(column)] for row in rows]
        assert all(np.isfinite(float(cell)) for cell in cells), (column, cells)


def test_an_infinite_result_is_an_empty_cell():
    # a noise power of 10**-400 rounds to 0, so both SNR columns are infinite
    report = run_experiment(ExperimentSpec("snr-dist", _cfg(transmit_snr_db=4000.0)))
    assert report.rows[0].mean_effective_snr == np.inf
    assert report.to_csv_text().splitlines()[1] == "10,aircomp,,,,,,,,,ok"


def test_cli_maps_numerical_failures_to_exit_three(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path)

    def explode(spec, workers=1, paper_scale=False):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "run_experiment", explode)
    code = cli.main(["aloss", "--config", str(config)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def _draw_counts(monkeypatch):
    """A Counter of the trial runs and channel draws that follow, in process."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(experiments, "run_trials")
    count(experiments, "sample_channel")  # channel-only points
    count(inference, "sample_channel")  # trial stacks
    return calls


# inputs that exited 1 with a traceback, leaked a RuntimeWarning, or exited
# 2 or 3 only after trials ran, with the exit code each has now and the
# message an exit 2 or 3 prints
_SATURATING = {
    # every trial's SNR underflows to 0: nothing gets through, the loss is 0
    "sweep-n-zero-snr": ("sweep-n", None, 0, None, dict(
        feature_dim=4, num_classes=2, num_sensors=1, num_antennas=1,
        sensing_covariance_scale=1e300, transmit_snr_db=-300)),
    "sweep-k-zero-snr": ("sweep-k", None, 0, None, dict(
        feature_dim=3, num_classes=2, num_sensors=2, num_antennas=4, observation_rank=3,
        sensing_covariance_scale=1.15e164, centroid_scale=3.2e47, transmit_snr_db=-2244)),
    # the averaged-loss bounds' r underflows to 0, where both bounds are 0
    "aloss-zero-r": ("aloss", None, 0, None, dict(
        feature_dim=3, num_classes=3, num_sensors=3, num_antennas=4, observation_rank=2,
        sensing_covariance_scale=1e-300, centroid_scale=1e153)),
    # nu^2 overflows at K = 300 only: rejected before K = 1 runs
    "sweep-k-nu-overflow": (
        "sweep-k", "1,300", 2, "transmit symbol variance inf is not finite",
        dict(feature_dim=4, num_classes=3, centroid_scale=2e153)),
    # xi saturates to inf and every SNR is 0: xi times a zero loss is NaN
    "sweep-n-xi-overflow": ("sweep-n", None, 3, "asymptotic_prediction is NaN", dict(
        feature_dim=4, num_classes=2, num_sensors=2, num_antennas=4, observation_rank=4,
        sensing_covariance_scale=7e-229, centroid_scale=8.4e85, transmit_snr_db=-2549)),
    # gamma_aoa saturates to inf
    "bnorm-dist-snr-overflow": ("bnorm-dist", None, 0, None, dict(
        feature_dim=2, num_classes=2, num_sensors=2, num_antennas=2, observation_rank=2,
        sensing_covariance_scale=7.1e-61, centroid_scale=3.3e-33, transmit_snr_db=2724)),
    # SNRs whose noise power 1/snr overflows deliver nothing
    "sweep-k-noise-overflow": ("sweep-k", None, 0, None, dict(
        feature_dim=1, num_classes=3, num_sensors=3, num_antennas=3, observation_rank=1,
        sensing_covariance_scale=5e-107, centroid_scale=1.25e64, transmit_snr_db=-1851)),
    # 1/r overflows in the averaged-loss bounds
    "aloss-r-overflow": ("aloss", None, 0, None, dict(
        feature_dim=1, num_classes=3, num_sensors=3, num_antennas=4, observation_rank=1,
        sensing_covariance_scale=2.3e-300, centroid_scale=9.5e11, transmit_snr_db=1697)),
    # gamma_air saturates to inf
    "sweep-k-air-snr-overflow": ("sweep-k", "1,2", 0, None, dict(
        feature_dim=5, num_classes=5, num_sensors=3, num_antennas=2, observation_rank=2,
        sensing_covariance_scale=8.93e-109, centroid_scale=1e-100, transmit_snr_db=1989)),
    # D_bar(inf) underflows to 0: the loss factor is the rescaled ratio
    "sweep-k-separation-underflow": ("sweep-k", "1,2", 0, None, dict(
        feature_dim=3, num_classes=2, num_antennas=4, centroid_scale=1e-200)),
    # 1/c is finite but K/c overflows at K = 2: rejected before K = 1 runs
    "sweep-k-inverse-overflow": ("sweep-k", "1,2", 2, "K/c = 2/1e-308 is not finite", dict(
        feature_dim=3, num_classes=2, num_antennas=4, sensing_covariance_scale=1e-308)),
}


@pytest.mark.parametrize(
    "experiment, sweep, code, message, fields", _SATURATING.values(), ids=list(_SATURATING)
)
def test_saturating_inputs_get_their_documented_exit_code(
    tmp_path, capsys, monkeypatch, experiment, sweep, code, message, fields
):
    # the suite's filter turns any RuntimeWarning into a failure here, and
    # a configuration error comes before any trial or channel draw
    calls = _draw_counts(monkeypatch)
    text = "".join(f"{key} = {value}\n" for key, value in {**fields, "mc_trials": 120}.items())
    out = tmp_path / "out.csv"
    args = [experiment, "--config", str(_write_config(tmp_path, text)), "--out", str(out)]
    assert cli.main(args + (["--sweep", sweep] if sweep else [])) == code
    assert out.exists() == (code == 0)
    if code == 2:
        assert not calls
    if code != 0:
        assert message in capsys.readouterr().err


_POWERS_OF_TEN = st.floats(-320, 308.25).map(lambda e: float(f"{10.0**e:.3g}"))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    counts=st.tuples(st.integers(1, 4), st.integers(2, 3), st.integers(1, 3), st.integers(1, 4)),
    rank=st.integers(1, 4),
    scales=st.tuples(_POWERS_OF_TEN, _POWERS_OF_TEN),
    snr_db=st.integers(-3000, 3000),
    trials=st.integers(100, 120),
)
def test_every_input_in_the_box_gets_a_documented_exit_code(
    tmp_path, experiment, counts, rank, scales, snr_db, trials
):
    # M <= 4, L <= 3, K <= 3, N <= 4, scales from 1e-320 to 1.78e308 and
    # transmit SNRs from -3000 to 3000 dB: exit 0, 2 or 3 with no
    # RuntimeWarning (the suite's filter), and exit 2 before any draw
    M, L, K, N = counts
    fields = dict(
        feature_dim=M, num_classes=L, num_sensors=K, num_antennas=N,
        observation_rank=min(rank, M), sensing_covariance_scale=scales[0],
        centroid_scale=scales[1], transmit_snr_db=snr_db, mc_trials=trials,
    )
    text = "".join(f"{key} = {value}\n" for key, value in fields.items())
    args = [experiment, "--config", str(_write_config(tmp_path, text))]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _draw_counts(monkeypatch)
        code = cli.main(args + ["--out", str(tmp_path / "out.csv")])
    assert code in (0, 2, 3)
    if code == 2:
        assert not calls


def test_cli_help_mentions_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "isea-sim" in out
    assert "--paper-scale" in out


# ---------------------------------------------------------------------------
# determinism across BLAS thread counts


def test_blas_thread_count_does_not_change_csv_bytes(monkeypatch):
    # sweep-n's Grams of at most 8 rows take the stacked eigensolver and its
    # 10-row ones the subset eigensolver; crossing at K = 30 (Grams of 15
    # and 30 rows, between _FULL_EIG_MAX and 64) and at K = 70 (70 rows)
    # takes the subset eigensolver and, at N >= K, the Cholesky route.  The
    # library runs its kernels at one OpenBLAS thread; with that policy made
    # a no-op they run at two.
    controls = _blas._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy ship no OpenBLAS build here")
    sensors = "num_sensors = 10"
    runs = {
        "sweep-n": ("sweep-n", CONFIG_TEXT, (8, 12)),
        "crossing-30": ("crossing", CONFIG_TEXT.replace(sensors, "num_sensors = 30"), (0.5, 1.5)),
        "crossing-70": ("crossing", CONFIG_TEXT.replace(sensors, "num_sensors = 70"), (1, 1.5)),
    }

    def csv_text(run):
        experiment, text, sweep = runs[run]
        cfg = iz.parse_config_text(text.replace("mc_trials = 200", "mc_trials = 100"))
        spec = ExperimentSpec(experiment, cfg, output_path=None, sweep_values=sweep)
        return run_experiment(spec).to_csv_text()

    at_one = {run: csv_text(run) for run in runs}
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        monkeypatch.setattr(_blas, "_openblas_thread_controls", lambda: ())
        at_two = {run: csv_text(run) for run in runs}
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert at_one == at_two


def test_crossing_snrs_are_the_channel_statistics_taken_alone():
    # crossing takes both SNRs of a draw from one Gram (snr_pairs); its
    # rows equal those of the two statistics computed apart on the same draws
    text = CONFIG_TEXT.replace("num_sensors = 10", "num_sensors = 16")
    cfg = iz.parse_config_text(text.replace("mc_trials = 200", "mc_trials = 40"))
    spec = ExperimentSpec("crossing", cfg, output_path=None, sweep_values=(1.5,))
    rows = {row.pipeline: row for row in run_experiment(spec).rows}
    scen = iz.build_scenario(experiments._crossing_config(cfg, 1.5))
    assert (scen.num_antennas, scen.num_sensors) == (24, 16)

    def per_draw(stat):
        streams = experiments._point_streams(spec, 0)
        return experiments._per_draw(lambda H: (stat(H),), 1, 24, 16, streams, 40)[0]

    air = per_draw(lambda H: iz.air_snrs(H, scen)[0])
    aoa = per_draw(lambda H: iz.orth_snrs(iz.zf_norms_sq(H), scen))
    assert rows["aircomp"].mean_effective_snr == air.mean()
    assert rows["orthogonal"].mean_effective_snr == aoa.mean()
    assert rows["adaptive"].mean_effective_snr == np.maximum(air, aoa).mean()
    assert rows["adaptive"].accuracy == (air >= aoa).mean()


# ---------------------------------------------------------------------------
# adaptive's draws handed to the other access cells of its point


def _traced_sweep_n(monkeypatch, pipelines, workers, sweep=(8, 12)):
    """sweep-n rows of ``pipelines`` on CONFIG_TEXT (K = 10, 200 trials),
    and for each run_trials call its pipeline, whether it kept its draws or
    was given them, and its batch."""
    calls = []

    def spy(scen, pipeline, trials, **kwargs):
        batch = iz.run_trials(scen, pipeline, trials, **kwargs)
        role = "keeps" if kwargs["keep_draws"] else None if kwargs["draws"] is None else "given"
        calls.append((pipeline, role, batch))
        return batch

    monkeypatch.setattr(experiments, "run_trials", spy)
    spec = ExperimentSpec(
        "sweep-n", iz.parse_config_text(CONFIG_TEXT), sweep_values=sweep, pipelines=pipelines
    )
    return run_experiment(spec, workers=workers).rows, calls


def _csv_of(rows, pipeline):
    return SweepReport("sweep-n", tuple(r for r in rows if r.pipeline == pipeline)).to_csv_text()


@pytest.mark.parametrize("workers", [1, 2])
def test_adaptive_rows_do_not_depend_on_their_partners(monkeypatch, workers):
    # N = 8 < K shares adaptive's draws with aircomp alone, N = 12 with
    # aircomp and orthogonal.  200 trials are two stacks at N = 8 and three
    # at N = 12, which two workers on two usable CPUs split with a pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    alone, calls = {}, {}
    for pipeline in ("aircomp", "orthogonal", "adaptive"):
        alone[pipeline], calls[pipeline] = _traced_sweep_n(monkeypatch, (pipeline,), workers)
    assert [(pipeline, role) for pipeline, role, _ in calls["adaptive"]] == [("adaptive", None)] * 2
    all_access = ("aircomp", "orthogonal", "adaptive")
    for pipelines in (all_access, ("adaptive", "aircomp", "orthogonal")):
        rows, calls = _traced_sweep_n(monkeypatch, pipelines, workers)
        assert [row.pipeline for row in rows] == list(pipelines) * 2
        for pipeline in all_access:
            assert _csv_of(rows, pipeline) == _csv_of(alone[pipeline], pipeline)
        assert [(pipeline, role) for pipeline, role, _ in calls] == [
            ("adaptive", "keeps"), ("aircomp", "given"),
            ("adaptive", "keeps"), ("aircomp", "given"), ("orthogonal", "given"),
        ]
    # trials on either side of a stack edge replay on their own, adaptive's
    # at the better of the handed-on SNRs
    batches = [batch for _, _, batch in calls]
    cfg = iz.parse_config_text(CONFIG_TEXT)
    for point, (N, adaptive, air, aoa) in enumerate(
        [(8, *batches[:2], None), (12, *batches[2:])]
    ):
        scen = iz.build_scenario(dataclasses.replace(cfg, num_antennas=N))
        for t in (0, 92, 93, 121, 199):
            rec = iz.simulate_trial(scen, "adaptive", substream(20240, 12, point, t))
            gamma_aoa = -np.inf if aoa is None else aoa.snrs[t]
            assert rec.effective_snr == adaptive.snrs[t]
            assert rec.effective_snr == max(air.snrs[t], gamma_aoa)
            air_wins = air.snrs[t] >= gamma_aoa
            assert rec.resolved_mode == ("aircomp" if air_wins else "orthogonal")
            assert (rec.label, rec.predicted) == (adaptive.labels[t], adaptive.predictions[t])
            assert rec.entropy == adaptive.entropies[t]
            for pipeline, batch in (("aircomp", air), ("orthogonal", aoa)):
                if batch is not None:
                    rec = iz.simulate_trial(scen, pipeline, substream(20240, 12, point, t))
                    assert rec.effective_snr == batch.snrs[t]
                    assert (rec.label, rec.predicted) == (batch.labels[t], batch.predictions[t])
                    assert rec.entropy == batch.entropies[t]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_degenerate_draw_reaches_aircomp_from_adaptive(monkeypatch, workers):
    # Sensor 0 silenced on the draws whose H[0, 0] has real part above 1:
    # aircomp gets gamma_air = 0 there, and at N = 8 < K so does adaptive,
    # whether aircomp takes that SNR from adaptive's draws or forms it itself.
    sample_channel = inference.sample_channel

    def silenced(z):
        H = sample_channel(z)
        H[..., :, 0] = np.where(H[..., :1, 0].real > 1.0, 0.0, H[..., :, 0])
        return H

    monkeypatch.setattr(inference, "sample_channel", silenced)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    alone, _ = _traced_sweep_n(monkeypatch, ("aircomp",), workers, sweep=(8,))
    rows, calls = _traced_sweep_n(monkeypatch, ("aircomp", "adaptive"), workers, sweep=(8,))
    assert [(pipeline, role) for pipeline, role, _ in calls] == [
        ("adaptive", "keeps"), ("aircomp", "given")
    ]
    snrs = calls[1][2].snrs
    assert 0 < (snrs == 0).sum() < snrs.size
    np.testing.assert_array_equal(snrs, calls[0][2].snrs)
    assert _csv_of(rows, "aircomp") == _csv_of(alone, "aircomp")


def test_a_shared_point_draws_each_trial_once(monkeypatch):
    # at workers 1 a point that shares adaptive's draws takes one generator
    # per trial, where one run per pipeline took one per trial and pipeline,
    # and only adaptive's cell forms channels
    streams, channels = Counter(), []
    trial_streams, sample_channel = inference.trial_streams, inference.sample_channel

    def counted_streams(seed, stream_id, point, start, stop):
        for rng in trial_streams(seed, stream_id, point, start, stop):
            streams[point] += 1
            yield rng

    def counted_channels(z):
        channels.append(z.shape[0])
        return sample_channel(z)

    monkeypatch.setattr(inference, "trial_streams", counted_streams)
    monkeypatch.setattr(inference, "sample_channel", counted_channels)
    _, calls = _traced_sweep_n(monkeypatch, ("aircomp", "orthogonal", "adaptive"), 1)
    assert streams == {0: 200, 1: 200}
    assert sum(channels) == 400
    assert [(pipeline, role) for pipeline, role, _ in calls][:2] == [
        ("adaptive", "keeps"), ("aircomp", "given")
    ]
    # where no later cell reads them, nothing is kept
    _, calls = _traced_sweep_n(monkeypatch, ("adaptive", "orthogonal"), 1, sweep=(8,))
    assert [(pipeline, role) for pipeline, role, _ in calls] == [("adaptive", None)]
    assert calls[0][2].draws is None


# ---------------------------------------------------------------------------
# names the benchmark traces


def test_benchmark_trace_layers_resolve(monkeypatch):
    # bench/trace_layers.py wraps these functions by name; building its
    # table without installing the tracer fails if any of them is gone.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    trace_layers = importlib.import_module("trace_layers")
    layers = trace_layers._layers()
    assert {name for name, _ in layers.values()} == {
        "scenario.build",
        "streams.substream",
        "feature_model.sample",
        "channel.sample",
        "channel.air_snr",
        "channel.orth_snr",
        "channel.receive",
        "inference.run_trials",
        "harness.run_experiment",
        "theory",
    }
    # the span tags read these result fields
    scen = iz.build_scenario(iz.ScenarioConfig(num_sensors=4, num_antennas=6))
    rng = substream(1, 0)
    H = iz.sample_channel(rng.standard_normal((2, 6, 4)))
    features = iz.sample_local_features(scen, 0, rng.standard_normal((4, scen.feature_dim)))
    tags = {fn.__name__: tag for fn, (_, tag) in layers.items() if tag is not None}
    air = channel.aircomp_effective_snr(H, scen)
    assert tags["aircomp_effective_snr"](None, None, air) is False
    adaptive = channel.adaptive_receive(scen, H, features, rng)
    assert tags["adaptive_receive"](None, None, adaptive) in ("aircomp", "orthogonal")
    batch = iz.run_trials(scen, "noiseless", 3)
    assert tags["run_trials"]((scen, "noiseless", 3), {}, batch) == ("noiseless", 3)


def test_theory_binds_no_function_of_another_layer():
    # bench/trace_layers.py books every isea_sim function bound in theory as
    # a theory span, in every module that binds it; a per-trial function
    # imported into theory would make each trial's call count as theory.
    from isea_sim import theory

    foreign = {
        name: value.__module__
        for name, value in vars(theory).items()
        if callable(value)
        and not isinstance(value, type)
        and value.__module__.startswith("isea_sim")
        and value.__module__ != "isea_sim.theory"
    }
    assert foreign == {}


def test_harness_binds_no_private_name_of_channel():
    # the channel-only experiments take every statistic from the public,
    # stacked functions that the trial engine uses
    private = {
        name: value
        for name, value in vars(channel).items()
        if name.startswith("_") and not name.startswith("__")
    }
    bound = {
        name
        for name, value in vars(experiments).items()
        if private.get(name, object()) is value
        or (
            callable(value)
            and getattr(value, "__module__", None) == channel.__name__
            and value.__name__.startswith("_")
        )
    }
    assert bound == set()


def _traced_span_counts(tmp_path, name, cli_args, cpus=None):
    """Run one CLI call under ``bench/child.py --trace``, where the stack
    runner sees ``cpus`` usable CPUs if given; count its spans by name."""
    child = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spans = tmp_path / f"{name}.spans.tsv"
    # run child.py as ``python3 child.py`` would, with sched_getaffinity replaced
    shim = [] if cpus is None else [
        "-c",
        f"import os, runpy, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
        "sys.argv = sys.argv[1:]; sys.path[0] = os.path.dirname(sys.argv[0]); "
        "runpy.run_path(sys.argv[0], run_name='__main__')",
    ]
    proc = subprocess.run(
        [sys.executable, *shim, str(child), "--result", str(tmp_path / f"{name}.json"),
         "--trace", str(spans), "--", *cli_args, "--out", str(tmp_path / f"{name}.csv")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in spans.read_text(encoding="utf-8").splitlines()[1:]]
    return Counter(row[0] for row in rows)


def test_benchmark_trace_counts_each_channel_call(tmp_path):
    # The per-layer metrics are not gated, so a receiver or experiment that
    # bypassed the traced names would go unnoticed without these counts.
    config = tmp_path / "small.cfg"
    config.write_text(
        "feature_dim = 5\nnum_classes = 5\nnum_sensors = 10\nnum_antennas = 12\n"
        "mc_trials = 30\n",
        encoding="utf-8",
    )
    # N = 5 (orthogonal infeasible) and N = 15, 30 draws each: each point's
    # draws fit in one stack, whose statistics are stacked calls that
    # bypass the one-draw SNR functions
    counts = _traced_span_counts(
        tmp_path, "crossing", ["crossing", "--config", str(config), "--sweep", "0.5,1.5"]
    )
    assert counts["channel.sample"] == 2
    assert counts["channel.air_snr"] == 0
    assert counts["channel.orth_snr"] == 0
    # the trial engine draws each trial's label through the traced name and
    # forms the views and channels of each stack (here one per point, 30
    # trials) through theirs, and receives the whole stack without the
    # per-draw calls
    counts = _traced_span_counts(
        tmp_path,
        "sweep-n",
        ["sweep-n", "--config", str(config), "--sweep", "8,12", "--pipelines", "adaptive"],
    )
    assert counts["channel.sample"] == 2
    assert counts["feature_model.sample"] == 60 + 2
    for name in ("channel.receive", "channel.air_snr", "channel.orth_snr"):
        assert counts[name] == 0, name
    # beside aircomp or orthogonal, adaptive draws each trial once and hands
    # its draws on, so only its one stack at N = 8 and at N = 12 draws, and
    # still one run_trials call per feasible cell
    counts = _traced_span_counts(
        tmp_path,
        "sweep-n-all",
        ["sweep-n", "--config", str(config), "--sweep", "8,12",
         "--pipelines", "aircomp,orthogonal,adaptive"],
    )
    assert counts["channel.sample"] == 2
    assert counts["feature_model.sample"] == 2 * (30 + 1)
    assert counts["inference.run_trials"] == 5
    # the benchmark's traced mc-access run requires one pool per feasible
    # cell: at 600 trials (four stacks at N = 8, six at N = 12) and two
    # workers on two usable CPUs, the calling process runs the even stacks
    # and a pool the odd ones; orthogonal at N = 8 < K is not run.  The
    # calling process forms the channels of its two adaptive stacks at N = 8
    # and its three at N = 12.
    counts = _traced_span_counts(
        tmp_path,
        "sweep-n-pool",
        ["sweep-n", "--config", str(config), "--sweep", "8,12", "--trials", "600",
         "--workers", "2", "--pipelines", "aircomp,orthogonal,adaptive"],
        cpus=2,
    )
    assert counts["inference.pool"] == 5
    assert counts["inference.run_trials"] == 5
    assert counts["channel.sample"] == 2 + 3
    # orthogonal at N = 12 takes adaptive's draws; at N = 8 < K it is not
    # run, and adaptive keeps nothing
    counts = _traced_span_counts(
        tmp_path,
        "sweep-n-pool-orthogonal",
        ["sweep-n", "--config", str(config), "--sweep", "8,12", "--trials", "600",
         "--workers", "2", "--pipelines", "orthogonal,adaptive"],
        cpus=2,
    )
    assert counts["inference.pool"] == 3
    assert counts["inference.run_trials"] == 3
    assert counts["channel.sample"] == 2 + 3
    # two substreams for each point's scenario build, one per point for the
    # centroids of the spec's symbol variance bound, and one per point that
    # the re-keyed trial_streams generator of its draws starts from
    counts = _traced_span_counts(
        tmp_path, "aloss", ["aloss", "--config", str(config), "--sweep", "1,10"]
    )
    assert counts["channel.sample"] == 2
    assert counts["channel.air_snr"] == 0
    assert counts["streams.substream"] == 2 * 2 + 2 + 2
    for experiment, sweep in (("snr-dist", "8,10"), ("bnorm-dist", "8,12,16")):
        counts = _traced_span_counts(
            tmp_path,
            experiment,
            [experiment, "--config", str(config), "--sweep", sweep, "--trials", "100"],
        )
        # one stack of 100 draws per point that draws; bnorm-dist builds
        # the scenario of its infeasible N = 8 point too but draws nothing;
        # the spec draws each point's centroids for its bound
        points = len(sweep.split(","))
        assert counts["channel.sample"] == 2, experiment
        assert counts["streams.substream"] == 3 * points + 2, experiment
        for name in ("channel.air_snr", "channel.orth_snr"):
            assert counts[name] == 0, (experiment, name)


def test_channel_only_point_forks_one_pool(tmp_path):
    # 300 draws at K = 10: at two workers on two usable CPUs each point of
    # two or more stacks forks one pool; a point of one stack (N K <= 54,
    # as crossing's N = 5 and snr-dist's K = N = 2) or of no draws
    # (bnorm-dist's infeasible N = 8) forks none, nor does one worker
    config = _write_config(tmp_path, CONFIG_TEXT.replace("mc_trials = 200", "mc_trials = 300"))
    for experiment, sweep in (
        ("crossing", "0.5,4"), ("snr-dist", "2,10"), ("bnorm-dist", "8,12"), ("aloss", "1"),
    ):
        args = [experiment, "--config", str(config), "--sweep", sweep, "--workers", "2"]
        counts = _traced_span_counts(tmp_path, experiment, args, cpus=2)
        assert counts["inference.pool"] == 1, experiment
    args = ["crossing", "--config", str(config), "--sweep", "0.5,4", "--workers", "1"]
    assert _traced_span_counts(tmp_path, "crossing-1", args, cpus=2)["inference.pool"] == 0
