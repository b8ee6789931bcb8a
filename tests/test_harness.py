"""Experiments, CSV schema, and the CLI.

Monte Carlo rows quoted in comments come from the frozen default seed, so
they are exact across runs and platforms.
"""

import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import isea_sim as iz
from isea_sim import _blas
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


# ---------------------------------------------------------------------------
# distribution checks


def test_snr_distribution_check_rejects_small_sensor_count():
    # K = 5 is far from the large-system limit; the check must say so
    # rather than quietly passing.
    ks, _ = _alignment_ks(5, 5, repeat(substream(20240, 25), 1000))
    assert ks == pytest.approx(0.1478, abs=2e-4)
    assert not ks < 0.03
    with pytest.raises(ValueError):
        _alignment_ks(5, 5, repeat(substream(20240, 25), 5))


def test_zf_norm_check_runs_and_reports(tmp_path):
    ks, norms = _zf_norm_ks(16, 10, repeat(substream(20240, 26), 1000))
    assert 0.0 < ks < 0.1
    assert norms.shape == (1000, 10)
    assert norms[:, 0].mean() == pytest.approx(1.0 / 6.0, rel=0.15)


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
    """The largest K at the config's N, and N at its K, whose scenario
    arrays (K M^2 + K L M floats) and complex N x K channel fit in 2 GiB."""
    M, L, N, K = cfg.feature_dim, cfg.num_classes, cfg.num_antennas, cfg.num_sensors
    limit = 2 * 2**30
    return limit // (8 * (M * M + L * M) + 16 * N), (limit - 8 * K * (M * M + L * M)) // (16 * K)


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
    # K = 70 puts every channel Gram above _FULL_EIG_MAX, so crossing runs
    # the subset eigensolver.  The library runs its loops at one OpenBLAS
    # thread; with that policy made a no-op they run at two.
    controls = _blas._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy ship no OpenBLAS build here")
    runs = {
        "sweep-n": (CONFIG_TEXT, (8, 12)),
        "crossing": (CONFIG_TEXT.replace("num_sensors = 10", "num_sensors = 70"), (1, 1.5)),
    }

    def csv_text(experiment):
        text, sweep = runs[experiment]
        cfg = iz.parse_config_text(text.replace("mc_trials = 200", "mc_trials = 100"))
        spec = ExperimentSpec(experiment, cfg, output_path=None, sweep_values=sweep)
        return run_experiment(spec).to_csv_text()

    at_one = {experiment: csv_text(experiment) for experiment in runs}
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        monkeypatch.setattr(_blas, "_openblas_thread_controls", lambda: ())
        at_two = {experiment: csv_text(experiment) for experiment in runs}
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert at_one == at_two


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
    ch = iz.realization_from_matrix(iz.sample_channel(rng.standard_normal((2, 6, 4))))
    features = iz.sample_local_features(scen, 0, rng.standard_normal((4, scen.feature_dim)))
    tags = {fn.__name__: tag for fn, (_, tag) in layers.items() if tag is not None}
    assert tags["aircomp_effective_snr"](None, None, iz.aircomp_effective_snr(ch, scen)) is False
    adaptive = iz.adaptive_receive(scen, ch, features, rng)
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
    from isea_sim import channel

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


def _traced_span_counts(tmp_path, name, cli_args):
    """Run one CLI call under ``bench/child.py --trace``; count its spans by
    name."""
    child = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spans = tmp_path / f"{name}.spans.tsv"
    proc = subprocess.run(
        [sys.executable, str(child), "--result", str(tmp_path / f"{name}.json"),
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
    # the benchmark's traced mc-access run requires one pool per feasible
    # cell: at 600 trials (two chunks) and two workers, the calling process
    # runs one chunk and a pool the other; orthogonal at N = 8 < K is not run
    counts = _traced_span_counts(
        tmp_path,
        "sweep-n-pool",
        ["sweep-n", "--config", str(config), "--sweep", "8,12", "--trials", "600",
         "--workers", "2", "--pipelines", "orthogonal,adaptive"],
    )
    assert counts["inference.pool"] == 3
    assert counts["inference.run_trials"] == 3
    # two substreams for each point's scenario build, and one per point that
    # the re-keyed trial_streams generator of its draws starts from
    counts = _traced_span_counts(
        tmp_path, "aloss", ["aloss", "--config", str(config), "--sweep", "1,10"]
    )
    assert counts["channel.sample"] == 2
    assert counts["channel.air_snr"] == 0
    assert counts["streams.substream"] == 2 * 2 + 2
    for experiment, sweep in (("snr-dist", "8,10"), ("bnorm-dist", "8,12,16")):
        counts = _traced_span_counts(
            tmp_path,
            experiment,
            [experiment, "--config", str(config), "--sweep", sweep, "--trials", "100"],
        )
        # one stack of 100 draws per point that draws; bnorm-dist builds
        # the scenario of its infeasible N = 8 point too but draws nothing
        points = len(sweep.split(","))
        assert counts["channel.sample"] == 2, experiment
        assert counts["streams.substream"] == 2 * points + 2, experiment
        for name in ("channel.air_snr", "channel.orth_snr"):
            assert counts[name] == 0, (experiment, name)
