"""Experiment drivers producing uniform CSV sweep reports.

Every experiment emits the same schema, one row per (sweep value,
pipeline).  Simulation sweeps fill the uncertainty and accuracy columns
from Monte Carlo trials; distribution checks fill the SNR columns and
report their goodness-of-fit through ``SweepReport.notes``.  Columns that
an experiment does not produce stay empty, and orthogonal-access rows at
N < K are emitted with the INFEASIBLE flag instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from ..channel import (
    aircomp_effective_snr,
    orthogonal_effective_snr,
    sample_channel,
    scaled_min_alignment,
    transmit_snr,
    zf_norms_sq,
)
from ..errors import ConfigError
from ..inference import PIPELINES, _stderr, run_trials
from ..scenario import ScenarioConfig, build_scenario
from ..streams import EXPERIMENT_STREAMS, substream
from ..theory import (
    KAPPA_LOWER,
    asymptotic_separation,
    channel_loss_factor,
    crossing_probability,
    expected_loss_factor_bounds,
    expected_loss_r,
    ks_statistic,
    pairwise_separation_matrix,
    scaled_alignment_cdf,
    uncertainty_bounds,
    zf_norm_cdf,
)

EXPERIMENTS = tuple(sorted(EXPERIMENT_STREAMS))

CSV_COLUMNS = (
    "sweep_value",
    "pipeline",
    "mean_uncertainty",
    "uncertainty_stderr",
    "accuracy",
    "accuracy_stderr",
    "mean_effective_snr",
    "surrogate_lower",
    "surrogate_upper",
    "asymptotic_prediction",
    "feasible",
)

FEASIBLE = "ok"
INFEASIBLE = "INFEASIBLE"

# Experiments whose sweep values are sensor or antenna counts.
_COUNT_SWEEPS = ("sweep-k", "sweep-n", "bounds", "snr-dist", "bnorm-dist")


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment request."""

    scenario: ScenarioConfig
    experiment: str
    sweep_values: tuple
    pipelines: tuple = ("noiseless",)
    output_path: str = ""
    bound_c: float = 1.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        values = tuple(self.sweep_values)
        if not values:
            raise ConfigError("sweep_values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep_values must be strictly increasing")
        if self.experiment in _COUNT_SWEEPS and not all(
            float(v).is_integer() for v in values
        ):
            raise ConfigError(f"{self.experiment} sweeps a count; sweep_values must be integers")
        object.__setattr__(self, "sweep_values", values)
        pipelines = tuple(self.pipelines)
        if not pipelines or any(p not in PIPELINES for p in pipelines):
            raise ConfigError(f"pipelines must be a nonempty subset of {PIPELINES}")
        object.__setattr__(self, "pipelines", pipelines)
        if self.bound_c <= 0:
            raise ConfigError("bound_c must be positive")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; None marks a column the experiment left empty."""

    sweep_value: float
    pipeline: str
    mean_uncertainty: float | None = None
    uncertainty_stderr: float | None = None
    accuracy: float | None = None
    accuracy_stderr: float | None = None
    mean_effective_snr: float | None = None
    surrogate_lower: float | None = None
    surrogate_upper: float | None = None
    asymptotic_prediction: float | None = None
    feasible: str = FEASIBLE


@dataclass(frozen=True)
class SweepReport:
    """All rows of one experiment plus free-form result notes."""

    experiment: str
    rows: tuple
    notes: tuple = ()

    def to_csv_text(self):
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        _fmt(row.sweep_value),
                        row.pipeline,
                        _fmt(row.mean_uncertainty),
                        _fmt(row.uncertainty_stderr),
                        _fmt(row.accuracy),
                        _fmt(row.accuracy_stderr),
                        _fmt(row.mean_effective_snr),
                        _fmt(row.surrogate_lower),
                        _fmt(row.surrogate_upper),
                        _fmt(row.asymptotic_prediction),
                        row.feasible,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        path = Path(path)
        path.write_text(self.to_csv_text(), encoding="utf-8", newline="\n")
        return path


def _fmt(value):
    if value is None:
        return ""
    value = float(value)
    if not np.isfinite(value):
        return ""
    return f"{value:.9g}"


_DEFAULT_SWEEPS = {
    "sweep-k": tuple(range(1, 13)),
    "sweep-n": tuple(range(2, 21)),
    "bounds": tuple(range(1, 13)),
    "crossing": (0.25, 0.5, 0.75, 1.0, 1.21, 1.44, 1.96, 4.0),
    "aloss": (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
}

_DEFAULT_PIPELINES = {
    "sweep-k": ("noiseless", "aircomp"),
    "sweep-n": ("aircomp", "orthogonal", "adaptive"),
    "bounds": ("noiseless",),
    "snr-dist": ("aircomp",),
    "bnorm-dist": ("orthogonal",),
    "crossing": ("aircomp", "orthogonal", "adaptive"),
    "aloss": ("aircomp",),
}


def default_spec(experiment, config, output_path="", sweep_values=None, pipelines=None):
    """Build an :class:`ExperimentSpec` with per-experiment default grids."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    if sweep_values is None:
        if experiment == "snr-dist":
            sweep_values = (config.num_sensors,)
        elif experiment == "bnorm-dist":
            sweep_values = (config.num_antennas,)
        else:
            sweep_values = _DEFAULT_SWEEPS[experiment]
    if pipelines is None:
        pipelines = _DEFAULT_PIPELINES[experiment]
    return ExperimentSpec(
        scenario=config,
        experiment=experiment,
        sweep_values=tuple(sweep_values),
        pipelines=tuple(pipelines),
        output_path=str(output_path) if output_path else f"{experiment}.csv",
    )


def run_experiment(spec, workers=1, paper_scale=False):
    """Execute an experiment spec, write its CSV, and return the report.

    ``workers`` parallelizes Monte Carlo trials; results are bit-identical
    for every worker count.  ``paper_scale`` enlarges grids or trial
    counts toward publication scale instead of desk scale.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    runner = {
        "sweep-k": _run_simulation_sweep,
        "sweep-n": _run_simulation_sweep,
        "bounds": _run_simulation_sweep,
        "snr-dist": _run_snr_dist,
        "bnorm-dist": _run_bnorm_dist,
        "crossing": _run_crossing,
        "aloss": _run_aloss,
    }[spec.experiment]
    rows, notes = runner(spec, workers=workers, paper_scale=paper_scale)
    report = SweepReport(experiment=spec.experiment, rows=tuple(rows), notes=tuple(notes))
    if spec.output_path:
        report.write_csv(spec.output_path)
    return report


def _trials_for(spec, paper_scale):
    trials = spec.scenario.mc_trials
    return trials * 10 if paper_scale else trials


def _point_scenario(spec, value):
    cfg = spec.scenario
    if spec.experiment in ("sweep-k", "bounds"):
        cfg = dataclasses.replace(cfg, num_sensors=int(value))
    elif spec.experiment == "sweep-n":
        cfg = dataclasses.replace(cfg, num_antennas=int(value))
    return build_scenario(cfg)


def _run_simulation_sweep(spec, workers, paper_scale):
    trials = _trials_for(spec, paper_scale)
    stream_id = EXPERIMENT_STREAMS[spec.experiment]
    rows = []
    for point, value in enumerate(spec.sweep_values):
        scen = _point_scenario(spec, value)
        L = scen.num_classes
        K = scen.num_sensors
        xi = asymptotic_separation(scen)
        for pipeline in spec.pipelines:
            if pipeline == "orthogonal" and scen.num_antennas < scen.num_sensors:
                rows.append(
                    SweepRow(sweep_value=value, pipeline=pipeline, feasible=INFEASIBLE)
                )
                continue
            batch = run_trials(
                scen,
                pipeline,
                trials,
                stream_id=stream_id,
                point_index=point,
                workers=workers,
            )
            mean_snr = batch.mean_effective_snr
            if pipeline == "noiseless" or not np.isfinite(mean_snr):
                snr_arg, mean_snr_col, loss = None, None, 1.0
            else:
                snr_arg, mean_snr_col = mean_snr, mean_snr
                loss = channel_loss_factor(scen, mean_snr)
            pw = pairwise_separation_matrix(scen, snr=snr_arg)
            lower, upper = uncertainty_bounds(pw, spec.bound_c, K, scen.feature_dim)
            rows.append(
                SweepRow(
                    sweep_value=value,
                    pipeline=pipeline,
                    mean_uncertainty=batch.mean_entropy,
                    uncertainty_stderr=batch.entropy_stderr,
                    accuracy=batch.accuracy,
                    accuracy_stderr=batch.accuracy_stderr,
                    mean_effective_snr=mean_snr_col,
                    surrogate_lower=lower,
                    surrogate_upper=upper,
                    asymptotic_prediction=(L - 1) * np.exp(-KAPPA_LOWER * xi * loss * K),
                )
            )
    return rows, ()


def _trial_streams(cfg, experiment, point, draws):
    """One counter-based generator per draw of a sweep point."""
    stream_id = EXPERIMENT_STREAMS[experiment]
    return (substream(cfg.master_seed, stream_id, point, t) for t in range(draws))


def _per_draw(stat, num_antennas, num_sensors, rngs):
    """``stat`` of one fresh channel per generator in ``rngs``, as an array.

    This is the harness's only per-draw channel loop.  Channels are drawn
    lazily and dropped after use, so one N x K matrix is alive at a time.
    A ``stat`` that returns a tuple gives one column per entry.
    """
    return np.array(
        [stat(sample_channel(num_antennas, num_sensors, rng)) for rng in rngs], dtype=float
    )


def _antennas_for(omega, num_sensors):
    num_antennas = int(round(omega * num_sensors))
    if num_antennas < 1:
        raise ConfigError(
            f"omega={omega:g} at K={num_sensors} gives round(omega K) = {num_antennas} antennas"
        )
    return num_antennas


def _ks(samples, reference_cdf):
    """The KS distance every distribution check reports; too few draws is
    a configuration error, not a crash."""
    if samples.shape[0] < 100:
        raise ConfigError(
            f"a distribution check needs at least 100 draws, got {samples.shape[0]}"
        )
    return ks_statistic(samples, reference_cdf)


def _alignment_law_fit(num_antennas, num_sensors, omega, rngs):
    """K-scaled weakest alignment of a channel per generator, and its KS
    distance to the limiting exponential law at ratio ``omega``."""
    zeta = _per_draw(scaled_min_alignment, num_antennas, num_sensors, rngs)
    return _ks(zeta, scaled_alignment_cdf(omega)), zeta


def _zf_norm_pair(channel):
    norms = zf_norms_sq(channel)
    return norms[0], norms.sum()


def _zf_norm_law_fit(num_antennas, num_sensors, rngs):
    """``(||b_1||^2, sum_k ||b_k||^2)`` of a channel per generator, and the KS
    distance of the first column to its exact inverse chi-square law."""
    # the reshape keeps both columns even when there are no draws
    norms = _per_draw(_zf_norm_pair, num_antennas, num_sensors, rngs).reshape(-1, 2)
    return _ks(norms[:, 0], zf_norm_cdf(num_antennas, num_sensors)), norms


def run_snr_distribution_check(num_sensors, omega, draws, rng, threshold=0.03):
    """Sample the K-scaled weakest alignment at N = round(omega K), drawing
    every channel from ``rng`` in turn, and test it against its limiting
    exponential law.  Returns ``(ks, passed)``."""
    ks, _ = _alignment_law_fit(
        _antennas_for(omega, num_sensors), num_sensors, omega, repeat(rng, draws)
    )
    return ks, ks < threshold


def run_zf_norm_distribution_check(num_antennas, num_sensors, draws, rng, threshold=0.02):
    """Sample one zero-forcing beam norm per draw, every channel from
    ``rng`` in turn, and test it against the scaled inverse chi-square
    law.  Returns ``(ks, mean_norm, passed)``."""
    ks, norms = _zf_norm_law_fit(num_antennas, num_sensors, repeat(rng, draws))
    return ks, float(norms[:, 0].mean()), ks < threshold


def _run_snr_dist(spec, workers, paper_scale):
    del workers  # channel-only loops run single-process; results match any count
    cfg = spec.scenario
    omega = cfg.num_antennas / cfg.num_sensors
    values = spec.sweep_values
    if paper_scale:
        values = tuple(values) + tuple(2 * v for v in values)
    draws = cfg.mc_trials
    rows, notes = [], []
    for point, K in enumerate(values):
        K = int(K)
        N = _antennas_for(omega, K)
        scen = build_scenario(dataclasses.replace(cfg, num_sensors=K, num_antennas=N))
        streams = _trial_streams(cfg, "snr-dist", point, draws)
        ks, zeta = _alignment_law_fit(N, K, omega, streams)
        scale = 2.0 * K * transmit_snr(scen) / scen.nu_sq
        rows.append(
            SweepRow(
                sweep_value=K,
                pipeline="aircomp",
                mean_effective_snr=scale * zeta.mean(),
                asymptotic_prediction=scale * (1.0 + np.sqrt(omega)) ** 2,
            )
        )
        notes.append(f"K={K} omega={omega:g}: KS={ks:.4f} (threshold 0.03)")
    return rows, notes


def _run_bnorm_dist(spec, workers, paper_scale):
    del workers
    cfg = spec.scenario
    K = cfg.num_sensors
    values = spec.sweep_values
    if paper_scale:
        values = tuple(values) + tuple(2 * v for v in values)
    draws = cfg.mc_trials
    rows, notes = [], []
    for point, N in enumerate(values):
        N = int(N)
        if N < K:
            rows.append(SweepRow(sweep_value=N, pipeline="orthogonal", feasible=INFEASIBLE))
            notes.append(f"N={N}: infeasible (K={K})")
            continue
        scen = build_scenario(dataclasses.replace(cfg, num_antennas=N))
        ks, norms = _zf_norm_law_fit(N, K, _trial_streams(cfg, "bnorm-dist", point, draws))
        snrs = transmit_snr(scen) * K**2 / (scen.nu_sq * norms[:, 1])
        prediction = None
        if N > K:
            prediction = transmit_snr(scen) * K * (N - K) / scen.nu_sq
        rows.append(
            SweepRow(
                sweep_value=N,
                pipeline="orthogonal",
                mean_effective_snr=float(snrs.mean()),
                asymptotic_prediction=prediction,
            )
        )
        notes.append(
            f"N={N}: KS={ks:.4f} (threshold 0.02), mean norm {norms[:, 0].mean():.6g}"
        )
    return rows, notes


def _access_snrs(scenario, channel):
    """``(gamma_air, gamma_aoa)`` of one draw; gamma_aoa is NaN where
    orthogonal access is infeasible."""
    gamma_air = aircomp_effective_snr(channel, scenario).gamma_air
    if channel.num_antennas < channel.num_sensors:
        return gamma_air, np.nan
    return gamma_air, orthogonal_effective_snr(channel, scenario)[0]


def _run_crossing(spec, workers, paper_scale):
    del workers
    cfg = spec.scenario
    K = cfg.num_sensors
    draws = _trials_for(spec, paper_scale)
    rows, notes = [], []
    for point, omega in enumerate(spec.sweep_values):
        N = _antennas_for(omega, K)
        scen = build_scenario(dataclasses.replace(cfg, num_antennas=N))
        streams = _trial_streams(cfg, "crossing", point, draws)
        air, aoa = _per_draw(partial(_access_snrs, scen), N, K, streams).T
        # a NaN gamma_aoa (orthogonal access infeasible) counts as an air win
        wins = (~(air < aoa)).astype(float)
        prob, prob_se = float(wins.mean()), _stderr(wins)
        predicted = crossing_probability(K, omega)
        mean_snrs = (air.mean(), aoa.mean() if N >= K else None, np.fmax(air, aoa).mean())
        for pipeline, mean_snr in zip(("aircomp", "orthogonal", "adaptive"), mean_snrs):
            if mean_snr is None:
                rows.append(SweepRow(sweep_value=omega, pipeline=pipeline, feasible=INFEASIBLE))
                continue
            rows.append(
                SweepRow(
                    sweep_value=omega,
                    pipeline=pipeline,
                    accuracy=prob,
                    accuracy_stderr=prob_se,
                    mean_effective_snr=float(mean_snr),
                    asymptotic_prediction=predicted,
                )
            )
        notes.append(
            f"omega={omega:g}: P(air wins)={prob:.4f}, asymptotic {predicted:.4f}"
        )
    return rows, notes


def _run_aloss(spec, workers, paper_scale):
    del workers
    cfg = spec.scenario
    omega = cfg.num_antennas / cfg.num_sensors
    draws = _trials_for(spec, paper_scale)
    rows, notes = [], []
    for point, gamma_lin in enumerate(spec.sweep_values):
        if gamma_lin <= 0:
            raise ConfigError("aloss sweep values are linear SNRs and must be positive")
        scen = build_scenario(
            dataclasses.replace(cfg, transmit_snr_db=10.0 * np.log10(gamma_lin))
        )
        streams = _trial_streams(cfg, "aloss", point, draws)
        snrs = _per_draw(
            lambda ch: aircomp_effective_snr(ch, scen).gamma_air,
            scen.num_antennas,
            scen.num_sensors,
            streams,
        )
        # A degenerate draw (gamma_air = 0) passes nothing and loses everything.
        samples = np.zeros(draws)
        usable = snrs > 0
        samples[usable] = channel_loss_factor(scen, snrs[usable])
        e1_form, log_form = expected_loss_factor_bounds(expected_loss_r(scen, omega))
        rows.append(
            SweepRow(
                sweep_value=gamma_lin,
                pipeline="aircomp",
                accuracy=float(samples.mean()),
                accuracy_stderr=_stderr(samples),
                mean_effective_snr=float(snrs.mean()),
                surrogate_lower=log_form,
                surrogate_upper=e1_form,
                asymptotic_prediction=e1_form,
            )
        )
        notes.append(
            f"gamma={gamma_lin:g}: mean loss {samples.mean():.4f}, "
            f"E1-form bound {e1_form:.4f}"
        )
    return rows, notes
