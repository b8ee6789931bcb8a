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
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from .._blas import one_blas_thread
from ..channel import (
    air_snrs,
    best_access,
    min_beam_alignment,
    orth_snrs,
    realization_from_matrix,
    rows_per_stack,
    sample_channel,
    zf_norms_sq,
)
from ..errors import ConfigError, NumericalError
from ..inference import PIPELINES, _stderr, run_trials
from ..scenario import ScenarioConfig, build_scenario
from ..streams import trial_streams
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

FEASIBLE = "ok"
INFEASIBLE = "INFEASIBLE"

# A point whose scenario arrays and channel matrix need more memory than
# this is rejected up front; a desk-scale point needs a few kilobytes.
_MAX_POINT_BYTES = 2 * 2**30


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment request.

    None ``sweep_values`` or ``pipelines`` take the experiment's defaults,
    and None ``output_path`` writes no CSV.  Every point the experiment
    cannot run is rejected here, before any channel or trial is drawn.
    """

    experiment: str
    scenario: ScenarioConfig
    sweep_values: tuple | None = None
    pipelines: tuple | None = None
    output_path: str | None = None

    def __post_init__(self):
        record = _EXPERIMENTS.get(self.experiment)
        if record is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        cfg = self.scenario
        values = self.sweep_values
        if values is None:
            values = record.grid or (getattr(cfg, record.count_field),)
        try:
            values = tuple(float(v) for v in values)
        except OverflowError as exc:
            raise ConfigError(f"sweep value too large: {exc}") from None
        for value in values:
            if not np.isfinite(value):
                raise ConfigError(f"sweep value {value:g} is not finite")
        if not values:
            raise ConfigError("sweep_values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep_values must be strictly increasing")
        if record.count_field and not all(v.is_integer() for v in values):
            raise ConfigError(f"{self.experiment} sweeps a count; sweep_values must be integers")
        object.__setattr__(self, "sweep_values", values)
        pipelines = tuple(record.pipelines if self.pipelines is None else self.pipelines)
        if not pipelines or any(p not in PIPELINES for p in pipelines):
            raise ConfigError(f"pipelines must be a nonempty subset of {PIPELINES}")
        if len(set(pipelines)) != len(pipelines):
            raise ConfigError(f"pipelines must not repeat, got {','.join(pipelines)}")
        if record.fixed_pipelines and set(pipelines) != set(record.pipelines):
            fixed = ",".join(record.pipelines)
            raise ConfigError(f"{self.experiment} always runs pipelines {fixed}")
        object.__setattr__(self, "pipelines", pipelines)
        if cfg.mc_trials < record.min_draws:
            raise ConfigError(
                f"a distribution check needs at least {record.min_draws} draws, got {cfg.mc_trials}"
            )
        simulated = {}
        for value in values:
            point = record.config_at(cfg, value)
            K, N = point.num_sensors, point.num_antennas
            if point in simulated:
                raise ConfigError(
                    f"{self.experiment} sweep values {simulated[point]!r} and {value!r} both "
                    f"simulate K={K}, N={N}, transmit_snr_db={point.transmit_snr_db:g}"
                )
            simulated[point] = value
            size = _point_bytes(point)
            if size > _MAX_POINT_BYTES:
                raise ConfigError(
                    f"{self.experiment} at K={K:g}, N={N:g} needs {size / 2**30:.3g} GiB of "
                    f"scenario and channel arrays, above the {_MAX_POINT_BYTES // 2**30} GiB limit"
                )


def _point_bytes(cfg):
    """Bytes of a point's per-sensor scenario arrays (K M^2 + K L M floats)
    and of one complex N x K channel matrix, counted in floats so that no
    count overflows."""
    K, N = float(cfg.num_sensors), float(cfg.num_antennas)
    M, L = cfg.feature_dim, cfg.num_classes
    return 8.0 * (K * M * M + K * L * M) + 16.0 * N * K


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


CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow))


@dataclass(frozen=True)
class SweepReport:
    """All rows of one experiment plus free-form result notes."""

    experiment: str
    rows: tuple
    notes: tuple = ()

    def to_csv_text(self):
        """Strings go in verbatim, numbers through :func:`_fmt`."""
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = (getattr(row, column) for column in CSV_COLUMNS)
            lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        path = Path(path)
        try:
            path.write_text(self.to_csv_text(), encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write CSV to {path}: {exc}") from exc


def _probe_writable(path):
    """Fail now, not after the sweep, if the CSV cannot be written to
    ``path``: open it for append, and remove it again if that created it."""
    path = Path(path)
    try:
        created = not path.exists()
        with path.open("a", encoding="utf-8"):
            pass
        if created:
            path.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot write CSV to {path}: {exc}") from exc


def _fmt(value):
    if value is None:
        return ""
    value = float(value)
    if not np.isfinite(value):
        return ""
    return f"{value:.9g}"


def run_experiment(spec, workers=1, paper_scale=False):
    """Execute an experiment spec, write its CSV, and return the report.

    ``workers`` parallelizes Monte Carlo trials; results are bit-identical
    for every worker count.  ``paper_scale`` enlarges grids or trial
    counts toward publication scale instead of desk scale: an experiment
    whose default grid is the config's own count also sweeps the doubles
    of its values, every other one runs ten times the draws.  A grid or
    output path that cannot be used raises :class:`ConfigError` before the
    first point runs.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    record = _EXPERIMENTS[spec.experiment]
    draws = spec.scenario.mc_trials
    if paper_scale and record.grid is None:
        # the enlarged grid goes through every check of a requested one
        values = spec.sweep_values
        spec = dataclasses.replace(spec, sweep_values=sorted(set(values) | {2 * v for v in values}))
    elif paper_scale:
        draws *= 10
    if spec.output_path is not None:
        _probe_writable(spec.output_path)
    rows, notes = [], []
    # one block for the whole sweep: run_trials and _per_draw open their own,
    # but a block per pool would restart the threads each pool's fork stops
    with one_blas_thread():
        for point, value in enumerate(spec.sweep_values):
            scen = build_scenario(record.config_at(spec.scenario, value))
            point_rows, point_notes = record.run(spec, point, value, scen, draws, workers)
            for row, column in product(point_rows, CSV_COLUMNS):
                cell = getattr(row, column)  # a NaN is a failure, an infinity an empty cell
                if isinstance(cell, float) and np.isnan(cell):
                    where = f"{spec.experiment} at {row.sweep_value:g}, pipeline {row.pipeline}"
                    raise NumericalError(f"{where}: {column} is NaN")
            rows += point_rows
            notes += point_notes
    report = SweepReport(experiment=spec.experiment, rows=tuple(rows), notes=tuple(notes))
    if spec.output_path is not None:
        report.write_csv(spec.output_path)
    return report


def _simulation_point(spec, point, value, scen, trials, workers):
    """Monte Carlo trials of each pipeline at one sensor or antenna count."""
    L = scen.num_classes
    K = scen.num_sensors
    xi = asymptotic_separation(scen)
    rows = []
    for pipeline in spec.pipelines:
        if pipeline == "orthogonal" and scen.num_antennas < scen.num_sensors:
            rows.append(SweepRow(sweep_value=value, pipeline=pipeline, feasible=INFEASIBLE))
            continue
        batch = run_trials(
            scen,
            pipeline,
            trials,
            stream_id=_EXPERIMENTS[spec.experiment].stream_id,
            point_index=point,
            workers=workers,
        )
        mean_snr = batch.mean_effective_snr  # inf for noiseless, where the loss is 1.0
        loss = channel_loss_factor(scen, mean_snr)
        pw = pairwise_separation_matrix(scen, snr=mean_snr)
        lower, upper = uncertainty_bounds(pw, 1.0, K, scen.feature_dim)
        rows.append(
            SweepRow(
                sweep_value=value,
                pipeline=pipeline,
                mean_uncertainty=batch.mean_entropy,
                uncertainty_stderr=batch.entropy_stderr,
                accuracy=batch.accuracy,
                accuracy_stderr=batch.accuracy_stderr,
                mean_effective_snr=mean_snr,
                surrogate_lower=lower,
                surrogate_upper=upper,
                asymptotic_prediction=(L - 1) * np.exp(-KAPPA_LOWER * xi * loss * K),
            )
        )
    return rows, ()


def _draw_streams(spec, point, draws):
    """One counter-based generator per draw of a sweep point, each valid
    until the next is taken."""
    stream_id = _EXPERIMENTS[spec.experiment].stream_id
    return trial_streams(spec.scenario.master_seed, stream_id, point, 0, draws)


def _per_draw(stat, num_antennas, num_sensors, rngs):
    """``stat`` of one channel matrix H per generator in ``rngs``, the
    statistics of all draws concatenated along the first axis.

    This is the harness's only channel loop.  Each H is drawn from its own
    generator, in order, and ``stat`` runs on stacks (n, N, K) of
    :func:`rows_per_stack` of them, returning one row per draw; one that
    reads the principal pair builds it from H.  The benchmark's tracer
    rebinds ``sample_channel`` in this module, so it is called through its
    module-level name.
    """
    z = np.empty((rows_per_stack(num_antennas, num_sensors), 2, num_antennas, num_sensors))
    rngs = iter(rngs)
    parts = []
    with one_blas_thread():
        # zip takes a row before a generator, so no generator is left undrawn
        while n := len([rng.standard_normal(out=row) for row, rng in zip(z, rngs)]):
            parts.append(stat(sample_channel(z[:n])))
    return np.concatenate(parts)


def _antennas_for(omega, num_sensors):
    num_antennas = int(round(omega * num_sensors))
    if num_antennas < 1:
        raise ConfigError(
            f"omega={omega:g} at K={num_sensors} gives round(omega K) = {num_antennas} antennas"
        )
    return num_antennas


def _crossing_config(cfg, omega):
    """crossing: N = round(omega K) antennas at the config's K."""
    return dataclasses.replace(cfg, num_antennas=_antennas_for(omega, cfg.num_sensors))


def _snr_dist_config(cfg, K):
    """snr-dist: K sensors and N = round(omega K), omega the config's N/K."""
    N = _antennas_for(cfg.num_antennas / cfg.num_sensors, int(K))
    return dataclasses.replace(cfg, num_sensors=int(K), num_antennas=N)


def _aloss_config(cfg, gamma_lin):
    """aloss: the linear transmit SNR ``gamma_lin``."""
    if gamma_lin <= 0:
        raise ConfigError("aloss sweep values are linear SNRs and must be positive")
    return dataclasses.replace(cfg, transmit_snr_db=10.0 * np.log10(gamma_lin))


def _alignment_ks(num_antennas, num_sensors, rngs):
    """K-scaled weakest alignments of one channel per generator in ``rngs``
    and their KS distance to the limiting exponential law at omega = N/K.
    Returns ``(ks, zeta)``."""
    zeta = num_sensors * _per_draw(
        lambda H: min_beam_alignment(realization_from_matrix(H)), num_antennas, num_sensors, rngs
    )
    return ks_statistic(zeta, scaled_alignment_cdf(num_antennas / num_sensors)), zeta


def _zf_norm_ks(num_antennas, num_sensors, rngs):
    """Zero-forcing beam norms ``||b_k||^2`` of one channel per generator
    in ``rngs``, one row of K each, and the KS distance of the first column
    to the scaled inverse chi-square law.  Returns ``(ks, norms)``."""
    norms = _per_draw(zf_norms_sq, num_antennas, num_sensors, rngs)
    return ks_statistic(norms[:, 0], zf_norm_cdf(num_antennas, num_sensors)), norms


def _snr_dist_point(spec, point, value, scen, draws, workers):
    """K-scaled weakest alignment at N = round(omega K), omega the config's N/K."""
    K, N = scen.num_sensors, scen.num_antennas
    ratio = N / K  # the simulated ratio, which the row and note report
    ks, zeta = _alignment_ks(N, K, _draw_streams(spec, point, draws))
    scale = 2.0 * K * scen.transmit_snr / scen.nu_sq
    row = SweepRow(
        sweep_value=K,
        pipeline="aircomp",
        mean_effective_snr=scale * zeta.mean(),
        asymptotic_prediction=scale * (1.0 + np.sqrt(ratio)) ** 2,
    )
    return [row], [f"K={K} omega={ratio:g}: KS={ks:.4f} (threshold 0.03)"]


def _bnorm_dist_point(spec, point, value, scen, draws, workers):
    """Zero-forcing beam norms and orthogonal-access SNR at N antennas."""
    K, N = scen.num_sensors, scen.num_antennas
    if N < K:
        row = SweepRow(sweep_value=N, pipeline="orthogonal", feasible=INFEASIBLE)
        return [row], [f"N={N}: infeasible (K={K})"]
    ks, norms = _zf_norm_ks(N, K, _draw_streams(spec, point, draws))
    snrs = orth_snrs(norms, scen)
    prediction = scen.transmit_snr * K * (N - K) / scen.nu_sq if N > K else None
    row = SweepRow(
        sweep_value=N,
        pipeline="orthogonal",
        mean_effective_snr=float(snrs.mean()),
        asymptotic_prediction=prediction,
    )
    return [row], [f"N={N}: KS={ks:.4f} (threshold 0.02), mean norm {norms[:, 0].mean():.6g}"]


def _crossing_point(spec, point, value, scen, draws, workers):
    """How often over-the-air access beats orthogonal access at N = round(omega K)."""
    K, N = scen.num_sensors, scen.num_antennas
    omega = N / K  # the simulated ratio, which the rows and notes report

    def snr_pairs(H):
        """(gamma_air, gamma_aoa) of each draw, gamma_aoa -inf where N < K."""
        snrs = np.full((H.shape[0], 2), -np.inf)
        snrs[:, 0], _ = air_snrs(realization_from_matrix(H), scen)
        if N >= K:
            snrs[:, 1] = orth_snrs(zf_norms_sq(H), scen)
        return snrs

    air, aoa = _per_draw(snr_pairs, N, K, _draw_streams(spec, point, draws)).T
    best, wins = best_access(air, aoa)
    prob, prob_se = float(wins.mean()), _stderr(wins.astype(float))
    predicted = crossing_probability(K, omega)
    mean_snrs = (air.mean(), aoa.mean() if N >= K else None, best.mean())
    rows = []
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
    return rows, [f"omega={omega:g}: P(air wins)={prob:.4f}, asymptotic {predicted:.4f}"]


def _aloss_point(spec, point, gamma_lin, scen, draws, workers):
    """Channel-induced loss factor at the linear transmit SNR ``gamma_lin``."""
    K, N = scen.num_sensors, scen.num_antennas
    streams = _draw_streams(spec, point, draws)
    snrs = _per_draw(lambda H: air_snrs(realization_from_matrix(H), scen)[0], N, K, streams)
    # A degenerate draw (gamma_air = 0) passes nothing and loses everything.
    samples = np.zeros(draws)
    usable = snrs > 0
    samples[usable] = channel_loss_factor(scen, snrs[usable])
    e1_form, log_form = expected_loss_factor_bounds(expected_loss_r(scen, N / K))
    row = SweepRow(
        sweep_value=gamma_lin,
        pipeline="aircomp",
        accuracy=float(samples.mean()),
        accuracy_stderr=_stderr(samples),
        mean_effective_snr=float(snrs.mean()),
        surrogate_lower=log_form,
        surrogate_upper=e1_form,
        asymptotic_prediction=e1_form,
    )
    return [row], [
        f"gamma={gamma_lin:g}: mean loss {samples.mean():.4f}, E1-form bound {e1_form:.4f}"
    ]


@dataclass(frozen=True)
class _Experiment:
    """What the harness knows about one experiment."""

    # keys its random streams; all pipelines at one (point, trial) share a
    # stream, so their comparisons are paired
    stream_id: int
    run: Callable  # one sweep point: run(spec, point, value, scen, draws, workers) -> (rows, notes)
    pipelines: tuple  # the default pipelines
    count_field: str | None = None  # the config count a sweep value sets
    grid: tuple | None = None  # the default sweep; None sweeps the config's count_field
    fixed_pipelines: bool = False  # rows come from channel draws alone and cover `pipelines`
    min_draws: int = 1  # a KS distance needs at least 100 draws
    simulates: Callable | None = None  # a point's config, if not the count sweep's

    def config_at(self, cfg, value):
        """The scenario config that the point at sweep value ``value`` simulates."""
        if self.simulates is None:
            return dataclasses.replace(cfg, **{self.count_field: int(value)})
        return self.simulates(cfg, value)


_ALL_ACCESS = ("aircomp", "orthogonal", "adaptive")
_K_GRID = tuple(range(1, 13))
_EXPERIMENTS = {
    "sweep-k": _Experiment(11, _simulation_point, ("noiseless", "aircomp"), "num_sensors", _K_GRID),
    "sweep-n": _Experiment(12, _simulation_point, _ALL_ACCESS, "num_antennas", tuple(range(2, 21))),
    "snr-dist": _Experiment(
        13, _snr_dist_point, ("aircomp",), "num_sensors", None, True, 100, _snr_dist_config
    ),
    "bnorm-dist": _Experiment(
        14, _bnorm_dist_point, ("orthogonal",), "num_antennas", None, True, 100
    ),
    "bounds": _Experiment(15, _simulation_point, ("noiseless",), "num_sensors", _K_GRID),
    "crossing": _Experiment(
        16, _crossing_point, _ALL_ACCESS, None, (0.25, 0.5, 0.75, 1.0, 1.21, 1.44, 1.96, 4.0), True,
        simulates=_crossing_config,
    ),
    "aloss": _Experiment(
        17, _aloss_point, ("aircomp",), None, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0), True,
        simulates=_aloss_config,
    ),
}
EXPERIMENTS = tuple(sorted(_EXPERIMENTS))
