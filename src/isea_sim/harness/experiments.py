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
    sample_channel,
    snr_pairs,
    zf_norms_sq,
)
from ..errors import ConfigError, NumericalError
from ..inference import PIPELINES, _mean, _row_floats, _stderr, rows_per_stack, run_stacks
from ..inference import run_trials
from ..scenario import ScenarioConfig, build_scenario, symbol_variance_bound
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
        # a channel-only point's rows come from its draws alone and cover its pipelines
        channel_only = record.run is not _simulation_point
        if channel_only and set(pipelines) != set(record.pipelines):
            fixed = ",".join(record.pipelines)
            raise ConfigError(f"{self.experiment} always runs pipelines {fixed}")
        object.__setattr__(self, "pipelines", pipelines)
        if cfg.mc_trials < record.min_draws:
            raise ConfigError(
                f"a distribution check needs at least {record.min_draws} draws, got {cfg.mc_trials}"
            )
        simulated = {}
        for value in values:
            try:
                point = record.config_at(cfg, value)
                size = _point_bytes(point, () if channel_only else pipelines)
            except OverflowError:  # a count beyond any float
                message = f"{self.experiment}: a count is too large to size its arrays"
                raise ConfigError(message) from None
            K, N = point.num_sensors, point.num_antennas
            if point in simulated:
                raise ConfigError(
                    f"{self.experiment} sweep values {simulated[point]!r} and {value!r} both "
                    f"simulate K={K}, N={N}, transmit_snr_db={point.transmit_snr_db:g}"
                )
            simulated[point] = value
            if size > _MAX_POINT_BYTES:
                raise ConfigError(
                    f"{self.experiment} at K={K:g}, N={N:g} needs {size / 2**30:.3g} GiB of "
                    f"arrays, above the {_MAX_POINT_BYTES // 2**30} GiB limit"
                )
            # the classifier inverts C/K, and eigh of c I returns c exactly;
            # validate_scenario rejects a c whose own inverse 1/c overflows
            c = point.sensing_covariance_scale
            if not channel_only and 1.0 / c < np.inf and not 1.0 / (c / K) < np.inf:
                raise ConfigError(
                    f"{self.experiment} at K={K}: the classifier's inverse covariance "
                    f"K/c = {K}/{c:g} is not finite"
                )
            # a bound M L times below the largest float proves nu^2 finite,
            # whatever the order of the build's sums; past it, the point's
            # own build decides, and raises where nu^2 is not finite
            room = np.finfo(float).max / (point.feature_dim * point.num_classes)
            if not symbol_variance_bound(point) < room:
                build_scenario(point)


def _point_bytes(cfg, pipelines=()):
    """Bytes of a point's scenario arrays (K M^2 + K L M floats) and of what
    it holds besides, counted in floats so no count overflows.  A
    channel-only point (no ``pipelines``) holds a stack of draws, each with
    its normals, H and H^H (2 N K floats each) and at most three arrays the
    size of the smaller complex Gram (2 min(N, K)^2 floats each), and per
    draw at most 4 floats of results: the two a draw keeps at most, and
    their copies in the summaries.  A trial point holds one complex N x K
    channel, one pipeline's results at a time (4 floats per trial) with its
    standard errors' temporaries (2), the 2 M + 2 of the draws adaptive
    keeps for aircomp or orthogonal, and the largest stack: its normals
    with three temporaries as large (4 rows x row floats) and the
    classifier's (2 rows L M floats)."""
    K, N = float(cfg.num_sensors), float(cfg.num_antennas)
    M, L = cfg.feature_dim, cfg.num_classes
    size = 8.0 * (K * M * M + K * L * M)
    if not pipelines:
        stack = 16.0 * rows_per_stack(2 * N * K) * (3 * N * K + 3 * min(N, K) ** 2)
        return size + stack + 32.0 * cfg.mc_trials
    rows = [_row_floats(pipeline, M, N, K) for pipeline in pipelines]
    stack = max(8.0 * rows_per_stack(row) * (4 * row + 2 * L * M) for row in rows)
    shares = "adaptive" in pipelines and {"aircomp", "orthogonal"} & set(pipelines)
    per_trial = 6 + (2 * M + 2 if shares else 0)
    return size + 16.0 * N * K + 8.0 * per_trial * cfg.mc_trials + stack


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

    ``workers`` processes run the stacks of each cell, a pipeline's trials
    at a point or a channel-only point's draws, by :func:`run_stacks`;
    results are bit-identical for every worker count.  ``paper_scale``
    enlarges grids or trial counts toward publication scale instead of desk
    scale: an experiment whose default grid is the config's own count also
    sweeps the doubles of its values, every other one runs ten times the
    draws.  A grid or output path that cannot be used raises
    :class:`ConfigError` before the first point runs.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    record = _EXPERIMENTS[spec.experiment]
    # the enlarged grid or trial count goes through every check of a requested one
    if paper_scale and record.grid is None:
        values = spec.sweep_values
        spec = dataclasses.replace(spec, sweep_values=sorted(set(values) | {2 * v for v in values}))
    elif paper_scale:
        scenario = dataclasses.replace(spec.scenario, mc_trials=10 * spec.scenario.mc_trials)
        spec = dataclasses.replace(spec, scenario=scenario)
    draws = spec.scenario.mc_trials
    if spec.output_path is not None:
        _probe_writable(spec.output_path)
    rows, notes = [], []
    # one block for the whole sweep: one per pool would restart the threads
    # that each pool's fork stops
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
    """Monte Carlo trials of each pipeline at one sensor or antenna count.
    Where adaptive runs with aircomp or a feasible orthogonal, it runs first
    and keeps each trial's label, averaged views, receive noise and SNR
    pair; those cells then draw nothing and receive its trials at their own
    SNRs.  Rows keep the requested order."""
    L = scen.num_classes
    K = scen.num_sensors
    xi = asymptotic_separation(scen)
    infeasible = {"orthogonal"} if scen.num_antennas < K else set()
    partners = {"aircomp", "orthogonal"} & set(spec.pipelines) - infeasible
    keep = "adaptive" in spec.pipelines and bool(partners)
    rows, draws = {}, None
    for pipeline in sorted(spec.pipelines, key=lambda p: p != "adaptive"):
        if pipeline in infeasible:
            rows[pipeline] = SweepRow(sweep_value=value, pipeline=pipeline, feasible=INFEASIBLE)
            continue
        batch = run_trials(
            scen,
            pipeline,
            trials,
            stream_id=_EXPERIMENTS[spec.experiment].stream_id,
            point_index=point,
            workers=workers,
            keep_draws=keep and pipeline == "adaptive",
            draws=draws if pipeline in ("aircomp", "orthogonal") else None,
        )
        mean_snr = batch.mean_effective_snr  # inf for noiseless, where the loss is 1.0
        loss = channel_loss_factor(scen, mean_snr)
        pw = pairwise_separation_matrix(scen, snr=mean_snr)
        lower, upper = uncertainty_bounds(pw, 1.0, K, scen.feature_dim)
        rows[pipeline] = SweepRow(
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
        # the kept draws outlive their batch, which goes before the next run
        draws = batch.draws or draws
        del batch
    return [rows[pipeline] for pipeline in spec.pipelines], ()


def _point_streams(spec, point):
    """The ``streams(a, b)`` factory of the draws of a channel-only point."""
    stream_id = _EXPERIMENTS[spec.experiment].stream_id
    return partial(trial_streams, spec.scenario.master_seed, stream_id, point)


def _channel_stack(stat, streams, num_antennas, num_sensors, a, b):
    """``stat`` of draws [a, b), one generator each; the tracer rebinds ``sample_channel``."""
    z = np.empty((b - a, 2, num_antennas, num_sensors))
    for row, rng in zip(z, streams(a, b)):
        rng.standard_normal(out=row)
    return stat(sample_channel(z))


def _per_draw(stat, fields, num_antennas, num_sensors, streams, draws, workers=1):
    """The ``fields`` arrays ``stat`` returns as a tuple for stacks of ``draws``
    channels, by :func:`run_stacks`; at one worker the stacks run in order,
    so a ``streams`` handing out one generator draws from it in sequence."""
    out = [np.empty(draws) for _ in range(fields)]
    stack = partial(_channel_stack, stat, streams, num_antennas, num_sensors)
    run_stacks(stack, draws, 2 * num_antennas * num_sensors, out, workers)
    return out


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


def _weakest_alignment(H):
    return (min_beam_alignment(H),)


def _first_norm_and_snr(scenario, H):
    """Each draw's first zero-forcing norm ``||b_1||^2`` and gamma_aoa."""
    norms = zf_norms_sq(H)
    return norms[:, 0], orth_snrs(norms, scenario)


def _loss_and_snr(scenario, H):
    """Each draw's loss factor and gamma_air; a degenerate draw
    (gamma_air = 0) passes nothing and loses everything."""
    snrs = air_snrs(H, scenario)[0]
    return channel_loss_factor(scenario, snrs), snrs


def _alignment_ks(N, K, streams, draws, workers=1):
    """K-scaled weakest alignments of ``draws`` N x K channels from ``streams``
    and their KS distance to the limit law at omega = N/K: ``(ks, zeta)``."""
    zeta = K * _per_draw(_weakest_alignment, 1, N, K, streams, draws, workers)[0]
    return ks_statistic(zeta, scaled_alignment_cdf(N / K)), zeta


def _zf_norm_ks(scenario, streams, draws, workers=1):
    """First zero-forcing norms ``||b_1||^2``, gamma_aoa and the norms' KS distance to
    the scaled inverse chi-square law, of ``draws`` channels: ``(ks, first, snrs)``."""
    N, K = scenario.num_antennas, scenario.num_sensors
    stat = partial(_first_norm_and_snr, scenario)
    first, snrs = _per_draw(stat, 2, N, K, streams, draws, workers)
    return ks_statistic(first, zf_norm_cdf(N, K)), first, snrs


def _snr_dist_point(spec, point, value, scen, draws, workers):
    """K-scaled weakest alignment at N = round(omega K), omega the config's N/K."""
    K, N = scen.num_sensors, scen.num_antennas
    ratio = N / K  # the simulated ratio, which the row and note report
    ks, zeta = _alignment_ks(N, K, _point_streams(spec, point), draws, workers)
    scale = 2.0 * K * scen.transmit_snr / scen.nu_sq
    with np.errstate(over="ignore"):  # past the largest float, an empty cell
        prediction = scale * (1.0 + np.sqrt(ratio)) ** 2
    row = SweepRow(
        sweep_value=K,
        pipeline="aircomp",
        mean_effective_snr=scale * _mean(zeta),
        asymptotic_prediction=prediction,
    )
    return [row], [f"K={K} omega={ratio:g}: KS={ks:.4f} (threshold 0.03)"]


def _bnorm_dist_point(spec, point, value, scen, draws, workers):
    """Zero-forcing beam norms and orthogonal-access SNR at N antennas."""
    K, N = scen.num_sensors, scen.num_antennas
    if N < K:
        row = SweepRow(sweep_value=N, pipeline="orthogonal", feasible=INFEASIBLE)
        return [row], [f"N={N}: infeasible (K={K})"]
    ks, first, snrs = _zf_norm_ks(scen, _point_streams(spec, point), draws, workers)
    prediction = scen.transmit_snr * K * (N - K) / scen.nu_sq if N > K else None
    row = SweepRow(
        sweep_value=N,
        pipeline="orthogonal",
        mean_effective_snr=_mean(snrs),
        asymptotic_prediction=prediction,
    )
    return [row], [f"N={N}: KS={ks:.4f} (threshold 0.02), mean norm {first.mean():.6g}"]


def _crossing_point(spec, point, value, scen, draws, workers):
    """How often over-the-air access beats orthogonal access at N = round(omega K)."""
    K, N = scen.num_sensors, scen.num_antennas
    omega = N / K  # the simulated ratio, which the rows and notes report
    stat, streams = partial(snr_pairs, scenario=scen), _point_streams(spec, point)
    air, aoa = _per_draw(stat, 2, N, K, streams, draws, workers)
    best, wins = best_access(air, aoa)
    prob, prob_se = float(wins.mean()), _stderr(wins.astype(float))
    predicted = crossing_probability(K, omega)
    mean_snrs = (_mean(air), _mean(aoa) if N >= K else None, _mean(best))
    rows = []
    for pipeline, mean_snr in zip(_ALL_ACCESS, mean_snrs):
        if mean_snr is None:
            rows.append(SweepRow(sweep_value=omega, pipeline=pipeline, feasible=INFEASIBLE))
            continue
        rows.append(
            SweepRow(
                sweep_value=omega,
                pipeline=pipeline,
                accuracy=prob,
                accuracy_stderr=prob_se,
                mean_effective_snr=mean_snr,
                asymptotic_prediction=predicted,
            )
        )
    return rows, [f"omega={omega:g}: P(air wins)={prob:.4f}, asymptotic {predicted:.4f}"]


def _aloss_point(spec, point, gamma_lin, scen, draws, workers):
    """Channel-induced loss factor at the linear transmit SNR ``gamma_lin``."""
    K, N = scen.num_sensors, scen.num_antennas
    stat, streams = partial(_loss_and_snr, scen), _point_streams(spec, point)
    samples, snrs = _per_draw(stat, 2, N, K, streams, draws, workers)
    e1_form, log_form = expected_loss_factor_bounds(expected_loss_r(scen, N / K))
    row = SweepRow(
        sweep_value=gamma_lin,
        pipeline="aircomp",
        accuracy=float(samples.mean()),
        accuracy_stderr=_stderr(samples),
        mean_effective_snr=_mean(snrs),
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
        13, _snr_dist_point, ("aircomp",), "num_sensors", None, 100, _snr_dist_config
    ),
    "bnorm-dist": _Experiment(14, _bnorm_dist_point, ("orthogonal",), "num_antennas", None, 100),
    "bounds": _Experiment(15, _simulation_point, ("noiseless",), "num_sensors", _K_GRID),
    "crossing": _Experiment(
        16, _crossing_point, _ALL_ACCESS, None, (0.25, 0.5, 0.75, 1.0, 1.21, 1.44, 1.96, 4.0),
        simulates=_crossing_config,
    ),
    "aloss": _Experiment(
        17, _aloss_point, ("aircomp",), None, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
        simulates=_aloss_config,
    ),
}
EXPERIMENTS = tuple(sorted(_EXPERIMENTS))
