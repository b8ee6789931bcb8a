"""Output checks on the CSVs the benchmark's runs write.

Each check holds at any seed: it compares a Monte Carlo estimate with a
closed form only up to three of its own standard errors, plus the fixed
slack the matching acceptance test allows.  Every function returns a list
of failure messages, empty when the CSV passes.
"""

import csv
import io
import math

INFEASIBLE = "INFEASIBLE"


def read_rows(text):
    """CSV rows as dicts; empty cells become None, numbers become floats."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            if key in ("pipeline", "feasible"):
                row[key] = value
            else:
                row[key] = float(value) if value != "" else None
        rows.append(row)
    return rows


def _by_point(rows):
    points = {}
    for row in rows:
        points.setdefault(row["sweep_value"], {})[row["pipeline"]] = row
    return points


def _expect_rows(points, values, pipelines):
    if sorted(points) != sorted(values):
        return [f"sweep values {sorted(points)} != {sorted(values)}"]
    return [
        f"{value}: pipelines {sorted(row)} != {sorted(pipelines)}"
        for value, row in points.items()
        if sorted(row) != sorted(pipelines)
    ]


def check_bounds(rows, sweep, pipelines, num_sensors):
    """Mean uncertainty within the surrogate bounds, give or take 3 se (test_02)."""
    points = _by_point(rows)
    failures = _expect_rows(points, sweep, pipelines)
    for row in rows:
        slack = 3.0 * row["uncertainty_stderr"]
        if not row["surrogate_lower"] - slack <= row["mean_uncertainty"] <= row["surrogate_upper"] + slack:
            failures.append(
                f"K={row['sweep_value']:g}: uncertainty {row['mean_uncertainty']} outside "
                f"[{row['surrogate_lower']}, {row['surrogate_upper']}] +/- {slack:.3g}"
            )
    return failures


def check_access(rows, sweep, pipelines, num_sensors):
    """Orthogonal rows infeasible exactly where N < K; adaptive accuracy at
    least each other pipeline's minus 3 combined se (test_07)."""
    points = _by_point(rows)
    failures = _expect_rows(points, sweep, pipelines)
    for n, row in points.items():
        for pipeline, r in row.items():
            infeasible = pipeline == "orthogonal" and n < num_sensors
            if (r["feasible"] == INFEASIBLE) != infeasible:
                failures.append(f"N={n:g} {pipeline}: flagged {r['feasible']}")
        adaptive = row["adaptive"]
        for pipeline in ("aircomp", "orthogonal"):
            other = row[pipeline]
            if other["feasible"] == INFEASIBLE:
                continue
            slack = 3.0 * math.hypot(adaptive["accuracy_stderr"], other["accuracy_stderr"])
            if adaptive["accuracy"] < other["accuracy"] - slack:
                failures.append(
                    f"N={n:g}: adaptive accuracy {adaptive['accuracy']} below "
                    f"{pipeline} {other['accuracy']} - {slack:.3g}"
                )
    return failures


def crossing_probability(num_sensors, omega):
    """Limit law of P(air beats orthogonal) for omega > 1, restated here so
    the check does not trust the program's own copy."""
    root = math.sqrt(omega)
    return math.exp(-0.5 * num_sensors * (root - 1.0) / (root + 1.0))


def check_crossing(rows, sweep, pipelines, num_sensors):
    """Orthogonal rows infeasible exactly where omega < 1; adaptive mean SNR
    at least both others; P(air wins) within 0.05 + 3 se of the limit law
    at every omega > 1 (test_08)."""
    points = _by_point(rows)
    failures = _expect_rows(points, sweep, pipelines)
    for omega, row in points.items():
        for pipeline, r in row.items():
            infeasible = pipeline == "orthogonal" and omega < 1
            if (r["feasible"] == INFEASIBLE) != infeasible:
                failures.append(f"omega={omega:g} {pipeline}: flagged {r['feasible']}")
        adaptive = row["adaptive"]["mean_effective_snr"]
        for pipeline in ("aircomp", "orthogonal"):
            other = row[pipeline]["mean_effective_snr"]
            if other is not None and adaptive < other:
                failures.append(f"omega={omega:g}: adaptive SNR {adaptive} < {pipeline} {other}")
        air = row["aircomp"]
        if omega > 1:
            predicted = crossing_probability(num_sensors, omega)
            slack = 0.05 + 3.0 * air["accuracy_stderr"]
            if abs(air["accuracy"] - predicted) > slack:
                failures.append(
                    f"omega={omega:g}: P(air wins) {air['accuracy']} vs limit {predicted:.4f} "
                    f"beyond {slack:.3g}"
                )
    return failures
