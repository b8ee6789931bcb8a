"""isea-sim benchmark: CLI workloads, end-to-end metrics, a traced split.

Run every workload BENCHMARK.json lists, printing every metric by name with
its unit::

    python3 bench/run.py

One workload in one mode, the form BENCHMARK.json describes::

    python3 bench/run.py --workload mc-access --seed 20240 --seconds 55 --trace 0

``mc-noiseless`` runs only when named: its timings follow the shared host's
core speed too closely to carry a bound (see README.md).

Every run is a fresh ``python3 bench/child.py`` process that calls
``isea_sim.harness.cli.main`` on a config this script writes, so set-up
(interpreter start, ``import isea_sim``, config parse) is paid per run as a
user pays it.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See README.md beside this file.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

SETUP_SAMPLES = 9  # set-up is sampled at least this often per invocation
RUN_TIMEOUT_S = 120  # a run that takes longer is killed and counts as failed
CHUNK_TRIALS = 512  # run_trials splits trials into chunks of this size


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: dict
    sweep: tuple
    pipelines: tuple
    workers: int
    se_column: str  # standard error of the headline estimate
    check: object
    busy: tuple  # layer call counts the trace must find nonzero
    idle: tuple  # layer call counts the trace must find zero

    @property
    def trials(self):
        return self.config["mc_trials"]


TRIAL_LAYERS = (
    "scenario.build.calls",
    "streams.substream.calls",
    "feature_model.sample.calls",
    "inference.run_trials.calls",
    "theory.calls",
)

WORKLOADS = {
    # The trial engine with no channel: streams, feature_model, and the
    # logits and entropy in inference.  Not in BENCHMARK.json: too unsteady
    # on a shared host to carry a bound.
    "mc-noiseless": Workload(
        experiment="bounds",
        config=dict(feature_dim=10, num_classes=10, num_antennas=12, mc_trials=2000),
        sweep=tuple(range(1, 13)),
        pipelines=("noiseless",),
        workers=1,
        se_column="uncertainty_stderr",
        check=checks.check_bounds,
        busy=TRIAL_LAYERS,
        idle=("channel.sample.calls", "inference.pool.count"),
    ),
    # The slowest default experiment and the only one using the worker
    # pool: one executor per feasible (point, pipeline) cell, and a small
    # channel draw in every trial.
    "mc-access": Workload(
        experiment="sweep-n",
        config=dict(feature_dim=10, num_classes=10, num_sensors=10, mc_trials=1000),
        sweep=tuple(range(2, 21)),
        pipelines=("aircomp", "orthogonal", "adaptive"),
        workers=2,
        se_column="uncertainty_stderr",
        check=checks.check_access,
        busy=TRIAL_LAYERS + ("channel.sample.calls",),
        idle=(),
    ),
    # The channel layer inside LAPACK: Gram matrix, top eigenpair and
    # zero-forcing solve up to 400 x 100.  The default omega grid plus
    # omega = 1.05, where P(air wins) is near 1/2: there its standard error
    # is largest and flat in p, so time_to_se_s does not follow the seed.
    "channel-law": Workload(
        experiment="crossing",
        config=dict(feature_dim=10, num_classes=10, num_sensors=100, mc_trials=120),
        sweep=(0.25, 0.5, 0.75, 1.0, 1.05, 1.21, 1.44, 1.96, 4.0),
        pipelines=("aircomp", "orthogonal", "adaptive"),
        workers=1,
        se_column="accuracy_stderr",
        check=checks.check_crossing,
        busy=("scenario.build.calls", "streams.substream.calls", "channel.sample.calls", "theory.calls"),
        idle=("feature_model.sample.calls", "inference.run_trials.calls", "inference.pool.count"),
    ),
}


def _spawn(child_args, name):
    """Run bench/child.py once; returns its result dict plus rusage figures.

    wait4 reports the child's CPU time together with that of the pool
    workers it reaped, and the peak RSS of the largest of them.
    """
    result_path = OUT / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "--result", str(result_path), *child_args],
        stdout=subprocess.DEVNULL,
    )
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    result["exit_code"] = proc.returncode
    result["setup_s"] = result["setup_end"] - start if "setup_end" in result else None
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def _probe(config_path, meta=False):
    """Set up only, in a fresh process; returns set-up seconds (and metadata)."""
    result = _spawn(["--probe", str(config_path)] + (["--meta"] if meta else []), "probe")
    if result["exit_code"] != 0 or result["setup_s"] is None:
        raise RuntimeError(f"set-up failed with exit code {result['exit_code']}")
    return result


def _run(wl, name, config_path, seed, workers, trace):
    """One CLI run of a workload; returns its measurements and failures."""
    csv_path = OUT / f"{name}.csv"
    csv_path.unlink(missing_ok=True)
    spans = OUT / f"{name}.spans.tsv"
    cli_args = [
        wl.experiment,
        "--config", str(config_path),
        "--seed", str(seed),
        "--out", str(csv_path),
        "--workers", str(workers),
        "--sweep", ",".join(f"{v:g}" for v in wl.sweep),
        "--pipelines", ",".join(wl.pipelines),
    ]
    result = _spawn((["--trace", str(spans)] if trace else []) + ["--"] + cli_args, name)
    run = {
        "workers": workers,
        "traced": trace,
        "exit_code": result["exit_code"],
        "setup_s": result["setup_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "layers": result.get("layers"),
        "failures": [],
    }
    if result["exit_code"] != 0 or "end" not in result or not csv_path.exists():
        run["failures"].append(f"{name}: exit code {result['exit_code']}")
        return run
    text = csv_path.read_text(encoding="utf-8")
    run["csv"] = text
    run["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    run["wall_s"] = result["end"] - result["setup_end"]
    try:
        rows = checks.read_rows(text)
        run["failures"] += wl.check(rows, wl.sweep, wl.pipelines, wl.config.get("num_sensors"))
        worst_se = max(r[wl.se_column] for r in rows if r[wl.se_column] is not None)
        run["feasible_cells"] = sum(r["feasible"] != checks.INFEASIBLE for r in rows)
        run["trials"] = run["feasible_cells"] * wl.trials
        if wl.experiment == "crossing":
            run["trials"] = len({r["sweep_value"] for r in rows}) * wl.trials
            # crossing resolves its adaptive rows without adaptive_receive:
            # per draw it takes the larger SNR, so the share of adaptive
            # outcomes won by aircomp is the mean of P(air wins).
            run["air_share"] = statistics.fmean(
                r["accuracy"] for r in rows if r["pipeline"] == "aircomp"
            )
    except (KeyError, TypeError, ValueError) as exc:
        run["failures"].append(f"{name}: unreadable CSV ({exc!r})")
        return run
    run["trials_per_s"] = run["trials"] / run["wall_s"]
    run["time_to_se_s"] = run["wall_s"] * (worst_se / 0.01) ** 2
    return run


def _fill_window(wl, name, config_path, seed, seconds, started):
    """Untraced runs, at least one, for as long as another fits in the window."""
    runs = []
    while True:
        runs.append(_run(wl, f"{name}-{len(runs)}", config_path, seed, wl.workers, False))
        median_run = statistics.median((r.get("wall_s") or 0.0) + (r["setup_s"] or 0.0) for r in runs)
        if time.monotonic() - started + median_run > seconds:
            return runs


def _trace_checks(wl, traced, split, reference, layers):
    """Trace self-checks: identical CSVs, and calls exactly where predicted."""
    failures = []
    if traced.get("csv") != reference:
        failures.append("traced CSV differs from the untraced CSV")
    if split is not traced and split.get("csv") != reference:
        failures.append(f"workers=1 traced CSV differs from the workers={wl.workers} CSV")
    for name in wl.busy:
        if not layers[name]:
            failures.append(f"{name} is 0 where the workload does that work")
    for name in wl.idle:
        if layers[name]:
            failures.append(f"{name} is {layers[name]} where the workload does no such work")
    if wl.workers > 1 and wl.trials > CHUNK_TRIALS:
        cells = traced.get("feasible_cells")
        if layers["inference.pool.count"] != cells:
            failures.append(
                f"inference.pool.count {layers['inference.pool.count']} != {cells} feasible cells"
            )
    return failures


def measure(workload, seed, seconds, trace, spec):
    """Run one workload for about ``seconds``; returns the result record."""
    wl = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    # Transient files carry the workload's name only, so the next invocation
    # overwrites them; the results record carries the seed as well.
    config_path = OUT / f"{workload}.cfg"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in wl.config.items()))
    first = _probe(config_path, meta=True)  # also warms the file cache
    setups = [first["setup_s"]]
    started = time.monotonic()
    traced_runs = []
    if trace:
        traced = _run(wl, f"{workload}-traced", config_path, seed, wl.workers, True)
        split = traced  # the run that gives the split inside the trials
        if wl.workers > 1:
            split = _run(wl, f"{workload}-traced-w1", config_path, seed, 1, True)
        traced_runs = [traced] if split is traced else [traced, split]
    runs = _fill_window(wl, workload, config_path, seed, seconds, started)
    setups += [r["setup_s"] for r in runs if r["setup_s"] is not None]
    while len(setups) < SETUP_SAMPLES and not trace:
        setups.append(_probe(config_path)["setup_s"])

    all_runs = runs + traced_runs
    failures = [f for r in all_runs for f in r["failures"]]
    digests = {r["sha256"] for r in runs if "sha256" in r}
    if len(digests) > 1:
        failures.append("repeated runs at one seed wrote different CSVs")
    timed = [r for r in runs if "wall_s" in r]
    values = {
        "setup_s": statistics.median(setups),
        **{
            key: statistics.median(r[key] for r in timed)
            for key in ("wall_s", "trials_per_s", "cpu_s", "peak_rss_mb", "time_to_se_s")
        },
    } if timed else {}
    if trace:
        layers = dict(split["layers"] or {})
        for key in ("inference.pool.count", "inference.pool.s"):
            layers[key] = (traced["layers"] or {}).get(key, 0)
        if wl.experiment == "crossing":
            layers["channel.adaptive_air_share"] = split.get("air_share", 0.0)
        if traced["layers"] and split["layers"] and timed:
            failures += _trace_checks(wl, traced, split, runs[0].get("csv"), layers)
            layers["trace.overhead_ratio"] = traced["wall_s"] / values["wall_s"] - 1.0
        values.update(layers)
    failed = sum(bool(r["failures"]) for r in all_runs)
    if failures and not failed:
        failed = 1  # a check across runs failed; charge it to one run
    attempted = len(all_runs)
    values["fail_ratio"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    return {
        "workload": workload,
        "correct": not failures and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "values": values,
        "failures": failures,
        "runs": [{k: v for k, v in r.items() if k != "csv"} for r in all_runs],
        "setup_samples": setups,
        "meta": _metadata(first["meta"], seed),
        "sha256": sorted(digests),
    }


def _metadata(meta, seed):
    """Run metadata recorded next to the results; none of it is a metric."""
    try:  # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    src = ROOT / "src" / "isea_sim"
    return {
        **meta,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if "THREAD" in k},
        "git_revision": revision,
        "seed": seed,
        "source_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
    }


def _record_digest(record):
    """Remember each workload's CSV digest per seed; flag a change, which
    last-bit changes to the numerics may legitimately cause."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{record['workload']} seed={record['meta']['seed']}"
    for digest in record["sha256"]:
        if known.get(key, digest) != digest:
            print(f"note: {key} CSV sha256 changed from {known[key]} to {digest}")
        known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def _report(record, trace, units):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['meta']['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    _record_digest(record)
    for failure in record["failures"]:
        print(f"FAILED {record['workload']}: {failure}")
    # Every value measured, also those that are not this mode's metrics.
    for key, unit in units.items():
        if key in record["values"]:
            print(f"{record['workload']:>12}  {key:<34} {record['values'][key]:>14.6g} {unit}")
    runs = [r for r in record["runs"] if not r["traced"]]
    print(f"{record['workload']:>12}  ({len(runs)} timed runs, {len(record['setup_samples'])} set-ups, medians; details in {path.relative_to(ROOT)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer split; default both")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit value")
    if not (ROOT / "src" / "isea_sim" / "__init__.py").is_file():
        sys.exit(f"no isea_sim sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = [w["name"] for w in spec["workloads"]]
    workloads = listed if args.workload == "all" else [args.workload]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    records = []
    for workload in workloads:
        for trace in traces:
            try:
                record = measure(workload, args.seed, args.seconds, trace, spec)
            except RuntimeError as exc:
                sys.exit(f"{workload}: {exc}")
            _report(record, trace, units)
            records.append(record)
    meta = records[0]["meta"]
    print("meta " + json.dumps(meta, sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
