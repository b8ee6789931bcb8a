"""Spans around the public functions of each isea-sim layer.

The tracer replaces every binding of a traced function in every loaded
``isea_sim`` module, because the package imports functions by name:
``sample_channel``, for example, is bound in ``channel``, ``inference``,
``harness.experiments`` and the package itself.  Each call records a span
(name, start, end, parent, tag) in memory; ``write_spans`` writes them out
once the run has ended.  A span's self time is its duration minus the
durations of its direct children.

Worker processes of a pool keep their spans to themselves, so a run with
more than one worker yields only the parent-side pool span for the trial
layers; the benchmark takes the split inside the trials from a traced pass
at one worker over the same inputs.
"""

import concurrent.futures
import functools
import sys
import time
from array import array
from collections import defaultdict

from isea_sim import channel, feature_model, inference, scenario, streams, theory
from isea_sim.harness import experiments

PIPELINES = inference.PIPELINES


def _layers():
    """Span name for each traced function, and what to tag its span with."""
    layers = {
        scenario.build_scenario: ("scenario.build", None),
        streams.substream: ("streams.substream", None),
        feature_model.sample_label: ("feature_model.sample", None),
        feature_model.sample_local_features: ("feature_model.sample", None),
        channel.sample_channel: ("channel.sample", None),
        channel.aircomp_effective_snr: ("channel.air_snr", lambda a, k, r: r.degenerate),
        channel.orthogonal_effective_snr: ("channel.orth_snr", None),
        channel.aircomp_receive: ("channel.receive", None),
        channel.orthogonal_receive: ("channel.receive", None),
        channel.adaptive_receive: ("channel.receive", lambda a, k, r: r.resolved_mode),
        inference.run_trials: ("inference.run_trials", _run_trials_tag),
        experiments.run_experiment: ("harness.run_experiment", None),
    }
    for name, value in vars(theory).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and value.__module__.startswith("isea_sim")
        ):
            layers.setdefault(value, ("theory", None))
    return layers


def _run_trials_tag(args, kwargs, result):
    pipeline = args[1] if len(args) > 1 else kwargs["pipeline"]
    return pipeline, result.trials


class Tracer:
    """Spans in flat columns: a list of lists would make the cyclic garbage
    collector rescan every span and inflate the overhead being measured."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the parent span, or -1
        self.tags = []
        self._stack = []

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tags.append(None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index, tag=None):
        self.ends[index] = time.perf_counter()
        self.tags[index] = tag
        self._stack.pop()

    def wrap(self, fn, name, tag):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, tag(args, kwargs, result) if tag and result is not None else None)

        return traced

    def install(self):
        """Wrap every binding of the traced functions, and the process pool."""
        wrapped = {fn: self.wrap(fn, name, tag) for fn, (name, tag) in _layers().items()}
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "isea_sim":
                continue
            for attr, value in list(vars(module).items()):
                try:
                    replacement = wrapped.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(module, attr, replacement)
        tracer = self

        class TracedPool(concurrent.futures.ProcessPoolExecutor):
            """Times the parent side: construct, map and shut down."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("inference.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    tracer.close(self._span)

        # run_trials imports the executor from the package when it needs one.
        concurrent.futures.ProcessPoolExecutor = TracedPool

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\ttag\n")
            for span in zip(self.names, self.starts, self.ends, self.parents, self.tags):
                out.write("%s\t%.9f\t%.9f\t%d\t%s\n" % span)

    def summary(self):
        """Per-layer counts and times, named as in BENCHMARK.json."""
        names, parents, tags = self.names, self.parents, self.tags
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += duration[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        trials = defaultdict(int)
        trial_time = defaultdict(float)
        for i, name in enumerate(names):
            if name == "theory" and parents[i] >= 0 and names[parents[i]] == "theory":
                continue  # count a theory call once, at its outermost span
            calls[name] += 1
            total[name] += duration[i]
            self_time[name] += duration[i] - child_time[i]
            if name == "inference.run_trials":
                pipeline, count = tags[i]
                trials[pipeline] += count
                trial_time[pipeline] += duration[i]

        def per_call_us(name, seconds):
            return 1e6 * seconds / calls[name] if calls[name] else 0.0

        def share(values, predicate):
            return sum(map(predicate, values)) / len(values) if values else 0.0

        air = [t for n, t in zip(names, tags) if n == "channel.air_snr"]
        adaptive = [t for n, t in zip(names, tags) if n == "channel.receive" and t is not None]
        out = {
            "scenario.build.calls": calls["scenario.build"],
            "scenario.build.s": total["scenario.build"],
            "streams.substream.calls": calls["streams.substream"],
            "streams.substream.us": per_call_us("streams.substream", total["streams.substream"]),
            "feature_model.sample.calls": calls["feature_model.sample"],
            "feature_model.sample.us": per_call_us(
                "feature_model.sample", total["feature_model.sample"]
            ),
            "channel.sample.calls": calls["channel.sample"],
            "channel.sample.us": per_call_us("channel.sample", total["channel.sample"]),
            "channel.air_snr.us": per_call_us("channel.air_snr", total["channel.air_snr"]),
            "channel.orth_snr.us": per_call_us("channel.orth_snr", total["channel.orth_snr"]),
            "channel.receive.us": per_call_us("channel.receive", self_time["channel.receive"]),
            "channel.degenerate_ratio": share(air, bool),
            "channel.adaptive_air_share": share(adaptive, lambda mode: mode == "aircomp"),
            "inference.run_trials.calls": calls["inference.run_trials"],
            "inference.run_trials.s": total["inference.run_trials"],
            "inference.self.s": self_time["inference.run_trials"],
            "inference.pool.count": calls["inference.pool"],
            "inference.pool.s": total["inference.pool"],
            "theory.calls": calls["theory"],
            "theory.s": total["theory"],
            "harness.self.s": self_time["harness.run_experiment"],
        }
        for pipeline in PIPELINES:
            out[f"inference.us_per_trial.{pipeline}"] = (
                1e6 * trial_time[pipeline] / trials[pipeline] if trials[pipeline] else 0.0
            )
        return out
