"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``crucial`` by rebinding each name where
its callers look it up (every ``crucial.*`` module attribute bound to the
function, class attributes for methods, the ``SUITES`` table for property
suites).  Nothing under ``src/`` changes and the wrappers return exactly what
the wrapped function returns, so traced outputs are byte-identical.

Each span records (id, name, start, end, parent, thread id, aggregated child
time).  Functions called about 10^5 times per run are aggregated into a call
count plus summed total and self time instead of one span per call; they
call no spanned function, so they never sit between a span and its parent.  Work
submitted to the sampler's thread pool has no parent on its own thread; it is
parented to the enclosing ``mc_expected_errors`` span.

A span's self time is its duration minus the part of its interval covered by
child spans (the union, so two pool threads overlapping in time are not
subtracted twice) minus the time of aggregated calls made directly under it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

MODEL_KINDS = ("linear", "mlp", "elman_rnn")
SUITE_NAMES = (
    "lambert_w_residual", "lambert_w_monotonic", "erfc_reflection",
    "loss_stats_invariance", "kappa_argmin_oracle", "property1_translation",
    "property2_homogeneity", "property3_unit_confidence",
    "property4_differentiated_scaling", "sin_period_identity", "kappa_bounds",
    "gradient_finite_difference", "csv_round_trip",
)
# The highest train_epoch percentile with at least ten epochs beyond it on
# both training workloads (800 and 720 epochs per pass).
EPOCH_PERCENTILE = 95


class Tracer:
    """Holds spans and aggregates in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.aggregates: dict[str, list] = {}   # name -> [calls, total_s, self_s, hits]
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._counter_lock = threading.Lock()   # counters are also updated from pool threads
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name, *, name_of=None, parents_pool=False, counts=None):
        """Wrap fn so each call records one span.

        name_of(args) picks the span name per call; parents_pool makes this
        span the parent of pool-thread work started inside it; counts(args,
        result) returns {counter: amount} to add to the tracer's counters.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else self._pool_parent
            label = name_of(args) if name_of else name
            frame = [sid, 0.0, 0.0]      # id, all same-thread child time, aggregated child time
            stack.append(frame)
            if parents_pool:
                saved, self._pool_parent = self._pool_parent, sid
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                if parents_pool:
                    self._pool_parent = saved
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((sid, label, start, end, parent,
                                   threading.get_ident(), frame[2]))
            if counts is not None:
                with self._counter_lock:
                    for key, amount in counts(args, result).items():
                        self.counters[key] += amount
            return result
        return traced

    def aggregate(self, fn, name, *, hit=None):
        """Wrap a hot fn: count calls, sum total and self time, count hit(result).

        Only for functions called from one thread: the record is updated without a lock.
        """
        rec = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])

        def counted(*args, **kwargs):
            stack = self._stack()
            frame = [None, 0.0, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if hit is not None and hit(result):
                rec[3] += 1
            return result
        return counted

    def rebind_function(self, modules, original, wrapped) -> None:
        """Point every module attribute bound to original at wrapped."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def rebind_attr(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def rebind_item(self, table: dict, key, wrapped) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = wrapped

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tid, agg in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": tid}) + "\n")
            for name, (calls, total, self_s, hits) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_s": total,
                                     "self_s": self_s, "hits": hits}) + "\n")


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> self time: duration minus child-span coverage and aggregated child time."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _tid, _agg in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _tid, agg in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - covered_length(clipped) - agg
    return out


def summarize(spans) -> dict:
    """Span name -> {calls, total_s, self_s, durations}."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for sid, name, start, end, _parent, _tid, _agg in spans:
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[sid]
        entry["durations"].append(end - start)
    return by_name


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def install(tracer: Tracer) -> None:
    """Wrap every instrumented function of an imported crucial package."""
    from crucial import cli, data, loss, numerics, properties, sampler, trainer

    modules = [m for name, m in sys.modules.items() if name == "crucial" or name.startswith("crucial.")]

    def fn_span(mod, attr, **kw):
        original = getattr(mod, attr)
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        tracer.rebind_function(modules, original, tracer.span(original, name, **kw))

    def fn_agg(mod, attr, **kw):
        original = getattr(mod, attr)
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        tracer.rebind_function(modules, original, tracer.aggregate(original, name, **kw))

    fn_agg(numerics, "lambert_w0")
    fn_agg(loss, "kappa_star", hit=lambda k: k == loss.KAPPA_CAP)
    fn_agg(loss, "crucial_adp")
    fn_agg(loss, "crucial_sin", hit=lambda m: m.selected)
    fn_span(numerics, "loss_stats")
    fn_span(loss, "advance_epoch_adp")
    fn_span(loss, "write_loss_trace", counts=lambda a, r: {
        "write_loss_trace.rows": len(a[1]), "write_loss_trace.bytes": os.path.getsize(a[0])})

    for attr in ("featurize", "forward_backward", "train_epoch", "evaluate", "train_model",
                 "run_continuous", "write_metrics_csv", "write_transfer_json"):
        fn_span(trainer, attr)
    for cls in (trainer.LinearModel, trainer.MLPModel, trainer.ElmanRNN):
        tracer.rebind_attr(cls, "forward_with_cache", tracer.span(
            cls.forward_with_cache, f"trainer.forward_with_cache.{cls.kind}"))
        tracer.rebind_attr(cls, "per_sample_grads", tracer.span(
            cls.per_sample_grads, f"trainer.per_sample_grads.{cls.kind}",
            counts=lambda a, r: {"per_sample_grads.bytes": r.nbytes}))

    fn_span(sampler, "compare_conditions")
    fn_span(sampler, "analytic_expected_errors")
    original = sampler.mc_expected_errors
    tracer.rebind_function(modules, original, tracer.span(
        original, "sampler.mc_expected_errors", parents_pool=True,
        name_of=lambda a: "sampler.mc_expected_errors." + (
            "u" if a[1].mode is sampler.SelectionMode.UNIFORM else "p")))
    for attr in ("_uniform_chunk", "_tilted_chunk"):
        original = getattr(sampler, attr)
        tracer.rebind_function(modules, original, tracer.span(original, "sampler.chunk"))
    for attr in ("quantile", "tilted_quantile"):
        tracer.rebind_attr(sampler.LossPopulation, attr, tracer.span(
            getattr(sampler.LossPopulation, attr), f"sampler.LossPopulation.{attr}",
            counts=lambda a, r: {"sampler.draws": r.size}))
    tracer.rebind_attr(sampler.LossPopulation, "log_tilt_ratio", tracer.span(
        sampler.LossPopulation.log_tilt_ratio, "sampler.LossPopulation.log_tilt_ratio"))

    for attr in ("gen_sine_regression", "gen_drift_classification", "make_prefixes"):
        fn_span(data, attr)
    fn_span(data, "save_csv", counts=lambda a, r: {"save_csv.rows": len(a[1].samples)})
    fn_span(data, "load_csv", counts=lambda a, r: {
        "load_csv.rows": len(r.dataset.samples) + len(r.rejected)})

    fn_span(properties, "run_suites")
    for name, suite in list(properties.SUITES.items()):
        tracer.rebind_item(properties.SUITES, name, tracer.span(suite, f"properties.suite.{name}"))
    fn_span(cli, "main")
    # A command's self time is CLI code that no traced function accounts for
    # (building trace rows, writing aggregate.csv and reports, untraced
    # helpers); it is reported as cli.unattributed_s.
    for name, command in list(cli._COMMANDS.items()):
        tracer.rebind_item(cli._COMMANDS, name, tracer.span(command, "cli.command"))


# Per-layer metrics: (name, unit).  Names are <module>.<function>.<stat>.
PER_LAYER = (
    [("numerics.lambert_w0.calls", "count"), ("numerics.lambert_w0.self_s", "s"),
     ("numerics.loss_stats.calls", "count"), ("numerics.loss_stats.self_s", "s")]
    + [(f"loss.{f}.{stat}", unit)
       for f in ("crucial_adp", "crucial_sin", "kappa_star", "advance_epoch_adp")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("loss.kappa_star.capped_frac", "frac"), ("loss.crucial_sin.selected_frac", "frac"),
       ("loss.write_loss_trace.self_s", "s"), ("loss.write_loss_trace.rows", "count"),
       ("loss.write_loss_trace.mb", "MB")]
    + [(f"trainer.{f}.self_s", "s") for f in ("featurize", "forward_backward", "train_epoch", "evaluate",
                                               "train_model", "run_continuous", "write_metrics_csv",
                                               "write_transfer_json")]
    + [(f"trainer.{f}.{kind}.self_s", "s") for f in ("forward_with_cache", "per_sample_grads")
       for kind in MODEL_KINDS]
    + [("trainer.per_sample_grads.mb_computed", "MB"), ("trainer.train_epoch.calls", "count"),
       ("trainer.train_epoch.ms_p50", "ms"), (f"trainer.train_epoch.ms_p{EPOCH_PERCENTILE}", "ms")]
    + [(f"sampler.{f}.{stat}", unit)
       for f in ("compare_conditions", "mc_expected_errors.u", "mc_expected_errors.p",
                 "analytic_expected_errors")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"sampler.LossPopulation.{f}.self_s", "s") for f in ("quantile", "tilted_quantile", "log_tilt_ratio")]
    + [("sampler.chunk.self_s", "s"), ("sampler.draws", "count")]
    + [(f"data.{f}.self_s", "s") for f in ("gen_sine_regression", "gen_drift_classification", "make_prefixes")]
    + [(f"data.{f}.{stat}", unit) for f in ("save_csv", "load_csv")
       for stat, unit in (("self_s", "s"), ("rows_per_s", "rows/s"))]
    + [("properties.run_suites.self_s", "s"), ("properties.suites.self_s", "s")]
    + [(f"properties.suite.{name}.s", "s") for name in SUITE_NAMES]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
       ("cli.unattributed_s", "s"), ("cli.trace_overhead_s", "s")]
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass; trace_overhead_s is left to the caller."""
    by_name = summarize(tracer.spans)
    agg = tracer.aggregates
    c = tracer.counters

    def calls(name):
        if name in agg:
            return agg[name][0]
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        if name in agg:
            return agg[name][2]
        return by_name.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    epochs_ms = [d * 1e3 for d in by_name.get("trainer.train_epoch", {}).get("durations", [])]
    values = {
        "loss.kappa_star.capped_frac": ratio(agg.get("loss.kappa_star", [0, 0, 0, 0])[3], calls("loss.kappa_star")),
        "loss.crucial_sin.selected_frac": ratio(agg.get("loss.crucial_sin", [0, 0, 0, 0])[3], calls("loss.crucial_sin")),
        "loss.write_loss_trace.rows": c["write_loss_trace.rows"],
        "loss.write_loss_trace.mb": c["write_loss_trace.bytes"] / 1e6,
        "trainer.per_sample_grads.mb_computed": c["per_sample_grads.bytes"] / 1e6,
        "trainer.train_epoch.ms_p50": statistics.median(epochs_ms) if epochs_ms else 0.0,
        f"trainer.train_epoch.ms_p{EPOCH_PERCENTILE}": percentile(epochs_ms, EPOCH_PERCENTILE),
        "sampler.draws": c["sampler.draws"],
        "data.save_csv.rows_per_s": ratio(c["save_csv.rows"], total_s("data.save_csv")),
        "data.load_csv.rows_per_s": ratio(c["load_csv.rows"], total_s("data.load_csv")),
        "properties.suites.self_s": sum((v["self_s"] for k, v in by_name.items()
                                         if k.startswith("properties.suite.")), 0.0),
        "cli.unattributed_s": self_s("cli.command"),
        "cli.trace_overhead_s": 0.0,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        stem, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = calls(stem)
        elif stat == "self_s":
            values[name] = self_s(stem)
        elif stat == "s":
            values[name] = total_s(stem)
        else:
            raise KeyError(name)
    return values
