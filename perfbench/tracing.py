"""Outside-in tracing for the benchmark's traced run.

Spans are recorded only from the benchmark's side: each public name the
workloads reach is replaced, in every flgames module that binds it, by
a wrapper that opens a span around the call.  Nothing inside
``src/flgames`` is edited, and private helpers are never wrapped.

A span is (name, start, end, parent, op id), kept in flat arrays while
the run lasts and written out at the end.  A span's self time is its
duration minus the time its direct children cover; calls are nested and
single threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# span name -> (defining module, public names); every module of the
# package that binds one of these objects gets the wrapper
TARGETS = {
    "instances.generate": ("instances", ("random_instance",)),
    "solver.optimal": ("solver", ("optimal",)),
    "core.cost": ("core", ("outcome_cost", "outcome_agent_cost")),
    "verify.search": ("verify", ("find_unilateral_deviation", "find_group_deviation")),
    "verify.sweep": ("verify", ("iter_sweep",)),
    "cli": ("cli", ("main",)),
}
APPLY = "mechanisms.apply"
OP = "op"

# layer -> (reports calls and us_per_call, reports self_frac)
LAYERS = (
    ("instances.generate", True),
    ("solver.optimal", True),
    ("mechanisms.apply", True),
    ("core.cost", True),
    ("verify.search", False),
    ("verify.sweep", False),
    ("cli", False),
)


def _per_layer_units() -> dict:
    units = {}
    for layer, timed in LAYERS:
        if timed:
            units[f"{layer}.calls"] = "count"
            units[f"{layer}.us_per_call"] = "us/call"
        units[f"{layer}.self_frac"] = "frac"
    units["mechanisms.apply.distinct_outcome_frac"] = "frac"
    units["verify.apply_calls_per_op"] = "calls/op"
    units["verify.changed_outcome_frac"] = "frac"
    units["cli.stdout_bytes"] = "B/op"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER_UNITS = _per_layer_units()


class TraceTargetMissing(RuntimeError):
    """A public name the traced run wraps is gone from the package."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.op = -1
        self.search_depth = 0
        # (outcome, returned inside a search) for every apply of the op
        self.applies: list = []
        self.apply_distinct = 0
        self.search_applies = 0
        self.search_changed = 0
        self.stdout_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        self.applies.clear()
        return self.open(self.name_id(OP))

    def end_op(self, span: int, truthful) -> None:
        """Close the op span, then tally its apply outcomes untimed."""
        self.close(span)
        self.op = -1
        self.apply_distinct += len({outcome for outcome, _ in self.applies})
        for outcome, in_search in self.applies:
            if in_search:
                self.search_applies += 1
                self.search_changed += outcome != truthful

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, name: str, fn, search: bool = False):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            span = self.open(name_id)
            self.search_depth += search
            try:
                return fn(*args, **kwargs)
            finally:
                self.search_depth -= search
                self.close(span)

        return traced

    def wrap_rows(self, name: str, fn):
        """A generator function: one span per row handed out."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = fn(*args, **kwargs)
            while True:
                span = self.open(name_id) if self.op >= 0 else None
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        self.close(span)
                yield row

        return traced

    def wrap_apply(self, fn):
        name_id = self.name_id(APPLY)

        @functools.wraps(fn)
        def traced(spec, instance):
            if self.op < 0:
                return fn(spec, instance)
            span = self.open(name_id)
            try:
                outcome = fn(spec, instance)
            finally:
                self.close(span)
            self.applies.append((outcome, self.search_depth > 0))
            return outcome

        return traced

    def install(self, package: str = "flgames") -> None:
        """Wrap every target at each of its import sites.  Raises
        TraceTargetMissing when a defining module lacks a target."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for span_name, (module_name, attrs) in TARGETS.items():
            home = sys.modules.get(f"{package}.{module_name}")
            for attr in attrs:
                original = getattr(home, attr, None)
                if not callable(original):
                    raise TraceTargetMissing(f"{package}.{module_name}.{attr} is missing")
                if span_name == "verify.sweep":
                    wrapper = self.wrap_rows(span_name, original)
                else:
                    wrapper = self.wrap_call(span_name, original, search=span_name == "verify.search")
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound_name, wrapper)
        spec = getattr(sys.modules.get(f"{package}.mechanisms"), "MechanismSpec", None)
        if not callable(getattr(spec, "apply", None)):
            raise TraceTargetMissing(f"{package}.mechanisms.MechanismSpec.apply is missing")
        spec.apply = self.wrap_apply(spec.apply)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        durations = [end - start for start, end in zip(self.start, self.end)]
        covered = [0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                covered[parent] += duration
        return durations, [d - c for d, c in zip(durations, covered)]

    def layer_metrics(self, ops: int, untraced_busy_ns: int) -> dict:
        durations, selfs = self.self_times()
        calls = {name: 0 for name in self.names}
        total = dict(calls)
        own = dict(calls)
        for name_id, duration, self_ns in zip(self.span_name, durations, selfs):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += duration
            own[name] += self_ns
        busy = total[OP]
        metrics = {}
        for layer, timed in LAYERS:
            count = calls.get(layer, 0)
            if timed:
                metrics[f"{layer}.calls"] = count
                metrics[f"{layer}.us_per_call"] = total[layer] / count / 1e3 if count else 0.0
            metrics[f"{layer}.self_frac"] = own.get(layer, 0) / busy
        apply_calls = calls.get(APPLY, 0)
        metrics["mechanisms.apply.distinct_outcome_frac"] = (
            self.apply_distinct / apply_calls if apply_calls else 0.0
        )
        metrics["verify.apply_calls_per_op"] = apply_calls / ops
        metrics["verify.changed_outcome_frac"] = (
            self.search_changed / self.search_applies if self.search_applies else 0.0
        )
        metrics["cli.stdout_bytes"] = self.stdout_bytes / ops
        metrics["trace.overhead_frac"] = busy / untraced_busy_ns - 1
        return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def per_entry_us(self, op_entry: list, labels: list) -> dict:
        """Mean inclusive microseconds per op of each layer, per entry."""
        durations, _ = self.self_times()
        sums = [dict() for _ in labels]
        counts = [0] * len(labels)
        for e in op_entry:
            counts[e] += 1
        for name_id, op, duration in zip(self.span_name, self.span_op, durations):
            name = self.names[name_id]
            if op >= 0 and name != OP:
                bucket = sums[op_entry[op]]
                bucket[name] = bucket.get(name, 0) + duration
        return {
            label: {name: value / counts[e] / 1e3 for name, value in sums[e].items()}
            for e, label in enumerate(labels)
            if counts[e]
        }

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name_id, start, end, parent, op in zip(
                self.span_name, self.start, self.end, self.parent, self.span_op
            ):
                handle.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{op}\n")
