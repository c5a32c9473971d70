"""In-memory spans around the calls one zeromode module makes into another.

The benchmark traces from the outside: while a traced pass runs, each
public name in ``BOUNDARIES`` is replaced, in the module whose global the
caller looks it up in, by a wrapper that records a span (name, start, end,
parent) and then calls the original.  Every name is restored when the pass
ends, whatever happened inside it.  A boundary whose module or name no
longer exists is recorded as absent instead of failing the run, so its
metrics drop out of the report rather than crashing it.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _allen_cahn_steps(call, result) -> float:
    return float(call.arguments["n_steps"])


def _written_bytes(call, result) -> float:
    dataset = call.arguments["dataset"]
    return float(dataset.data.size * dataset.precision.dtype.itemsize)


def _read_bytes(call, result) -> float:
    return float(result.data.size * result.precision.dtype.itemsize)


# (module the caller looks the name up in, attribute, span name, work counter)
# The span name is "<layer>.<function>", the layer being the module that
# defines the function.  Work counters read the bound call and its result.
BOUNDARIES = [
    ("zeromode.datasets", "solve_allen_cahn", "solvers.solve_allen_cahn", _allen_cahn_steps),
    ("zeromode.datasets", "solve_shallow_water", "solvers.solve_shallow_water", None),
    ("zeromode.datasets", "solve_diffusion_exact", "solvers.exact", None),
    ("zeromode.datasets", "solve_convdiff_exact", "solvers.exact", None),
    ("zeromode.datasets", "solve_heat_neumann", "solvers.exact", None),
    ("zeromode.datasets", "chebyshev_ic", "initial_conditions", None),
    ("zeromode.datasets", "grf_ic", "initial_conditions", None),
    ("zeromode.datasets", "generate_dataset", "datasets.generate_dataset", None),
    ("zeromode.datafile", "write_dataset", "datafile.write_dataset", _written_bytes),
    ("zeromode.datafile", "read_dataset", "datafile.read_dataset", _read_bytes),
    ("zeromode.training", "loss_and_grad", "model.loss_and_grad", None),
    ("zeromode.training", "forward_values", "model.forward_values", None),
    ("zeromode.model", "gelu", "model.gelu", None),
    ("zeromode.model", "gelu_grad", "model.gelu_grad", None),
    ("zeromode.model", "save_checkpoint", "model.save_checkpoint", None),
    ("zeromode.model", "load_checkpoint", "model.load_checkpoint", None),
    ("zeromode.training", "adamw_step", "optim.adamw_step", None),
    ("zeromode.training", "pin_channel_means", "correction.pin_channel_means", None),
    ("zeromode.training", "train", "training.train", None),
    ("zeromode.training", "rollout", "training.rollout", None),
    ("zeromode.metrics", "emit_report", "metrics.emit_report", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    group: int  # the traced pass that recorded it
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the benchmark's own code and from wrapped names."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = list(boundaries)
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.group = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.group)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, fn, name: str, work):
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if work:
                    span.work = work(signature.bind(*args, **kwargs), result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        try:
            for module_name, attr, name, work in self.boundaries:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(fn, name, work))
                self._patched.append((module, attr, fn))
            yield self
        finally:
            while self._patched:
                module, attr, fn = self._patched.pop()
                setattr(module, attr, fn)

    def absent_spans(self) -> set[str]:
        """Span names none of whose boundaries could be wrapped."""
        present = {name for module, attr, name, _ in self.boundaries
                   if f"{module}.{attr}" not in self.absent}
        return {name for _, _, name, _ in self.boundaries} - present

    def stats(self, groups: list[int]) -> dict[str, "SpanStats"]:
        """Per span name: calls, busy and self time per traced pass, call times."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        out: dict[str, SpanStats] = {}
        for index, span in enumerate(self.spans):
            st = out.setdefault(span.name, SpanStats(groups))
            st.calls[span.group] += 1
            st.busy[span.group] += span.duration
            st.self_time[span.group] += span.duration - child_time[index]
            st.work += span.work
            st.durations.append(span.duration)
        return out

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.group, s.work] for s in self.spans]


class SpanStats:
    """Aggregates of one span name over the traced passes."""

    def __init__(self, groups: list[int]):
        self.calls = {g: 0 for g in groups}
        self.busy = {g: 0.0 for g in groups}
        self.self_time = {g: 0.0 for g in groups}
        self.work = 0.0
        self.durations: list[float] = []

    @property
    def calls_per_pass(self) -> float:
        return sum(self.calls.values()) / len(self.calls)

    @property
    def busy_s(self) -> float:
        return statistics.median(self.busy.values())

    @property
    def self_s(self) -> float:
        return statistics.median(self.self_time.values())

    @property
    def total_busy(self) -> float:
        return sum(self.busy.values())

    def call_ms(self, q: int) -> float:
        """q-th percentile of single-call time in ms (nearest rank)."""
        ordered = sorted(self.durations)
        rank = max(0, -(-q * len(ordered) // 100) - 1)
        return 1e3 * ordered[rank]
