"""Spans around calls into tightci's layers, recorded from outside the package.

The tracer replaces each traced function at the module attribute through
which its caller looks it up (``tightci.harness.draw_mbcr``, not
``tightci.design.draw_mbcr``), records a span per call in memory, and puts
the original back on :meth:`Tracer.uninstall`.  A function that a later
version renames or removes is reported as missing instead of failing the run.
Forked pool workers inherit the wrappers but record nothing: only the
parent process's spans are kept.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
from time import perf_counter

# Span name -> (module, attribute path) of every place it is looked up.
TRACED = {
    "design.draw_mbcr": [("tightci.harness", "draw_mbcr")],
    "design.draw_bernoulli": [("tightci.harness", "draw_bernoulli")],
    "dgp.sample_population": [("tightci.harness", "sample_population")],
    "estimator.realize": [("tightci.harness", "ObservedData.realize")],
    "estimator.ht_mbcr": [("tightci.harness", "ht_mbcr")],
    "estimator.ht_standard": [("tightci.harness", "ht_standard")],
    "estimator.groupwise_sums": [("tightci.intervals", "groupwise_sums")],
    "intervals.studentized_ci": [("tightci.harness", "studentized_ci")],
    "intervals.clt_ci": [("tightci.harness", "clt_ci")],
    "intervals.hoeff_mbcr_ci": [("tightci.harness", "hoeff_mbcr_ci")],
    "intervals.sub_bernoulli_ci": [("tightci.harness", "sub_bernoulli_ci")],
    "intervals.naive_hoeffding_ci": [("tightci.harness", "naive_hoeffding_ci")],
    "harness.child_rng": [("tightci.harness", "child_rng")],
    "harness.chunk": [
        ("tightci.harness", "_coverage_chunk"),
        ("tightci.harness", "_rmse_chunk"),
    ],
    # Chunk scheduling, the process pool and the merge, seen by the parent.
    "harness.run_cells": [("tightci.harness", "_run_cells")],
    "harness.write_outputs": [("tightci.cli", "write_outputs")],
}
# Interval constructions whose width does not depend on the data.
CLOSED_FORM = {
    "intervals.hoeff_mbcr_ci",
    "intervals.sub_bernoulli_ci",
    "intervals.naive_hoeffding_ci",
}
POOL = ("tightci.harness", "ProcessPoolExecutor")
# Tail percentiles tried, highest first, in tenths of a percent.
TAIL_LADDER = (999, 990, 900, 500)


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.enabled = True
        # [name, start, end, parent span index, call index]
        self.spans: list[list] = []
        self.missing = sorted(
            name
            for name, places in TRACED.items()
            if all(_resolve(*place) is None for place in places)
        )
        if _resolve(*POOL) is None:
            self.missing.append("harness.pool")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.call = -1
        self.cell = None
        self.closed_form_pairs: set[tuple] = set()
        self.population_bytes = 0
        self.tasks = 0
        self.task_bytes = 0
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.enabled = False

    def install(self, call: int) -> None:
        """Wrap every traced function that exists; spans carry ``call``."""
        self.call = call
        for name, places in TRACED.items():
            for place in places:
                found = _resolve(*place)
                if found is None:
                    continue
                owner, attr, raw = found
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, raw))
        found = _resolve(*POOL)
        if found is not None:
            owner, attr, raw = found
            setattr(owner, attr, self._recording_pool(raw))
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._count(name, args)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, perf_counter(), 0.0, parent, tracer.call]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()

        return traced

    def _count(self, name: str, args: tuple) -> None:
        if name == "harness.chunk" and len(args) > 1:
            self.cell = getattr(args[1], "idx", None)
        elif name in CLOSED_FORM:
            self.closed_form_pairs.add((self.call, self.cell, name))
        elif name == "dgp.sample_population" and args:
            self.population_bytes += 16 * getattr(args[0], "n", 0)

    def _recording_pool(self, base):
        tracer = self

        class RecordingPool(base):
            def map(self, fn, *iterables, **kwargs):
                columns = [list(it) for it in iterables]
                if tracer.enabled and columns and columns[0]:
                    tracer.tasks += len(columns[0])
                    tracer.task_bytes = len(pickle.dumps(tuple(col[0] for col in columns)))
                return super().map(fn, *columns, **kwargs)

        return RecordingPool

    def closed_form_calls(self) -> int:
        return sum(1 for span in self.spans if span[0] in CLOSED_FORM)


def _rank(count: int, permille: int) -> int:
    """Nearest rank (1-based) of a percentile given in tenths of a percent."""
    return max(1, -(-count * permille // 1000))


def tail_permille(count: int) -> int:
    """Highest percentile of the ladder with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies, and the maximum
    (percentile 100) stands in.
    """
    for permille in TAIL_LADDER:
        if count - _rank(count, permille) >= 10:
            return permille
    return 1000


def summarize(tracer: Tracer, traced_calls: int, traced_wall: float) -> dict[str, dict]:
    """Per-function calls per simulate call, p50, tail and self share."""
    durations: dict[str, list[float]] = {name: [] for name in TRACED}
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(TRACED, 0.0)
    for (name, start, end, _, _), children in zip(tracer.spans, child_time):
        durations[name].append(end - start)
        self_time[name] += end - start - children
    out = {}
    for name, values in durations.items():
        values.sort()
        permille = tail_permille(len(values))
        per_call, rest = divmod(len(values), traced_calls)
        if name in tracer.missing:
            per_call = -1
        elif rest:
            per_call = len(values) / traced_calls
        out[name] = {
            "calls": per_call,
            "p50_ms": values[_rank(len(values), 500) - 1] * 1e3 if values else 0.0,
            "tail_ms": values[_rank(len(values), permille) - 1] * 1e3 if values else 0.0,
            "tail_pct": permille / 10,
            "samples": len(values),
            "self_share": self_time[name] / traced_wall,
        }
    return out
