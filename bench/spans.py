"""In-memory span tracing of mrtcat's public functions, applied from outside.

`installed(tracer)` rebinds every `mrtcat.*` module attribute that refers
to one of the functions in TRACED, so calls made through any import of
them (modules import each other by name, e.g. `from .numerics import
solve_spd`) record a span.  Nothing under `src/` is edited; the original
bindings are restored on exit.

A span is (id, name, start, end, parent, thread).  Parents come from a
thread-local stack.  While tracing, `simulate.run_monte_carlo` builds its
thread pool from a subclass whose worker threads start with the span that
created the pool on their stack, so replicate spans nest under the Monte
Carlo span on every thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple

TRACED = {
    "cli": ("main",),
    "_kvconfig": ("parse_kv_file",),
    "data": ("load_csv", "validate", "fit_numerator_probs"),
    "wcls": ("fit_wcls",),
    "inference": ("build_contrast", "wald_test", "confidence_intervals"),
    "numerics": ("solve_spd", "f_cdf", "f_quantile", "noncentral_f_cdf"),
    "design": ("build_v", "required_sample_size", "power_at_n", "inputs_from_config"),
    "simulate": ("simulate_trial", "run_monte_carlo"),
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Collects spans in memory; safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent: int | None) -> None:
        """Thread initializer: spans on this thread nest under `parent`."""
        self._local.stack = [] if parent is None else [parent]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident())
                )

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every mrtcat binding of the TRACED functions through `tracer`."""
    wrappers = {}
    for module, functions in TRACED.items():
        mod = importlib.import_module(f"mrtcat.{module}")
        for function in functions:
            original = getattr(mod, function)
            # Metric names may not start with '_': _kvconfig spans as kvconfig.
            name = f"{module.lstrip('_')}.{function}"
            wrappers[id(original)] = (original, tracer.wrap(name, original))

    class InheritingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(
                *args, initializer=tracer.adopt, initargs=(tracer.current(),), **kwargs
            )

    patched = []
    for name, mod in list(sys.modules.items()):
        if name != "mrtcat" and not name.startswith("mrtcat."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)][1])
    simulate = sys.modules["mrtcat.simulate"]
    patched.append((simulate, "ThreadPoolExecutor", simulate.ThreadPoolExecutor))
    simulate.ThreadPoolExecutor = InheritingPool
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanStats(NamedTuple):
    inclusive_s: dict[str, float]
    self_s: dict[str, float]
    calls: dict[str, int]
    durations: dict[str, list[float]]
    power_evals: int


def summarize(spans: list[Span]) -> SpanStats:
    """Per-name inclusive time, self time, call count and call durations.

    Self time is a span's duration minus the part of it covered by its
    children, which may overlap when they run on different threads.
    `power_evals` counts noncentral F evaluations made inside a sizing.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    power_evals = 0
    for s in spans:
        duration = s.end - s.start
        inclusive[s.name] += duration
        self_s[s.name] += duration - _covered(children.get(s.id, []), s.start, s.end)
        calls[s.name] += 1
        durations[s.name].append(duration)
        if s.name == "numerics.noncentral_f_cdf" and _has_ancestor(
            s, by_id, "design.required_sample_size"
        ):
            power_evals += 1
    return SpanStats(inclusive, self_s, calls, durations, power_evals)


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        if up.name == name:
            return True
        parent = up.parent
    return False
