"""In-memory spans and counters recorded from outside the program.

A wrapper is installed on the attribute a caller looks up (a module global
such as ``kgsr.training.diffuse`` or a class attribute such as
``KnowledgeGraph.neighbors``), so the program's own files stay untouched.
Each wrapped call records a span (name, start, end, parent). Hot methods
get a counting wrapper instead, because a span per call would cost more
than the work it measures. ``self_times`` turns spans into self time: a
span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Records spans and counters; installs and removes its wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.values: dict[str, list[float]] = {}
        self.missing_targets: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(tracer, result) sees each return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn, observe=None):
        """Count calls without a span; observe(tracer, result) as above."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def install(self, target: str, make_wrapper: Callable[[object], object]) -> None:
        """Replace ``module[:Class].attribute`` with make_wrapper(original).

        A target that does not exist is listed in missing_targets instead
        of failing, so a renamed boundary shows up as a missing metric.
        """
        owner_path, _, attribute = target.rpartition(".")
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            self.missing_targets.append(target)
            return
        setattr(owner, attribute, make_wrapper(original))
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


# -- arithmetic ----------------------------------------------------------------


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        kids = children.get(index, ())
        covered = _covered(((spans[k].start, spans[k].end) for k in kids), span.start, span.end)
        result.append((span.end - span.start) - covered)
    return result


def root_of(spans: Sequence[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
