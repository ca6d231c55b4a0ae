"""Wall times corrected for drift in the host's speed.

On a shared host the speed of one core drifts by tens of percent within
a second, so raw wall times from runs minutes apart are hard to compare.
Fixed reference workloads, chunks, measure the host's speed. There are two
kinds, because a slow spell of the host does not slow all code alike:

- "interpreter": interns names in a dict and builds tuples and lists, like
  the program's parsing and graph building;
- "numeric": small numpy row operations in a Python loop, like the
  program's TransE updates, diffusion and scoring.

A measured call names the kind its work resembles. Chunks of both kinds
run after every measured call and, driven by an interval timer, every
SAMPLE_INTERVAL_S during it; the time spent in those is taken out of the
call's wall time. Once the run is over, each call's wall time is scaled by
the nominal chunk time of its kind over the median time of the chunks of
that kind that ran during the call, or, for a call too short to hold
MIN_INSIDE of them, that ran between calls within WINDOW_S of it. A corrected time reads
as the wall time on a host where a chunk takes its nominal time. The two
nominal times stand in the ratio of the two kinds' medians on an Intel
Xeon 2-vCPU virtual machine with Python 3.11 and numpy 2.4, so both kinds
read that host as equally fast.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from statistics import median
from typing import Callable, TypeVar

import numpy as np

NOMINAL_CHUNK_S = {"interpreter": 0.0004, "numeric": 0.000325}
CHUNK_NAMES = tuple(f"entity_{i:05d}" for i in range(600))
_rng = np.random.default_rng(0)
CHUNK_TABLE = _rng.standard_normal((300, 32))
CHUNK_ROWS = tuple(tuple(int(i) for i in row) for row in _rng.integers(0, 300, size=(40, 3)))
CHUNKS_AFTER_CALL = 10
SAMPLE_INTERVAL_S = 0.01
# Calls under about 0.1 s, such as single-user requests, are corrected from
# a window even when the host runs slow; the numeric stages take 0.15 s or
# more even when it runs fast, so a call never switches between the two.
MIN_INSIDE = 10
WINDOW_S = 0.5

T = TypeVar("T")


def interpreter_chunk() -> float:
    """Seconds one fixed chunk of interpreter work takes right now."""
    start = time.perf_counter()
    ids: dict[str, int] = {}
    rows = []
    for index, name in enumerate(CHUNK_NAMES):
        ids[name] = index
        rows.append((name, index, name[-3:]))
    groups: dict[str, list[tuple[int, int]]] = {}
    for name, index, tag in rows:
        groups.setdefault(tag, []).append((index, ids[name]))
    return time.perf_counter() - start


def numeric_chunk() -> float:
    """Seconds one fixed chunk of small numpy row updates takes right now."""
    start = time.perf_counter()
    for head, relation, tail in CHUNK_ROWS:
        diff = CHUNK_TABLE[head] + CHUNK_TABLE[relation] - CHUNK_TABLE[tail]
        CHUNK_TABLE[head] -= 1e-12 * float(np.dot(diff, diff)) * diff
    return time.perf_counter() - start


CHUNKS = {"interpreter": interpreter_chunk, "numeric": numeric_chunk}


class HostSpeed:
    """Measures calls; corrects their wall time for the host's speed.

    With sample_inside, chunks also run during each call, from a SIGALRM
    handler; the process must not use SIGALRM for anything else.
    """

    def __init__(self, sample_inside: bool = True) -> None:
        self.sample_inside = sample_inside
        self._sample_times: list[float] = []  # sample midpoints, ascending
        self._sample_seconds: list[float] = []  # both chunks of a sample
        self._chunk_seconds: dict[str, list[float]] = {kind: [] for kind in CHUNKS}
        self._in_call: list[bool] = []  # whether the sample ran inside a call
        self._calls: list[tuple[float, float, float, str]] = []  # start, end, chunk seconds inside, kind
        if sample_inside:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._sample(1, in_call=True))
        self._sample(CHUNKS_AFTER_CALL)

    def _sample(self, count: int, in_call: bool = False) -> None:
        """Run count samples, each one chunk of every kind."""
        for _ in range(count):
            start = time.perf_counter()
            for kind, chunk in CHUNKS.items():
                self._chunk_seconds[kind].append(chunk())
            end = time.perf_counter()
            self._sample_times.append((start + end) / 2)
            self._sample_seconds.append(end - start)
            self._in_call.append(in_call)

    def measure(self, fn: Callable[[], T], kind: str = "interpreter") -> tuple[T, int]:
        """Run fn, whose work resembles chunks of the given kind; return its
        result and the call's id.

        Garbage left by earlier calls is collected first, so a call pays
        only for the collections its own allocations trigger.
        """
        gc.collect()
        first = len(self._sample_seconds)
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(
            seconds
            for at, seconds in zip(self._sample_times[first:], self._sample_seconds[first:])
            if at <= end
        )
        self._calls.append((start, end, inside, kind))
        self._sample(CHUNKS_AFTER_CALL)
        return result, len(self._calls) - 1

    def factor(self, call: int) -> float:
        """How much slower than nominal the host ran during a call."""
        start, end, _, kind = self._calls[call]
        chunks = self._chunk_seconds[kind]
        lo = bisect.bisect_left(self._sample_times, start)
        hi = bisect.bisect_right(self._sample_times, end)
        if hi - lo < MIN_INSIDE:
            lo = bisect.bisect_left(self._sample_times, start - WINDOW_S)
            hi = bisect.bisect_right(self._sample_times, end + WINDOW_S)
            # Chunks inside calls run slower than between them, by an amount
            # that depends on the call, so a window takes only the latter.
            return median(chunks[i] for i in range(lo, hi) if not self._in_call[i]) / NOMINAL_CHUNK_S[kind]
        return median(chunks[lo:hi]) / NOMINAL_CHUNK_S[kind]

    def seconds(self, call: int) -> float:
        """The call's wall time without in-call chunks, corrected for the host's speed."""
        start, end, inside, _ = self._calls[call]
        return (end - start - inside) / self.factor(call)

    @property
    def calls(self) -> int:
        return len(self._calls)
