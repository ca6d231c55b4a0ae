"""Self-time arithmetic and wrapper bookkeeping of the benchmark's tracer."""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, percentile, root_of, self_times  # noqa: E402


def test_nested_spans_subtract_only_direct_children():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("middle", 1.0, 7.0, 0),
        Span("inner", 2.0, 5.0, 1),
    ]
    assert self_times(spans) == [4.0, 3.0, 3.0]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_sibling_spans_both_subtract_from_parent():
    spans = [
        Span("stage", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.5, 0),
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 4.5])


def test_overlapping_children_are_not_double_counted():
    spans = [Span("p", 0.0, 10.0, None), Span("a", 1.0, 6.0, 0), Span("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_root_and_percentile():
    spans = [Span("r", 0, 4, None), Span("c", 1, 3, 0), Span("g", 1.5, 2, 1)]
    assert root_of(spans, 2) == 0
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 99) == 99


def test_tracer_records_parents_and_restores_attributes():
    module = types.ModuleType("bench_fake_module")
    module.work = lambda x: x + 1
    module.helper = lambda: 7
    original_work, original_helper = module.work, module.helper
    sys.modules[module.__name__] = module
    try:
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.install("bench_fake_module.work", lambda fn: tracer.span_wrapper("layer.work", fn))
        tracer.install("bench_fake_module.helper", lambda fn: tracer.count_wrapper("calls", fn))
        tracer.install("bench_fake_module.absent", lambda fn: fn)
        outer = tracer.open("cli.stage")
        assert module.work(1) == 2
        assert module.helper() == 7
        tracer.close(outer)
        assert [(s.name, s.parent) for s in tracer.spans] == [("cli.stage", None), ("layer.work", 0)]
        assert tracer.counts["calls"] == 1
        assert tracer.missing_targets == ["bench_fake_module.absent"]
        tracer.uninstall()
        assert module.work is original_work and module.helper is original_helper
    finally:
        del sys.modules[module.__name__]


def test_closing_out_of_order_is_an_error():
    tracer = Tracer()
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)
