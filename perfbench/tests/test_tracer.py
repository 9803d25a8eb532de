import types

import pytest

from perfbench.tracer import Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_of_nested_spans():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 0),
        Span(2, "child", 1.0, 4.0, 1, 0),
        Span(3, "grandchild", 2.0, 3.0, 2, 0),
        Span(4, "child", 5.0, 6.0, 1, 0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 0),
        Span(2, "a", 1.0, 5.0, 1, 0),
        Span(3, "b", 3.0, 7.0, 1, 0),  # overlaps a, e.g. another thread
        Span(4, "c", 8.0, 12.0, 1, 0),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 2.0)
    assert own[2] == own[3] == own[4] == 4.0


def test_wrap_records_parents_ops_and_unwraps():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2

    class Thing:
        def method(self, x):
            return module.outer(x)

    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    tracer.wrap(Thing, "method", "layer.method")
    with tracer.span("op.test", op=7):
        assert Thing().method(1) == 4
    tracer.unwrap_all()
    assert Thing.method.__name__ == "method"
    assert not hasattr(module.inner, "__wrapped__")

    by_name = {span.name: span for span in tracer.spans}
    assert by_name["op.test"].parent is None
    assert by_name["layer.method"].parent == by_name["op.test"].sid
    assert by_name["layer.outer"].parent == by_name["layer.method"].sid
    assert by_name["layer.inner"].parent == by_name["layer.outer"].sid
    assert {span.op for span in tracer.spans} == {7}
    own = self_times(tracer.spans)
    assert own[by_name["layer.inner"].sid] == 1.0
    assert own[by_name["op.test"].sid] == 2.0


def test_dropped_span_leaves_no_record():
    tracer = Tracer()
    tracer.open("kept")
    tracer.open("dropped")
    tracer.close(record=False)
    tracer.close()
    assert [span.name for span in tracer.spans] == ["kept"]
