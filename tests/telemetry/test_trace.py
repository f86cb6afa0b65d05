"""SpanTracer unit tests: nesting, the ring bound, trace inheritance."""

import pytest

from repro.telemetry.trace import SERVER_TRACK, Span, SpanTracer


class TestClock:
    def test_starts_at_zero_and_only_advance_moves_it(self):
        tracer = SpanTracer()
        assert tracer.clock == 0.0
        span = tracer.begin("noop", "call")
        tracer.end(span)
        assert tracer.clock == 0.0  # spans never charge
        tracer.advance(120.0)
        assert tracer.clock == 120.0

    def test_span_duration_is_charged_cycles(self):
        tracer = SpanTracer()
        span = tracer.begin("work", "call")
        tracer.advance(500.0)
        tracer.end(span)
        assert span.cycles == 500.0
        assert span.start == 0.0 and span.end == 500.0


class TestNesting:
    def test_child_inherits_parent_trace_and_id(self):
        tracer = SpanTracer()
        parent = tracer.begin("call", "call", "alice", trace_id=77)
        child = tracer.begin("bounds", "bounds", "alice")
        assert child.trace_id == 77
        assert child.parent_id == parent.span_id
        tracer.end(child)
        tracer.end(parent)
        assert parent.contains(child)

    def test_root_without_trace_mints_one(self):
        tracer = SpanTracer()
        first = tracer.begin("a", "call")
        tracer.end(first)
        second = tracer.begin("b", "call")
        tracer.end(second)
        assert first.trace_id != second.trace_id

    def test_unwound_children_close_with_ancestor(self):
        """Ending an outer span closes abandoned children at the same
        instant — the exception-unwind path stays well-nested."""
        tracer = SpanTracer()
        outer = tracer.begin("call", "call")
        inner = tracer.begin("patch", "patch")
        tracer.advance(100.0)
        tracer.end(outer)  # inner never explicitly ended
        assert tracer.open_spans == 0
        assert inner.end == outer.end == 100.0
        assert outer.contains(inner)

    def test_sequential_siblings_do_not_overlap(self):
        tracer = SpanTracer()
        parent = tracer.begin("call", "call")
        first = tracer.begin("critical", "critical")
        tracer.advance(40.0)
        tracer.end(first)
        second = tracer.begin("launch", "launch")
        tracer.advance(60.0)
        tracer.end(second)
        tracer.end(parent)
        assert first.end <= second.start
        assert parent.contains(first) and parent.contains(second)
        assert parent.cycles == 100.0


class TestRing:
    def test_ring_bound_drops_oldest(self):
        tracer = SpanTracer(capacity=4)
        for index in range(10):
            span = tracer.begin(f"s{index}", "call")
            tracer.end(span)
        retained = tracer.spans()
        assert len(retained) == 4
        assert [span.name for span in retained] == ["s6", "s7", "s8", "s9"]
        assert tracer.spans_dropped == 6

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_reset_clears_ring_and_counters(self):
        tracer = SpanTracer()
        tracer.end(tracer.begin("x", "call"))
        tracer.reset()
        assert tracer.spans() == []
        assert tracer.spans_dropped == 0


class TestEmit:
    def test_emit_records_on_arbitrary_track(self):
        tracer = SpanTracer()
        tracer.emit("copy", "device", "alice", track="gpu",
                    start=10.0, end=25.0, kind="h2d")
        span = tracer.spans()[-1]
        assert span.track == "gpu"
        assert span.cycles == 15.0
        assert span.attrs == {"kind": "h2d"}
        assert tracer.spans() == [span]

    def test_emit_keeps_explicit_trace_and_parent(self):
        tracer = SpanTracer()
        parent_id = tracer.emit("migrate", "migration", "a",
                                track="cluster", start=0.0, end=9.0,
                                trace_id=5)
        parent = tracer.spans()[-1]
        tracer.emit("snapshot", "migration", "a", track="cluster",
                    start=0.0, end=4.0, trace_id=5, parent_id=parent_id)
        child = tracer.spans()[-1]
        assert parent.span_id == parent_id
        assert child.trace_id == parent.trace_id == 5
        assert child.parent_id == parent.span_id

    def test_spans_for_filters_by_tenant(self):
        tracer = SpanTracer()
        tracer.emit("a", "call", "alice", track=SERVER_TRACK,
                    start=0, end=1)
        tracer.emit("b", "call", "bob", track=SERVER_TRACK,
                    start=1, end=2)
        assert [s.name for s in tracer.spans_for("alice")] == ["a"]


class TestLeaf:
    def _both(self, build):
        """The same program through begin/advance/end and through
        leaf; returns both tracers' retained spans and cursors."""
        out = []
        for use_leaf in (False, True):
            tracer = SpanTracer()

            def leaf(name, category, tenant, cycles, **attrs):
                if use_leaf:
                    return tracer.leaf(name, category, tenant, cycles,
                                       **attrs)
                span = tracer.begin(name, category, tenant, **attrs)
                tracer.advance(cycles)
                return tracer.end(span)

            build(tracer, leaf)
            out.append((tracer.spans(), tracer.clock, tracer.open_spans,
                        tracer.new_trace()))
        return out

    def test_leaf_is_begin_advance_end(self):
        def build(tracer, leaf):
            leaf("critical_section", "critical", "", 40.0, stalled=0.0)
            call = tracer.begin("launch_kernel", "call", "alice",
                                trace_id=tracer.new_trace())
            tracer.advance(3.0)
            leaf("bounds_check", "bounds", "alice", 150,
                 what="h2d", ok=True)
            leaf("launch", "launch", "alice", 9557.0, handle=7,
                 native=False)
            tracer.end(call)
            leaf("trace_replay", "launch", "bob", 0.0, ops=3)

        (plain, plain_clock, plain_open, plain_next), \
            (leaves, leaf_clock, leaf_open, leaf_next) = self._both(build)
        assert leaves == plain
        assert [span.attrs for span in leaves] == [
            span.attrs for span in plain]
        assert leaf_clock == plain_clock == 9750.0
        assert leaf_open == plain_open == 0
        assert leaf_next == plain_next  # trace ids minted alike
        call = next(span for span in leaves if span.category == "call")
        assert all(call.contains(span) for span in leaves
                   if span.parent_id == call.span_id)

    def test_span_owns_its_attrs(self):
        tracer = SpanTracer()
        attrs = {"kind": "h2d"}
        tracer.emit("copy", "device", "a", track="gpu", start=0.0,
                    end=1.0, **attrs)
        attrs["kind"] = "d2h"
        assert tracer.spans()[-1].attrs == {"kind": "h2d"}


class TestSpanValue:
    def test_equality_compares_every_field(self):
        first = Span(1, 2, None, "n", "call", "t", start=1.0, end=2.0,
                     attrs={"a": 1})
        twin = Span(1, 2, None, "n", "call", "t", SERVER_TRACK, 1.0, 2.0,
                    {"a": 1})
        assert first == twin
        twin.attrs["a"] = 2
        assert first != twin
        assert first != (1, 2, None)
        with pytest.raises(TypeError):
            hash(first)

    def test_defaults_and_repr(self):
        span = Span(1, 2, None, "n", "call", "t")
        assert (span.track, span.start, span.end, span.attrs) == (
            SERVER_TRACK, 0.0, 0.0, {})
        assert Span(1, 3, None, "n", "call", "t").attrs is not span.attrs
        assert repr(span).startswith("Span(trace_id=1, span_id=2, ")
        assert "attrs={}" in repr(span)


class TestContains:
    def test_containment_is_inclusive(self):
        outer = Span(1, 1, None, "o", "call", "t", start=0.0, end=10.0)
        inner = Span(1, 2, 1, "i", "bounds", "t", start=0.0, end=10.0)
        assert outer.contains(inner)
        inner.end = 10.5
        assert not outer.contains(inner)
