"""``SpanTracer`` against a frozen copy of the tracer it replaced.

The tracer now keeps retired spans as tuples and makes ``Span`` objects
only when read; the IPC's call span opens and closes without a ``Span``
(``open``/``close``), and batches of raw spans go in through
``emit_all``. None of that may change what is read back: every field of
every retained span, dict order included, the drop and finish counts,
the open-span depth, the cursor and the trace ids minted. A hypothesis
program drives both tracers through begin / open / advance / leaf /
emit / emit_all / out-of-order end / attrs set after the end /
new_trace / reset at ring capacities 1-8, and compares them after every
step. Ending a span that is no longer open is the one place the two
differ, and ``TestClosedSpan`` pins what the tracer does there.
"""

import itertools
from collections import deque
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.telemetry.trace import SERVER_TRACK, Span, SpanTracer

# -- the reference: the object-per-span tracer, kept verbatim ----------------


class ReferenceTracer:
    """A bounded ring of finished spans plus the open-span stack."""

    def __init__(self, capacity: int = 65_536):
        if capacity < 1:
            raise ValueError(f"bad span capacity {capacity}")
        self.capacity = capacity
        #: The cycle cursor. Advanced only by :meth:`advance` — i.e. by
        #: the server's ``_charge`` — so span durations are charged
        #: cycles, not wall time.
        self.clock = 0.0
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._stack: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: Total spans ever finished (ring length + dropped).
        self.spans_finished = 0

    # -- the clock ---------------------------------------------------------------

    def advance(self, cycles: float) -> None:
        """Move the cursor by ``cycles`` of charged work."""
        self.clock += cycles

    def new_trace(self) -> int:
        """A fresh trace id (one per client call, minted at the IPC
        boundary and carried through every span the call produces)."""
        return next(self._trace_ids)

    # -- nested spans (the server dispatch path) ---------------------------------

    def begin(self, name: str, category: str, tenant: str = "",
              trace_id: Optional[int] = None, **attrs) -> Span:
        """Open a span at the current cursor.

        With ``trace_id=None`` the span inherits the enclosing span's
        trace (how a bounds-check span ends up in its call's trace);
        a root span with no trace id mints its own.
        """
        parent = self._stack[-1] if self._stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent else self.new_trace()
        # ``attrs`` is this call's own dict: the span takes it as is.
        span = Span(trace_id, next(self._span_ids),
                    parent.span_id if parent else None, name, category,
                    tenant, SERVER_TRACK, self.clock, 0.0, attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` at the current cursor and retire it to the
        ring. Closing out of order (an exception unwound past open
        children) closes the children too, at the same instant."""
        while self._stack:
            top = self._stack.pop()
            top.end = self.clock
            self._retire(top)
            if top is span:
                return span
        # Not on the stack (already closed defensively): record as-is.
        span.end = max(span.end, self.clock)
        return span

    def leaf(self, name: str, category: str, tenant: str, cycles: float,
             **attrs) -> Span:
        """``begin`` + ``advance(cycles)`` + ``end`` in one step: the
        span of a hook that wraps exactly one charge (a critical
        section, a bounds check, a launch, a trace replay). It opens
        nothing, so it can never be left open."""
        stack = self._stack
        start = self.clock
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self.new_trace(), None
        self.clock = end = start + cycles
        span = Span(trace_id, next(self._span_ids), parent_id, name,
                    category, tenant, SERVER_TRACK, start, end, attrs)
        self._retire(span)
        return span

    # -- raw spans (client / device / cluster axes) -------------------------------

    def emit(self, name: str, category: str, tenant: str, track: str,
             start: float, end: float, trace_id: Optional[int] = None,
             parent_id: Optional[int] = None, **attrs) -> Span:
        """Record an already-timed span on an arbitrary track."""
        span = Span(self.new_trace() if trace_id is None else trace_id,
                    next(self._span_ids), parent_id, name, category, tenant,
                    track, start, end, attrs)
        self._retire(span)
        return span

    def _retire(self, span: Span) -> None:
        self._ring.append(span)
        self.spans_finished += 1

    # -- reads -------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Retained spans, oldest first."""
        return list(self._ring)

    def spans_for(self, tenant: str) -> list[Span]:
        return [span for span in self._ring if span.tenant == tenant]

    @property
    def spans_dropped(self) -> int:
        """Spans lost to the ring bound."""
        return self.spans_finished - len(self._ring)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def reset(self) -> None:
        self._ring.clear()
        self._stack.clear()
        self.spans_finished = 0


# -- the program --------------------------------------------------------------

NAMES = ("call", "bounds_check", "launch", "copy")
CATEGORIES = ("call", "bounds", "device", "queue")
TENANTS = ("", "alice", "bob")
TRACKS = (SERVER_TRACK, "gpu", "client:alice", "cluster")

cycles = st.sampled_from([0.0, 1.0, 2.5, 40.0, 150, 1e6])
attrs = st.dictionaries(st.sampled_from(["kind", "ok", "size"]),
                        st.integers(0, 3), max_size=2)
maybe_trace = st.none() | st.integers(1, 4)

steps = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(NAMES),
              st.sampled_from(CATEGORIES), st.sampled_from(TENANTS),
              maybe_trace, attrs, st.booleans()),
    st.tuples(st.just("advance"), cycles),
    st.tuples(st.just("leaf"), st.sampled_from(NAMES),
              st.sampled_from(CATEGORIES), st.sampled_from(TENANTS),
              cycles, attrs),
    st.tuples(st.just("emit"), st.sampled_from(NAMES),
              st.sampled_from(CATEGORIES), st.sampled_from(TENANTS),
              st.sampled_from(TRACKS), cycles, cycles, maybe_trace,
              st.integers(0, 8), attrs),
    st.tuples(st.just("emit_all"), st.sampled_from(CATEGORIES),
              st.sampled_from(TRACKS),
              st.lists(st.tuples(st.sampled_from(NAMES),
                                 st.sampled_from(TENANTS), cycles, cycles,
                                 maybe_trace, attrs), max_size=4)),
    # End the k-th span still open, at any depth.
    st.tuples(st.just("end"), st.integers(0, 8)),
    # Set an attr on the k-th span begun, as the IPC does after end.
    st.tuples(st.just("set_attr"), st.integers(0, 8),
              st.sampled_from(["server_cycles", "error"]), cycles),
    st.tuples(st.just("new_trace")),
    st.tuples(st.just("reset")),
)


def fields(span: Span) -> tuple:
    return tuple(getattr(span, name) for name in Span.__slots__) + (
        list(span.attrs.items()),)


def assert_same(new: SpanTracer, old: ReferenceTracer) -> None:
    assert [fields(span) for span in new.spans()] == [
        fields(span) for span in old.spans()]
    for tenant in TENANTS:
        assert [fields(span) for span in new.spans_for(tenant)] == [
            fields(span) for span in old.spans_for(tenant)]
    assert new.spans_dropped == old.spans_dropped
    assert new.spans_finished == old.spans_finished
    assert new.open_spans == old.open_spans
    assert new.clock == old.clock


def run(capacity: int, program: list) -> None:
    new, old = SpanTracer(capacity), ReferenceTracer(capacity)
    #: Per begun span: (new handle, its attrs dict, reference Span).
    begun = []
    #: Span ids emit returned, for later parent ids.
    emitted = []
    for step in program:
        kind = step[0]
        if kind == "begin":
            _, name, category, tenant, trace_id, extra, via_open = step
            span = old.begin(name, category, tenant, trace_id=trace_id,
                             **extra)
            if via_open:
                mine = dict(extra)
                handle = new.open(name, category, tenant, trace_id, mine)
            else:
                handle = new.begin(name, category, tenant,
                                   trace_id=trace_id, **extra)
                mine = handle.attrs
                assert fields(handle) == fields(span)
            begun.append((handle, mine, span))
        elif kind == "advance":
            new.advance(step[1])
            old.advance(step[1])
        elif kind == "leaf":
            _, name, category, tenant, amount, extra = step
            assert new.leaf(name, category, tenant, amount, **extra) is None
            old.leaf(name, category, tenant, amount, **extra)
        elif kind == "emit":
            (_, name, category, tenant, track, start, end, trace_id,
             parent, extra) = step
            parent_id = emitted[parent % len(emitted)] if emitted else None
            span_id = new.emit(name, category, tenant, track, start, end,
                               trace_id=trace_id, parent_id=parent_id,
                               **extra)
            span = old.emit(name, category, tenant, track, start, end,
                            trace_id=trace_id, parent_id=parent_id, **extra)
            assert span_id == span.span_id
            emitted.append(span_id)
        elif kind == "emit_all":
            _, category, track, rows = step
            new.emit_all(category, track, iter(rows))
            for name, tenant, start, end, trace_id, extra in rows:
                old.emit(name, category, tenant, track, start, end,
                         trace_id=trace_id, **extra)
        elif kind == "end" and old.open_spans:
            still_open = [entry for entry in begun
                          if any(top is entry[2] for top in old._stack)]
            handle, _, span = still_open[step[1] % len(still_open)]
            old.end(span)
            if isinstance(handle, Span):
                assert new.end(handle) is handle
                assert fields(handle) == fields(span)
            else:
                new.close(handle)
        elif kind == "set_attr" and begun:
            _, mine, span = begun[step[1] % len(begun)]
            mine[step[2]] = span.attrs[step[2]] = step[3]
        elif kind == "new_trace":
            assert new.new_trace() == old.new_trace()
        elif kind == "reset":
            new.reset()
            old.reset()
        assert_same(new, old)


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.lists(steps, max_size=40))
    def test_every_read_identical(self, capacity, program):
        run(capacity, program)

    def test_call_span_attrs_set_after_its_end_show(self):
        """The IPC's shape: open a call span, a leaf inside it, close
        it, then record the server cycles on its attrs."""
        run(4, [
            ("begin", "call", "call", "alice", 3, {}, True),
            ("leaf", "bounds_check", "bounds", "alice", 150, {"ok": 1}),
            ("end", 0),
            ("set_attr", 0, "server_cycles", 150),
            ("begin", "call", "call", "alice", 4, {}, True),
            ("advance", 2.5),
            ("set_attr", 1, "error", 1.0),
            ("end", 1),
        ])

    def test_out_of_order_end(self):
        run(8, [
            ("begin", "call", "call", "alice", None, {}, False),
            ("begin", "launch", "launch", "alice", None, {"ok": 1}, True),
            ("begin", "patch", "patch", "alice", None, {}, False),
            ("advance", 40.0),
            ("end", 1),           # the middle one: closes the child too
            ("advance", 1.0),
            ("end", 0),
        ])


class TestClosedSpan:
    """Ending a span that is no longer open (an ancestor's end closed
    it) closes whatever is open and leaves that span as it was closed.
    The reference moved its end to a later cursor, in the ring too."""

    def test_left_as_closed(self):
        tracer = SpanTracer()
        outer = tracer.begin("call", "call", "alice")
        inner = tracer.begin("patch", "patch", "alice")
        tracer.advance(40.0)
        tracer.end(outer)
        other = tracer.begin("launch", "launch", "alice")
        tracer.advance(2.0)
        assert tracer.end(inner) is inner
        assert inner.end == outer.end == 40.0
        assert tracer.open_spans == 0
        assert other.end == 42.0
        assert [(span.name, span.end) for span in tracer.spans()] == [
            ("patch", 40.0), ("call", 40.0), ("launch", 42.0)]
