"""Span tracing on the modelled cycle axis.

A :class:`SpanTracer` records *where the modelled time went*: every
client call opens a span at the IPC dispatch boundary, and the server's
charging sites open nested child spans (critical sections, bounds
checks, patching, launches, fault handling). The tracer's clock is a
cursor on the same axis as ``ServerStats.cycles`` — it advances **only**
when the server charges work (:meth:`SpanTracer.advance`), never by
itself — so a call span's duration is exactly the cycles the call
charged, and the per-tenant span sums reconcile with the server's busy
clock by construction.

Observation is free on the modelled axis: opening and closing spans
never charges cycles, which is how telemetry-on runs stay bit-identical
to telemetry-off runs (the acceptance bar the overhead benchmark pins).

Spans land on a bounded ring buffer (oldest dropped first);
:mod:`repro.telemetry.export` turns the retained spans into
Chrome-trace / Perfetto JSON.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

#: Default track for spans opened via begin()/end() — the server's
#: single-threaded dispatch path. Raw emit() callers pick their own
#: track (per-client cycle axes, the device timeline, the cluster
#: control plane); each track becomes one Perfetto process row.
SERVER_TRACK = "server"


class Span:
    """One named interval on some cycle axis.

    A plain slotted class rather than a dataclass: the tracer makes one
    per hook, so construction is on the record path. Equality compares
    every field, like the dataclass it replaces.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "tenant", "track", "start", "end", "attrs")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, category: str,
                 tenant: str, track: str = SERVER_TRACK,
                 start: float = 0.0, end: float = 0.0,
                 attrs: Optional[dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        #: Taxonomy bucket: call | critical | bounds | patch | launch |
        #: fault | queue | device | migration (DESIGN.md §11).
        self.category = category
        self.tenant = tenant
        self.track = track
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    #: Mutable and compared by value: unhashable, as the dataclass was.
    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"Span({inner})"

    @property
    def cycles(self) -> float:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Temporal containment (the nesting invariant tests pin)."""
        return self.start <= other.start and other.end <= self.end


class SpanTracer:
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
