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

    The tracer keeps spans as tuples and makes these when they are
    read (and for :meth:`SpanTracer.begin`). Equality compares every
    field, like the dataclass it replaces.
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
    """A bounded ring of finished spans plus the open-span stack, both
    of tuples (layouts in DESIGN.md §11): :meth:`spans` makes Span
    objects when read.
    """

    def __init__(self, capacity: int = 65_536):
        if capacity < 1:
            raise ValueError(f"bad span capacity {capacity}")
        self.capacity = capacity
        #: The cycle cursor. Advanced only by :meth:`advance` — i.e. by
        #: the server's ``_charge`` — so span durations are charged
        #: cycles, not wall time.
        self.clock = 0.0
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._stack: list[tuple] = []
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

    def open(self, name: str, category: str, tenant: str,
             trace_id: Optional[int], attrs: dict) -> tuple:
        """Open a span at the cursor; returns its stack entry for
        :meth:`close`. With ``trace_id=None`` the span inherits the
        enclosing span's trace, or a root span mints its own."""
        stack = self._stack
        parent_id = stack[-1][1] if stack else None
        if trace_id is None:
            trace_id = stack[-1][0] if stack else self.new_trace()
        entry = (trace_id, next(self._span_ids), parent_id, name, category,
                 tenant, self.clock, attrs, None)
        stack.append(entry)
        return entry

    def begin(self, name: str, category: str, tenant: str = "",
              trace_id: Optional[int] = None, **attrs) -> Span:
        """:meth:`open`, returning a Span whose ``end`` the close fills
        in (it keeps this call's own ``attrs`` dict)."""
        entry = self.open(name, category, tenant, trace_id, attrs)
        span = Span(*entry[:6], SERVER_TRACK, entry[6], 0.0, attrs)
        self._stack[-1] = entry[:8] + (span,)
        return span

    def close(self, handle):
        """Close an open span at the current cursor, retire it to the
        ring and return ``handle``: the entry :meth:`open` returned or
        the Span :meth:`begin` returned. Closing out of order (an
        exception unwound past open children) closes the children too,
        at the same instant; a span no longer open closes every open
        span and is itself left as it was closed."""
        stack = self._stack
        end = self.clock
        while stack:
            top = stack.pop()
            (trace_id, span_id, parent_id, name, category, tenant, start,
             attrs, span) = top
            if span is not None:
                span.end = end
            self._ring.append((trace_id, span_id, parent_id, name,
                               category, tenant, start, end, attrs))
            self.spans_finished += 1
            if top is handle or span is handle:
                break
        return handle

    end = close

    def leaf(self, name: str, category: str, tenant: str, cycles: float,
             /, **attrs) -> None:
        """``begin`` + ``advance(cycles)`` + ``end`` in one step: the
        span of a hook that wraps exactly one charge (a critical
        section, a bounds check, a launch, a trace replay). It opens
        nothing, so it can never be left open. (Positional-only names:
        CPython then skips comparing every attr keyword against them.)
        """
        stack = self._stack
        start = self.clock
        if stack:
            trace_id, parent_id = stack[-1][0], stack[-1][1]
        else:
            trace_id, parent_id = self.new_trace(), None
        self.clock = end = start + cycles
        self._ring.append((trace_id, next(self._span_ids), parent_id, name,
                           category, tenant, start, end, attrs or None))
        self.spans_finished += 1

    # -- raw spans (client / device / cluster axes) -------------------------------

    def emit(self, name: str, category: str, tenant: str, track: str,
             start: float, end: float, trace_id: Optional[int] = None,
             parent_id: Optional[int] = None, **attrs) -> int:
        """Record an already-timed span on an arbitrary track; returns
        its span id (a child's ``parent_id``)."""
        self.emit_all(category, track,
                      [(name, tenant, start, end, trace_id, attrs)],
                      parent_id)
        return self._ring[-1][1]

    def emit_all(self, category: str, track: str, rows,
                 parent_id: Optional[int] = None) -> None:
        """:meth:`emit` for many spans in one call: each row is
        ``(name, tenant, start, end, trace_id, attrs)``."""
        trace_ids, span_ids = self._trace_ids, self._span_ids
        retired = [(next(trace_ids) if trace_id is None else trace_id,
                    next(span_ids), parent_id, name, category, tenant,
                    track, start, end, attrs or None)
                   for name, tenant, start, end, trace_id, attrs in rows]
        self._ring.extend(retired)
        self.spans_finished += len(retired)

    # -- reads -------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Retained spans, oldest first."""
        return [Span(*row[:6], SERVER_TRACK, *row[6:]) if len(row) == 9
                else Span(*row) for row in self._ring]

    def spans_for(self, tenant: str) -> list[Span]:
        return [span for span in self.spans() if span.tenant == tenant]

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
