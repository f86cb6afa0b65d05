"""The client <-> server IPC channel (paper §4.2.4).

Guardian applications and the GuardianServer run in different address
spaces; operations and data cross via a message queue plus a shared
memory segment, like other API-remoting systems. The simulator models
that boundary explicitly:

- every forwarded call costs a fixed round-trip (enqueue, wake-up,
  dispatch, reply) on the *client's* critical path;
- bulk payloads (transfer data, fatbins) cost extra cycles proportional
  to their size (one memcpy into / out of the shared segment);
- the server's own per-operation work (lookup, augment, checks) is
  reported back and charged to the same critical path, because the
  intercepted calls are synchronous.

These per-call costs are what the paper's "G-Safe without protection"
configuration isolates (3.7%-10% vs native, §6.2) and what Table 5
breaks down for ``cudaLaunchKernel``.

**Batched asynchronous submission** (opt-in, ``batching=True``):
consecutive ``sync=False`` calls — kernel launches, H2D copies,
memsets — are queued client-side and delivered in one message-queue
crossing at the next flush point (a synchronous call, an explicit
:meth:`IPCChannel.flush`, a full batch, or channel close). A batch of
``k`` calls costs ``roundtrip/2 + k*marshal`` plus the payload copies
(payloads are staged into the shared segment at call time, since the
caller may reuse its buffers immediately), instead of
``k*(roundtrip/2 + marshal)``: the per-message wake-up is amortised
exactly the way real command-queue batching amortises it. Server-side
errors for batched operations surface at the flush point — the same
deferred-error semantics real asynchronous CUDA submission has. With
``batching=False`` (the default) the channel is cycle-for-cycle
identical to the unbatched model the paper's figures assume.

**Bounded queue + shedding** (opt-in, ``queue_limit``): real command
queues are finite; an unbounded client-side batch hides overload
instead of surfacing it. With ``queue_limit`` set, an asynchronous
call that arrives while the queue already holds ``queue_limit``
entries hits the overflow policy: the default (``shed_overflow=False``)
*flushes* — the caller pays the queue-crossing now, which is exactly
the stall-the-producer backpressure a full hardware ring exerts —
while ``shed_overflow=True`` *sheds* the call
(:class:`~repro.errors.QueueSaturated`, counted in
``IPCStats.shed_calls``; nothing reaches the server). With
``queue_limit=None`` (the default) both paths are dead code and the
channel stays bit-identical to the unbounded model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ChannelClosedError, IPCError, QueueSaturated
from repro.core.tracecache import signature_of


@dataclass(frozen=True)
class IPCCostModel:
    """CPU cycles charged per forwarded call.

    ``roundtrip`` covers both queue crossings; ``bytes_per_cycle`` is
    the shared-memory copy bandwidth (a cache-resident memcpy moves
    roughly 8-16 bytes per cycle; we use 8 to stay conservative).
    """

    roundtrip: int = 1_400
    marshal: int = 150
    #: Marshalling a call whose shape the server's compiled trace
    #: already pinned: the argument layout is pre-agreed between both
    #: ends, so the client stages the payload and bumps a command
    #: cursor instead of serialising the full argument tuple.
    marshal_cached: int = 40
    bytes_per_cycle: int = 8

    def payload_cycles(self, payload_bytes: int) -> int:
        return payload_bytes // self.bytes_per_cycle


@dataclass
class IPCStats:
    """Per-channel counters."""

    messages: int = 0
    payload_bytes: int = 0
    client_cycles: float = 0.0
    server_cycles: float = 0.0
    #: Batching counters: how many flushes delivered more than zero
    #: queued calls, how many calls travelled inside those batches, and
    #: the largest single batch.
    batches: int = 0
    batched_messages: int = 0
    largest_batch: int = 0
    #: Queued calls thrown away by :meth:`IPCChannel.abort` — the
    #: dead-client path must *not* deliver a crashed tenant's batch —
    #: and how many aborts actually discarded a non-empty batch, so
    #: fault-gauntlet runs can separate delivered from aborted batching.
    discarded_calls: int = 0
    aborted_batches: int = 0
    #: Batched calls marshalled at the ``marshal_cached`` rate because
    #: they matched the server's active specialized trace in sequence.
    marshal_cached_calls: int = 0
    #: Bounded-queue backpressure (zero with ``queue_limit`` unset):
    #: calls shed at a saturated queue, and flushes forced by the
    #: overflow policy rather than a full batch / an ordering point.
    shed_calls: int = 0
    overflow_flushes: int = 0

    def __add__(self, other: "IPCStats") -> "IPCStats":
        """Two channels' counters together (``largest_batch`` is the
        larger of the two), so ``sum(stats, IPCStats())`` is the view
        of a deployment's clients and the properties below read it."""
        total = IPCStats(**{
            counter.name: getattr(self, counter.name)
            + getattr(other, counter.name)
            for counter in fields(self)
        })
        total.largest_batch = max(self.largest_batch, other.largest_batch)
        return total

    @property
    def roundtrips(self) -> int:
        """Message-queue crossings: a batch crosses once for all its
        calls, every other message crosses on its own, and discarded
        calls never crossed (the client died before its flush point)."""
        return (self.messages - self.batched_messages
                - self.discarded_calls + self.batches)

    @property
    def mean_batch_size(self) -> float:
        """Mean calls per *delivered* batch.

        Aborted batches are tracked separately (``aborted_batches`` /
        ``discarded_calls``) and never dilute this figure; a channel
        that never flushed reports 0.0 rather than dividing by zero.
        """
        if not self.batches:
            return 0.0
        return self.batched_messages / self.batches


class _Route:
    """One method's call path on one channel, resolved at its first
    call: handler, channel state, queue-wait span name, recorders."""

    __slots__ = ("method", "handler", "app_id", "stats", "telemetry",
                 "tracer", "queue_wait", "record_call", "record_dispatch")

    def __init__(self, channel: "IPCChannel", method: str, handler):
        self.method = method
        self.handler = handler
        self.app_id = channel.app_id
        self.stats = channel.stats
        self.telemetry = channel.telemetry
        self.tracer = channel._tracer
        self.queue_wait = f"queue_wait:{method}"
        # Each recorder is made at its own first record (see
        # Telemetry.call_recorder), by the two methods below.
        self.record_call = self.record_dispatch = None

    def call_recorder(self):
        self.record_call = self.telemetry.call_recorder(self.app_id,
                                                        self.method)
        return self.record_call

    def dispatch_recorder(self):
        self.record_dispatch = self.telemetry.dispatch_recorder(
            self.app_id, self.method)
        return self.record_dispatch

    def dispatch(self, args: tuple, trace_id: int | None):
        """Run the handler; returns ``(result, server_cycles)``."""
        tracer = self.tracer
        if tracer is None:
            result, server_cycles = self.handler(self.app_id, *args)
            self.stats.server_cycles += server_cycles
            return result, server_cycles
        # The call span: opened at the dispatch boundary so every
        # charge the handler makes — including the supervisor's fault
        # cycles — lands inside it. Per-tenant call-span durations
        # therefore sum to exactly the server's busy-clock delta.
        attrs = {}
        entry = tracer.open(self.method, "call", self.app_id, trace_id,
                            attrs)
        try:
            result, server_cycles = self.handler(self.app_id, *args)
        except Exception as failure:
            attrs["error"] = type(failure).__name__
            raise
        finally:
            tracer.close(entry)
        attrs["server_cycles"] = server_cycles
        (self.record_dispatch or self.dispatch_recorder())(server_cycles)
        self.stats.server_cycles += server_cycles
        return result, server_cycles


class IPCChannel:
    """A synchronous call channel from one client to the server.

    ``target`` is the server-side dispatcher: an object whose methods
    return ``(result, server_cycles)``. Both the transport cost and the
    reported server cycles land on the client's critical path.
    """

    def __init__(self, target, app_id: str,
                 costs: IPCCostModel | None = None,
                 batching: bool = False,
                 max_batch: int = 64,
                 queue_limit: int | None = None,
                 shed_overflow: bool = False):
        if max_batch < 1:
            raise IPCError(f"bad max_batch {max_batch}")
        if queue_limit is not None and queue_limit < 1:
            raise IPCError(f"bad queue_limit {queue_limit}")
        if shed_overflow and queue_limit is None:
            raise IPCError(
                "shed_overflow=True sheds nothing while the queue is "
                "unbounded; set queue_limit"
            )
        self._target = target
        self.app_id = app_id
        self.costs = costs or IPCCostModel()
        self.batching = batching
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.shed_overflow = shed_overflow
        self.stats = IPCStats()
        #: ``(route, args, trace_id, enqueued_at)``; the last two only
        #: with telemetry (queue wait and dispatch share the trace).
        self._queue: list[tuple] = []
        self._closed = False
        # The server's telemetry spine, if its config enabled one
        # (resolved through the supervisor when one wraps the server).
        # None keeps every path below bit-identical to the stock
        # channel — the telemetry-off guarantee.
        self.telemetry = getattr(target, "telemetry", None)
        self._tracer = getattr(self.telemetry, "tracer", None)
        self._client_track = f"client:{app_id}"
        # The server's trace engine, if trace specialization is on
        # (again resolved through a supervising wrapper). The channel
        # keeps a *shadow cursor* over the compiled block's signature —
        # the simulator's stand-in for the server publishing the
        # compiled command layout into the shared segment — so calls
        # matching the trace in sequence marshal at the cheap
        # ``marshal_cached`` rate. None (knob off) leaves marshalling
        # bit-identical to the stock channel.
        self._trace_engine = getattr(target, "trace_engine", None)
        self._trace_cursor = 0
        self._routes: dict[str, _Route] = {}
        self._queue_wait_recorder = None

    def call(self, method: str, *args, payload_bytes: int = 0,
             sync: bool = True):
        """Forward one call; returns the server's result.

        ``sync=False`` models the asynchronous operations (kernel
        launches, H2D copies): the client pays only the *send* half of
        the round-trip and does not wait for the server's processing —
        which still accumulates in the server's busy time and bounds
        throughput there, the way real CUDA async submission works.
        Synchronous operations (mallocs, D2H copies, module loads) put
        the full round-trip plus the server's work on the client's
        critical path.

        With batching enabled, asynchronous calls are queued and
        delivered together at the next flush point; they return
        ``None`` immediately (every asynchronous operation in the
        backend surface returns ``None`` anyway).
        """
        if self._closed:
            raise ChannelClosedError(self.app_id)
        route = self._routes.get(method) or self._route(method)
        if self.batching and not sync:
            return self._enqueue(route, args, payload_bytes)
        # A synchronous call is an ordering point: everything queued
        # before it must reach the server first (per-channel FIFO).
        if self._queue:
            self.flush()
        if method == "synchronize":
            # Sync is the trace block boundary on the server side too;
            # the shadow cursor rewinds with it. Other synchronous
            # calls (mallocs, D2H reads) interleave with a block
            # without disturbing its recorded async sequence, so they
            # leave the cursor alone.
            self._trace_cursor = 0
        costs = self.costs
        transport = costs.marshal + costs.payload_cycles(payload_bytes)
        transport += costs.roundtrip if sync else costs.roundtrip // 2
        stats = self.stats
        stats.messages += 1
        stats.payload_bytes += payload_bytes
        stats.client_cycles += transport
        tracer = self._tracer
        result, server_cycles = route.dispatch(
            args, tracer.new_trace() if tracer is not None else None)
        if sync:
            # The client blocks until the server replies.
            stats.client_cycles += server_cycles
        if tracer is not None:
            (route.record_call or route.call_recorder())(
                transport + (server_cycles if sync else 0.0))
        return result

    def flush(self) -> int:
        """Deliver all queued asynchronous calls in one round-trip half.

        Returns the number of calls delivered. The batch pays one
        ``roundtrip/2`` (marshalling and payload staging were already
        charged at call time). A server-side error propagates from the
        offending call; earlier calls in the batch have already been
        delivered, later ones are dropped — the deferred-error contract
        of asynchronous submission.
        """
        if not self._queue:
            return 0
        batch, self._queue = self._queue, []
        stats = self.stats
        stats.client_cycles += self.costs.roundtrip // 2
        stats.batches += 1
        stats.batched_messages += len(batch)
        stats.largest_batch = max(stats.largest_batch, len(batch))
        tracer = self._tracer
        if tracer is not None:
            # Every queued call waited from its enqueue instant to this
            # flush — a span on the client's own cycle axis.
            flushed_at = stats.client_cycles
            app_id = self.app_id
            tracer.emit_all("queue", self._client_track, [
                (route.queue_wait, app_id, enqueued_at, flushed_at,
                 trace_id, None)
                for route, _, trace_id, enqueued_at in batch
            ])
            record = self._queue_wait_recorder
            if record is None:
                record = self._queue_wait_recorder = (
                    self.telemetry.queue_wait_recorder(app_id))
            for _, _, _, enqueued_at in batch:
                record(flushed_at - enqueued_at)
        for route, args, trace_id, _ in batch:
            route.dispatch(args, trace_id)
        return len(batch)

    @property
    def queued_calls(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        """Flush any pending batch and close the channel.

        Idempotent: a second close is a no-op, and the channel ends up
        closed even if the final flush raises (the error still
        propagates, but a retried close won't redeliver the batch —
        ``flush`` detaches the queue before dispatching).
        """
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True

    def abort(self) -> int:
        """Close without delivering: the dead-client teardown.

        A client that crashes with a non-empty batch pending must not
        have that batch executed on its behalf — the crash happened
        *before* the flush point, so the deferred-submission contract
        says those operations never reached the server. Returns how
        many queued calls were discarded. Idempotent, like ``close``.
        """
        discarded = len(self._queue)
        self._queue = []
        self.stats.discarded_calls += discarded
        if discarded:
            self.stats.aborted_batches += 1
        self._closed = True
        return discarded

    @property
    def closed(self) -> bool:
        return self._closed

    # -- internals ---------------------------------------------------------------

    def _route(self, method: str) -> _Route:
        """A method's route, at its first call: an unknown method
        raises here, before anything is charged, queued or traced."""
        handler = getattr(self._target, method, None)
        if handler is None:
            raise IPCError(f"server has no method {method!r}")
        route = self._routes[method] = _Route(self, method, handler)
        return route

    def _enqueue(self, route: _Route, args: tuple, payload_bytes: int):
        # Bounded queue: a call arriving at a full queue either sheds
        # (it never marshals, never reaches the server) or forces an
        # early flush — the producer stalls on the queue crossing, the
        # classic full-ring backpressure. The shed check runs before
        # any charging so a shed call is cycle-free on both sides.
        if (self.queue_limit is not None
                and len(self._queue) >= self.queue_limit):
            if self.shed_overflow:
                self.stats.shed_calls += 1
                raise QueueSaturated(self.app_id, route.method,
                                     self.queue_limit)
            self.stats.overflow_flushes += 1
            self.flush()
        # Stage the payload into the shared segment now (the caller may
        # reuse its buffer) and pay the per-call marshalling; the
        # round-trip half is paid once per batch at flush time.
        stats = self.stats
        stats.messages += 1
        stats.payload_bytes += payload_bytes
        marshal = (self._marshal_cost(route.method, args)
                   + self.costs.payload_cycles(payload_bytes))
        stats.client_cycles += marshal
        tracer = self._tracer
        if tracer is None:
            self._queue.append((route, args, None, 0.0))
        else:
            self._queue.append((route, args, tracer.new_trace(),
                                stats.client_cycles))
            # A batched call's client-visible cost is its marshalling;
            # the server work lands on the server's busy time.
            (route.record_call or route.call_recorder())(marshal)
        if len(self._queue) >= self.max_batch:
            self.flush()
        return None

    def _marshal_cost(self, method: str, args: tuple) -> int:
        """Per-call marshalling cost, trace-discounted when possible.

        While the server holds a compiled trace for this tenant, the
        shadow cursor walks the compiled block's signature sequence; a
        call matching the expected next signature marshals at
        ``marshal_cached``. Any deviation parks the cursor past the end
        of the block — no further discounts — until the next
        ``synchronize`` rewinds it, mirroring how the server-side trace
        drops on deviation and re-records.
        """
        engine = self._trace_engine
        if engine is None:
            return self.costs.marshal
        signature = engine.active_signature(self.app_id)
        if signature is None:
            self._trace_cursor = 0
            return self.costs.marshal
        cursor = self._trace_cursor
        if cursor >= len(signature):
            return self.costs.marshal
        expected = signature_of(method, args)
        if expected is None or expected != signature[cursor]:
            self._trace_cursor = len(signature)
            return self.costs.marshal
        self._trace_cursor = cursor + 1
        self.stats.marshal_cached_calls += 1
        return self.costs.marshal_cached
