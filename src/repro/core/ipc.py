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

from dataclasses import dataclass, field

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

    @property
    def total_cycles(self) -> float:
        return self.client_cycles + self.server_cycles

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


@dataclass
class _QueuedCall:
    method: str
    args: tuple
    payload_bytes: int
    #: Telemetry only (None with the knob off): the trace id minted at
    #: enqueue time — the same id travels with the call through its
    #: flush, so queue wait and dispatch share one trace — and the
    #: client-cycle instant the call entered the queue.
    trace_id: int | None = None
    enqueued_at: float = 0.0


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
        self._queue: list[_QueuedCall] = []
        self._closed = False
        # The server's telemetry spine, if its config enabled one
        # (resolved through the supervisor when one wraps the server).
        # None keeps every path below bit-identical to the stock
        # channel — the telemetry-off guarantee.
        self.telemetry = getattr(target, "telemetry", None)
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
        # Telemetry recorders by method (and the queue-wait one), each
        # made at its first record (Telemetry.call_recorder says why).
        self._call_recorders: dict = {}
        self._dispatch_recorders: dict = {}
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
        self._resolve_handler(method)
        if self.batching and not sync:
            return self._enqueue(method, args, payload_bytes)
        # A synchronous call is an ordering point: everything queued
        # before it must reach the server first (per-channel FIFO).
        self.flush()
        if method == "synchronize":
            # Sync is the trace block boundary on the server side too;
            # the shadow cursor rewinds with it. Other synchronous
            # calls (mallocs, D2H reads) interleave with a block
            # without disturbing its recorded async sequence, so they
            # leave the cursor alone.
            self._trace_cursor = 0
        transport = self.costs.marshal + self.costs.payload_cycles(
            payload_bytes
        )
        transport += self.costs.roundtrip if sync else (
            self.costs.roundtrip // 2
        )
        self.stats.messages += 1
        self.stats.payload_bytes += payload_bytes
        self.stats.client_cycles += transport
        telemetry = self.telemetry
        trace_id = (
            telemetry.tracer.new_trace() if telemetry is not None else None
        )
        result, server_cycles = self._dispatch(method, args,
                                               trace_id=trace_id)
        if sync:
            # The client blocks until the server replies.
            self.stats.client_cycles += server_cycles
        if telemetry is not None:
            self._record_call(method,
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
        self.stats.client_cycles += self.costs.roundtrip // 2
        self.stats.batches += 1
        self.stats.batched_messages += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        telemetry = self.telemetry
        if telemetry is not None:
            # Every queued call waited from its enqueue instant to this
            # flush — a span on the client's own cycle axis.
            flushed_at = self.stats.client_cycles
            record = self._queue_wait_recorder
            if record is None:
                record = self._queue_wait_recorder = (
                    telemetry.queue_wait_recorder(self.app_id))
            emit = telemetry.tracer.emit
            track = f"client:{self.app_id}"
            for queued in batch:
                emit(f"queue_wait:{queued.method}", "queue", self.app_id,
                     track=track, start=queued.enqueued_at, end=flushed_at,
                     trace_id=queued.trace_id)
                record(flushed_at - queued.enqueued_at)
        for queued in batch:
            self._dispatch(queued.method, queued.args,
                           trace_id=queued.trace_id)
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

    def _enqueue(self, method: str, args: tuple, payload_bytes: int):
        # Bounded queue: a call arriving at a full queue either sheds
        # (it never marshals, never reaches the server) or forces an
        # early flush — the producer stalls on the queue crossing, the
        # classic full-ring backpressure. The shed check runs before
        # any charging so a shed call is cycle-free on both sides.
        if (self.queue_limit is not None
                and len(self._queue) >= self.queue_limit):
            if self.shed_overflow:
                self.stats.shed_calls += 1
                raise QueueSaturated(self.app_id, method, self.queue_limit)
            self.stats.overflow_flushes += 1
            self.flush()
        # Stage the payload into the shared segment now (the caller may
        # reuse its buffer) and pay the per-call marshalling; the
        # round-trip half is paid once per batch at flush time.
        self.stats.messages += 1
        self.stats.payload_bytes += payload_bytes
        per_call = self._marshal_cost(method, args)
        marshal = per_call + self.costs.payload_cycles(payload_bytes)
        self.stats.client_cycles += marshal
        queued = _QueuedCall(method, args, payload_bytes)
        telemetry = self.telemetry
        if telemetry is not None:
            queued.trace_id = telemetry.tracer.new_trace()
            queued.enqueued_at = self.stats.client_cycles
            # A batched call's client-visible cost is its marshalling;
            # the server work lands on the server's busy time.
            self._record_call(method, marshal)
        self._queue.append(queued)
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

    def _dispatch(self, method: str, args: tuple,
                  trace_id: int | None = None):
        handler = self._resolve_handler(method)
        telemetry = self.telemetry
        if telemetry is None:
            result, server_cycles = handler(self.app_id, *args)
            self.stats.server_cycles += server_cycles
            return result, server_cycles
        # The call span: opened at the dispatch boundary so every
        # charge the handler makes — including the supervisor's fault
        # cycles — lands inside it. Per-tenant call-span durations
        # therefore sum to exactly the server's busy-clock delta.
        span = telemetry.tracer.begin(method, "call", self.app_id,
                                      trace_id=trace_id)
        try:
            result, server_cycles = handler(self.app_id, *args)
        except Exception as failure:
            span.attrs["error"] = type(failure).__name__
            raise
        finally:
            telemetry.tracer.end(span)
        span.attrs["server_cycles"] = server_cycles
        record = self._dispatch_recorders.get(method)
        if record is None:
            record = self._dispatch_recorders[method] = (
                telemetry.dispatch_recorder(self.app_id, method))
        record(server_cycles)
        self.stats.server_cycles += server_cycles
        return result, server_cycles

    def _record_call(self, method: str, latency_cycles: float) -> None:
        record = self._call_recorders.get(method)
        if record is None:
            record = self._call_recorders[method] = (
                self.telemetry.call_recorder(self.app_id, method))
        record(latency_cycles)

    def _resolve_handler(self, method: str):
        handler = getattr(self._target, method, None)
        if handler is None:
            raise IPCError(f"server has no method {method!r}")
        return handler
