"""Trace specialization: record, guard, and replay the steady state.

PR 1's launch fast path removed re-augmentation but still walks the
full interpreted path per call — dict lookups, per-op dispatch, one
``cuLaunchKernel`` syscall per launch, one bounds check per transfer.
A tenant whose steady state is a fixed loop (the common inference
serving shape) pays all of that for a call sequence the server has
already validated many times over.

This module compiles that steady state away, following the two-trace
design of lightning-thunder's jit (SNIPPETS.md snippet 3): a
**prologue of guards** plus a **computation trace**.

Recorder
    Between two ``synchronize`` calls the engine records the *static
    signature* of every asynchronous operation a tenant submits
    (launch / H2D / D2D / memset — payload bytes excluded, they are
    taken live at replay). When :data:`TRACE_HOT_THRESHOLD` consecutive
    sync-delimited blocks carry the identical signature sequence, the
    block is compiled into a :class:`SpecializedTrace`.

Compile-time validation
    Compilation re-resolves every kernel handle and re-checks every
    transfer range against the tenant's current bounds record. A block
    containing anything unresolvable or out of bounds is never
    specialized — the interpreted path keeps rejecting it, so the
    fence is not weakened by one cycle of charge.

Guard set (checked once per replayed block)
    - the bounds-table **epoch and record identity** (partition
      resize, release + re-register, migration all bump/replace it),
    - the **ServerConfig object identity** (live reconfiguration swaps
      the frozen config object),
    - the **stream object identity + tenant incarnation** (destroy /
      quarantine / re-attach produce a fresh stream and generation),
      and a healthy (fault-free) stream,
    - **module handle identity** per recorded launch (the resolved
      function pair must still be the one compiled against),
    - the recomputed native-vs-sandboxed launch decision.

Replay
    A guarded block replays with one fused submit — the CUDA-Graphs
    analogue: one ``trace_submit`` (a batched syscall) per block plus
    ``trace_replay_op`` per operation, instead of per-call dispatch,
    lookups and driver-issue work. Every driver call still executes
    (functional effects are bit-identical); only the modelled host
    cycles shrink. The block's pre-validated transfer ranges are
    range-checked **in one numpy shot** against the guarded bounds
    record at block entry: the containment predicate is evaluated for
    every range on every replay — GPUArmor's lesson is that the check
    stays flat, not that it disappears.

Invalidation lattice
    Any guard failure, any mid-block signature deviation, a shorter or
    longer block than recorded, a partition grow (eager), a detach /
    quarantine / evacuate / migration (eager, via :meth:`forget`) —
    all drop the trace and fall back to the interpreted path
    bit-identically; recording then starts over. ``restore_tenant``
    and ``attach`` forget any state recorded under the app's previous
    life, so stale-epoch replay after a migration or re-attach is
    impossible by construction (the destination's engine has nothing
    to replay).

Everything here is opt-in (``ServerConfig.enable_trace_specialization``
off by default) and the engine charges exclusively through
``GuardianServer._charge``, so the cycle-accounting invariant — a
handler returns exactly the ``stats.cycles`` delta it caused — holds
on the replay path too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import BoundsViolation, ExecutionError, GuardianError
from repro.core.policy import FencingMode

#: The longest sync-delimited block the recorder will consider; bounds
#: recorder memory per tenant.
TRACE_MAX_OPS = 512

#: Consecutive identical sync-delimited blocks before one compiles.
TRACE_HOT_THRESHOLD = 2

#: Methods the recorder traces (the asynchronous submission surface).
TRACEABLE_METHODS = frozenset(
    {"launch_kernel", "memcpy_h2d", "memcpy_d2d", "memset"}
)


def launch_signature(handle, grid, block, params) -> tuple:
    return ("launch", handle, tuple(grid), tuple(block), tuple(params))


def h2d_signature(dst: int, size: int) -> tuple:
    #: Payload bytes are deliberately not part of the signature — the
    #: destination and size are what the bounds check validated; the
    #: bytes are staged fresh at every replay.
    return ("h2d", dst, size)


def d2d_signature(dst: int, src: int, size: int) -> tuple:
    return ("d2d", dst, src, size)


def memset_signature(dst: int, value: int, size: int) -> tuple:
    return ("memset", dst, value, size)


def signature_of(method: str, args: tuple) -> Optional[tuple]:
    """The static signature of one traceable IPC call, or None.

    Shared by the server-side recorder and the client-side marshal
    shadow cursor (:class:`repro.core.ipc.IPCChannel`), so both ends
    agree on what "the same call" means. ``args`` is the IPC argument
    tuple (no app_id).
    """
    try:
        if method == "launch_kernel":
            return launch_signature(args[0], args[1], args[2], args[3])
        if method == "memcpy_h2d":
            return h2d_signature(args[0], len(args[1]))
        if method == "memcpy_d2d":
            return d2d_signature(args[0], args[1], args[2])
        if method == "memset":
            return memset_signature(args[0], args[1], args[2])
    except (TypeError, IndexError):
        return None
    return None


@dataclass(frozen=True)
class _OpPlan:
    """One pre-validated operation of a compiled trace.

    ``kind`` mirrors the signature head; launches carry the resolved
    function and the fully-augmented parameter array (fencing extras
    appended at compile time), transfers carry their checked range(s).
    """

    sig: tuple
    kind: str
    #: launch: resolved CUfunction + prebuilt params.
    function: object = None
    launch_params: tuple = ()
    grid: tuple = ()
    block: tuple = ()
    handle: int = 0
    #: transfers: the ranges the interpreted path would check.
    ranges: tuple = ()
    dst: int = 0
    src: int = 0
    size: int = 0
    value: int = 0


@dataclass
class SpecializedTrace:
    """A compiled steady-state block: guard set + replay plans."""

    app_id: str
    signature: tuple
    ops: tuple
    #: Guard set (see module docstring).
    epoch: int
    record: object
    config: object
    stream: object
    incarnation: int
    use_native: bool
    #: handle -> (sandboxed, native) pair identity per recorded launch.
    pairs: tuple
    #: Every transfer range in the block, flattened in op order.
    ranges: tuple
    #: numpy views of ``ranges`` for the vectorized prologue check.
    starts: object = None
    sizes: object = None


@dataclass
class _TenantTraceState:
    """Per-tenant recorder / replay cursor."""

    recording: list = field(default_factory=list)
    last_block: Optional[tuple] = None
    stable_repeats: int = 0
    trace: Optional[SpecializedTrace] = None
    cursor: int = 0


class TraceEngine:
    """The server's trace-specialization layer.

    Owned by :class:`repro.core.server.GuardianServer` when
    ``enable_trace_specialization`` is on; ``None`` otherwise, which
    keeps the stock server bit-identical to the paper's numbers. The
    IPC channel resolves the engine through the server (or through a
    supervising wrapper's attribute fall-through) to drive its
    client-side marshal shadow cursor.
    """

    def __init__(self, server):
        self.server = server
        self._states: dict[str, _TenantTraceState] = {}

    # -- recorder + replay entry (called from the traced handlers) ----------

    def offer(self, app_id: str, sig: tuple, payload=None):
        """Offer one asynchronous call to the engine.

        Returns ``(result, charged_cycles)`` when the call was replayed
        from a specialized trace, or ``None`` when the caller must run
        the interpreted path (the call was recorded instead).
        """
        server = self.server
        if app_id not in server._tenants:
            # Unknown tenants never record or replay; the interpreted
            # path raises its usual error without touching engine state.
            return None
        state = self._states.get(app_id)
        if state is None:
            state = self._states[app_id] = _TenantTraceState()
        server.stats.trace_eligible_ops += 1
        trace = state.trace
        if trace is not None:
            if state.cursor == 0:
                # Block entry. Guards and the first-op signature are
                # pure predicates, checked *before* any fused charge —
                # a failed prologue costs nothing here and the
                # interpreted path charges itself normally.
                plan = trace.ops[0] if trace.ops else None
                tenant = server._tenants.get(app_id)
                if tenant is None or not self._guards_hold(tenant, trace):
                    server.stats.trace_guard_failures += 1
                    self._drop(state)
                    state.recording.append(sig)
                    return None
                if plan is None or plan.sig != sig:
                    self._drop(state)
                    state.recording.append(sig)
                    return None
                entry_cycles = self._enter_block(app_id, trace)
                state.cursor = 1
                result, cycles = self._replay(app_id, plan, payload)
                return result, entry_cycles + cycles
            plan = (
                trace.ops[state.cursor]
                if state.cursor < len(trace.ops) else None
            )
            if plan is None or plan.sig != sig:
                # Mid-block deviation: the steady state changed shape.
                # Nothing already replayed was skipped unsafely — every
                # replayed op matched its pre-validated plan — but the
                # trace no longer describes the workload.
                self._drop(state)
                state.recording.append(sig)
                return None
            state.cursor += 1
            return self._replay(app_id, plan, payload)
        # Recording mode.
        state.recording.append(sig)
        return None

    def block_boundary(self, app_id: str) -> None:
        """A ``synchronize`` closed the current block.

        Replay mode: a fully-replayed block counts as one trace replay
        and rewinds the cursor; a partially-replayed one means the
        block got *shorter* than recorded — a deviation, the trace is
        dropped. Recording mode: a block identical to the previous one
        moves the stability counter; at :data:`TRACE_HOT_THRESHOLD`
        consecutive identical blocks the block compiles.
        """
        server = self.server
        state = self._states.get(app_id)
        if state is None:
            return
        trace = state.trace
        if trace is not None:
            if state.cursor == len(trace.ops) and trace.ops:
                server.stats.trace_replays += 1
                state.cursor = 0
            elif state.cursor > 0:
                self._drop(state)
            state.recording.clear()
            return
        block = tuple(state.recording)
        state.recording.clear()
        if not block or len(block) > TRACE_MAX_OPS:
            state.last_block = None
            state.stable_repeats = 0
            return
        if block == state.last_block:
            state.stable_repeats += 1
            if state.stable_repeats + 1 >= TRACE_HOT_THRESHOLD:
                trace = self._compile(app_id, block)
                if trace is not None:
                    state.trace = trace
                    state.cursor = 0
                    server.stats.traces_compiled += 1
                state.last_block = None
                state.stable_repeats = 0
        else:
            state.last_block = block
            state.stable_repeats = 0

    # -- invalidation lattice ----------------------------------------------

    def invalidate(self, app_id: str) -> None:
        """Eagerly drop ``app_id``'s trace and recording state (epoch
        bump: partition grow/release re-registers the bounds record, so
        anything recorded under the old record is history). The guard
        set would catch the stale epoch at the next block entry anyway;
        eager invalidation makes stale replay impossible even for a
        mutation landing *mid-block*."""
        state = self._states.get(app_id)
        if state is None:
            return
        self._drop(state)
        state.recording.clear()
        state.last_block = None
        state.stable_repeats = 0

    def forget(self, app_id: str) -> None:
        """Remove every trace of ``app_id`` — detach, quarantine,
        evacuate, restore (migration landing) and re-attach all call
        this, so a tenant's next life starts cold: no replay, no
        half-recorded block, no stability credit carried across an
        incarnation or across nodes."""
        state = self._states.pop(app_id, None)
        if state is not None and state.trace is not None:
            self.server.stats.trace_invalidations += 1

    def _drop(self, state: _TenantTraceState) -> None:
        if state.trace is not None:
            self.server.stats.trace_invalidations += 1
        state.trace = None
        state.cursor = 0

    # -- client-side view ---------------------------------------------------

    def active_signature(self, app_id: str) -> Optional[tuple]:
        """The compiled block's signature sequence, for the IPC
        channel's marshal shadow cursor; None while interpreting."""
        state = self._states.get(app_id)
        if state is None or state.trace is None:
            return None
        return state.trace.signature

    def has_trace(self, app_id: str) -> bool:
        return self.active_signature(app_id) is not None

    # -- compile ------------------------------------------------------------

    def _compile(self, app_id: str,
                 block: tuple) -> Optional[SpecializedTrace]:
        """Validate and lower one stable block; None if anything in it
        cannot be pre-validated (unknown handle, out-of-bounds range,
        unhashable shape) — those blocks stay interpreted forever."""
        server = self.server
        tenant = server._tenants.get(app_id)
        if tenant is None:
            return None
        try:
            record = server.allocator.bounds.read(app_id)
        except Exception:
            return None
        epoch = server.allocator.bounds.epoch(app_id)
        use_native = self._use_native(tenant)
        extras = (
            [] if use_native else record.extra_param_values(server.mode)
        )
        ops: list[_OpPlan] = []
        pairs: list[tuple] = []
        ranges: list[tuple] = []
        for sig in block:
            kind = sig[0]
            if kind == "launch":
                _, handle, grid, kblock, params = sig
                pair = tenant.functions.get(handle)
                if pair is None:
                    return None
                sandboxed, native = pair
                ops.append(_OpPlan(
                    sig=sig, kind="launch",
                    function=native if use_native else sandboxed,
                    launch_params=tuple(list(params) + list(extras)),
                    grid=grid, block=kblock, handle=handle,
                ))
                pairs.append((handle, pair))
            elif kind == "h2d":
                _, dst, size = sig
                if not record.contains(dst, size):
                    return None
                ops.append(_OpPlan(sig=sig, kind="h2d", dst=dst,
                                   size=size, ranges=((dst, size),)))
                ranges.append((dst, size))
            elif kind == "d2d":
                _, dst, src, size = sig
                if not (record.contains(src, size)
                        and record.contains(dst, size)):
                    return None
                ops.append(_OpPlan(
                    sig=sig, kind="d2d", dst=dst, src=src, size=size,
                    ranges=((src, size), (dst, size)),
                ))
                ranges.extend(((src, size), (dst, size)))
            elif kind == "memset":
                _, dst, value, size = sig
                if not record.contains(dst, size):
                    return None
                ops.append(_OpPlan(sig=sig, kind="memset", dst=dst,
                                   value=value, size=size,
                                   ranges=((dst, size),)))
                ranges.append((dst, size))
            else:
                return None
        trace = SpecializedTrace(
            app_id=app_id,
            signature=block,
            ops=tuple(ops),
            epoch=epoch,
            record=record,
            config=server.config,
            stream=tenant.stream,
            incarnation=tenant.incarnation,
            use_native=use_native,
            pairs=tuple(pairs),
            ranges=tuple(ranges),
        )
        if ranges:
            trace.starts = np.fromiter(
                (start for start, _ in ranges), dtype=np.int64,
                count=len(ranges),
            )
            trace.sizes = np.fromiter(
                (size for _, size in ranges), dtype=np.int64,
                count=len(ranges),
            )
        return trace

    def _use_native(self, tenant) -> bool:
        server = self.server
        return (
            server.standalone_native and server.tenant_count == 1
        ) or server.mode is FencingMode.NONE

    # -- guards + replay ----------------------------------------------------

    def _guards_hold(self, tenant, trace: SpecializedTrace) -> bool:
        """The prologue guard set. Pure predicates — the modelled cost
        is ``trace_guard``, charged by :meth:`_enter_block` only when
        the guards hold (a failed guard falls back before any fused
        charge; the interpreted path then charges itself normally)."""
        server = self.server
        if server.config is not trace.config:
            return False
        if tenant.incarnation != trace.incarnation:
            return False
        if tenant.stream is not trace.stream:
            return False
        if tenant.stream.fault is not None:
            return False
        bounds = server.allocator.bounds
        if bounds.epoch(trace.app_id) != trace.epoch:
            return False
        try:
            if bounds.read(trace.app_id) is not trace.record:
                return False
        except Exception:
            return False
        if self._use_native(tenant) != trace.use_native:
            return False
        for handle, pair in trace.pairs:
            if tenant.functions.get(handle) is not pair:
                return False
        return True

    def _enter_block(self, app_id: str, trace: SpecializedTrace) -> float:
        """Charge the fused block's prologue: the guard evaluation plus
        one batched submit (the CUDA-Graphs-style single syscall that
        replaces per-launch driver issuance), plus the one-shot numpy
        range check of every transfer range the block carries."""
        server = self.server
        costs = server.costs
        cycles = float(costs.trace_guard + costs.trace_submit)
        if trace.ranges:
            cycles += (
                costs.vector_check_base
                + costs.vector_check_per_range * len(trace.ranges)
            )
        server._charge(cycles, leaf=True)
        telemetry = server.telemetry
        if telemetry is not None:
            telemetry.tracer.leaf("trace_replay", "launch", app_id, cycles,
                                  ops=len(trace.ops),
                                  ranges=len(trace.ranges))
        if trace.ranges:
            record = trace.record
            server.stats.transfers_checked += len(trace.ranges)
            server.stats.trace_ranges_prechecked += len(trace.ranges)
            if not record.contains_batch(trace.starts, trace.sizes):
                # Unreachable while the record-identity guard holds
                # (compile pre-validated these exact ranges against
                # this exact record), but the fence stays closed even
                # if it somehow doesn't.
                server.stats.transfers_rejected += 1
                state = self._states.get(app_id)
                if state is not None:
                    self._drop(state)
                start, size = trace.ranges[0]
                raise BoundsViolation(app_id, start, size,
                                      detail="trace prologue")
        return cycles

    def _replay(self, app_id: str, plan: _OpPlan, payload):
        """Execute one pre-validated op with fused-replay charging.

        The driver call is the same one the interpreted path issues —
        same function, same bytes, same stream — so functional results
        are bit-identical; the per-op model cost is ``trace_replay_op``
        (command-buffer cursor bump + payload pointer patch) instead of
        lookup/augment/issue. A transfer's ranges were checked by the
        block-entry sweep (:meth:`_enter_block`).
        """
        server = self.server
        costs = server.costs
        tenant = server._tenants[app_id]
        stats = server.stats
        cycles = float(costs.trace_replay_op)
        server._charge(cycles)
        stats.trace_replay_ops += 1
        if plan.kind == "launch":
            stats.launches += 1
            if self._use_native(tenant):
                stats.native_launches += 1
            try:
                server.driver.cuLaunchKernel(
                    plan.function, plan.grid, plan.block,
                    list(plan.launch_params), tenant.stream,
                    tag=app_id, release_cycles=server._release(),
                )
            except ExecutionError as failure:
                stats.kernels_killed += 1
                raise GuardianError(
                    f"tenant {app_id!r}: kernel terminated by the "
                    f"server ({failure})"
                ) from failure
            return None, cycles
        if plan.kind == "h2d":
            server.driver.cuMemcpyHtoD(
                tenant.stream, plan.dst, payload, tag=app_id,
                release_cycles=server._release(),
            )
            return None, cycles
        if plan.kind == "d2d":
            server.driver.cuMemcpyDtoD(
                tenant.stream, plan.dst, plan.src, plan.size,
                tag=app_id, release_cycles=server._release(),
            )
            return None, cycles
        server.driver.cuMemsetD8(
            tenant.stream, plan.dst, plan.value, plan.size,
            tag=app_id, release_cycles=server._release(),
        )
        return None, cycles
