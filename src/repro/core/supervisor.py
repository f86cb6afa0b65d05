"""Server-side tenant supervision: deadlines, retries, quarantine.

The GuardianServer's handlers enforce *spatial* safety (bounds,
partitions, patched PTX). The :class:`TenantSupervisor` wraps every
handler with the *temporal* safety the production north star needs — a
defined containment story for tenants that misbehave in ways the
happy-path traps never see:

- **per-tenant deadlines** — a call whose charged cycles exceed
  ``DEADLINE_CYCLES`` is recorded as a violation (the tenant is slow or
  its messages are being delayed; either way it is burning the shared
  server's time);
- **bounded retry with backoff** — transient message-queue faults
  (dropped or corrupted crossings, detected by sequence numbers /
  checksums) are retried up to ``MAX_RETRIES`` times with exponential
  backoff before surfacing an :class:`IPCError`;
- **a fault budget that escalates to quarantine** — every recorded
  fault charges a kind-specific ``WEIGHT_*`` against the tenant's
  ``FAULT_BUDGET``; exhausting it (or hitting an unrecoverable fault:
  a wedged stream, a dead client) triggers the server's containment
  sequence (:meth:`GuardianServer.quarantine`): stream drained and
  destroyed, handles dropped, partition scrubbed and reclaimed. Other tenants'
  bounds-table epochs, partitions and in-flight batches are untouched.

Fault *injection* also lives at this boundary: the supervisor is the
server end of the message queue, so a :class:`FaultPlan`'s IPC, PTX,
allocator and stream faults all fire here, deterministically.

With no plan installed the wrapper is pure pass-through — zero extra
cycles, so every per-operation cost stays bit-identical to the stock
server (pinned by the gauntlet's no-plan test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.server import GuardianServer
from repro.driver.fatbin import FatBinary
from repro.errors import (
    AllocationError,
    BoundsViolation,
    GuardianError,
    LaunchError,
    PTXError,
    StreamFault,
    TenantQuarantined,
    TransientIPCFault,
)
from repro.faults.inject import mutate_fatbin, mutate_ptx_text
from repro.faults.plan import FaultKind, FaultPlan, FiredFault, Site
from repro.telemetry import maybe_span


# The containment state machine's numbers (DESIGN.md §6). Nothing
# outside tests sets them; a test that needs another value patches the
# module.

#: Resend attempts for one transient IPC fault before giving up.
MAX_RETRIES = 3
#: Backoff charged per resend attempt: base * 2**attempt cycles.
BACKOFF_BASE_CYCLES = 4_000
#: Cycles detecting and dropping a duplicated message.
DUPLICATE_DETECT_CYCLES = 700
#: Per-call deadline on the server's charged cycles.
DEADLINE_CYCLES = 5_000_000.0
#: Budget a tenant may burn before quarantine.
FAULT_BUDGET = 8.0
#: Weights charged against the budget per fault class.
WEIGHT_RETRY = 1.0
WEIGHT_EXHAUSTED = 4.0
WEIGHT_VIOLATION = 2.0
WEIGHT_PTX = 2.0
WEIGHT_ALLOC = 1.0
WEIGHT_DEADLINE = 1.0
WEIGHT_REJECTED = 0.5
#: The migration rung below eviction, for supervisors with a
#: ``migration_hook`` (the cluster installs one per node): once a
#: tenant's spent budget reaches this fraction of ``FAULT_BUDGET`` the
#: hook is asked to move it to a healthier node instead of waiting for
#: the budget to exhaust into quarantine. The hook runs *after* the
#: in-flight call completes, never mid-dispatch.
MIGRATE_BUDGET_FRACTION = 0.5


@dataclass
class FailureRecord:
    """One structured failure event, rendered by
    ``analysis.reporting.render_failure_report``."""

    tenant: str
    op: str
    kind: str
    action: str  # retried | exhausted | suppressed | delayed | rejected
    #          # | fenced | armed | deadline | quarantined | reaped
    #          # | migrated
    attempts: int = 0
    cycles: float = 0.0
    detail: str = ""
    #: The node whose supervisor recorded this (cluster deployments
    #: stamp their node id; single-node supervisors leave it empty).
    node: str = ""


@dataclass
class QuarantineRecord:
    """One quarantine event: who, why, and what was reclaimed.

    ``lane_cycles`` is the victim's dispatch-lane clock at eviction
    (0.0 in serial mode): quarantine drains *one lane*, and the record
    keeps how far that lane had run — sibling lanes keep their own
    clocks and are never touched.
    """

    tenant: str
    reason: str
    budget_spent: float
    bytes_scrubbed: int
    lane_cycles: float = 0.0


@dataclass
class _TenantState:
    budget: float = 0.0
    quarantined: bool = False
    reason: str = ""
    deadline_violations: int = 0
    #: Set by the budget ladder when the migration rung is crossed;
    #: consumed (and the hook invoked) after the in-flight call ends.
    migration_pending: bool = False


#: The server handlers the supervisor wraps; everything else resolved
#: through the supervisor forwards to the server unchanged.
_HANDLERS = frozenset({
    "attach", "detach", "grow_partition",
    "malloc", "free",
    "memcpy_h2d", "memcpy_d2h", "memcpy_d2d", "memset",
    "register_fatbin", "load_module_ptx",
    "launch_kernel", "create_stream", "synchronize", "get_spec",
})


class TenantSupervisor:
    """Wraps a :class:`GuardianServer` as the IPC dispatch target."""

    def __init__(self, server: GuardianServer,
                 plan: Optional[FaultPlan] = None,
                 node: str = "", backoff_jitter: float = 0.0):
        self.server = server
        self.plan = plan
        self.node = node
        #: Fractional jitter applied to each backoff step (0.0 = off,
        #: the exact exponential; cluster nodes run with 0.1). With
        #: jitter ``j`` each step is scaled by a factor drawn uniformly
        #: from [1-j/2, 1+j/2], the standard defence against
        #: synchronized retry storms when many lanes hit the same
        #: transient fault. The draws come from an RNG seeded off the
        #: fault plan, so gauntlet runs stay reproducible.
        self.backoff_jitter = backoff_jitter
        #: Installed by the cluster control plane: ``hook(app_id,
        #: reason) -> bool`` (True = the tenant moved and this
        #: supervisor no longer owns it). Must not raise; failure
        #: handling is the hook's own business.
        self.migration_hook: Optional[Callable[[str, str], bool]] = None
        self._states: dict[str, _TenantState] = {}
        self.records: list[FailureRecord] = []
        self.quarantines: list[QuarantineRecord] = []
        # Derived from the plan's seed (not its live RNG) so jitter
        # draws never perturb the plan's own parameter stream.
        self._jitter_rng = random.Random(
            0x9E3779B9 ^ (plan.seed if plan else 0))

    def __getattr__(self, name: str):
        if name in _HANDLERS:
            def handler(app_id, *args, _method=name):
                return self._supervised(_method, app_id, *args)
            return handler
        return getattr(self.server, name)

    # -- tenant state ------------------------------------------------------------

    def state_of(self, app_id: str) -> _TenantState:
        return self._states.setdefault(app_id, _TenantState())

    def is_quarantined(self, app_id: str) -> bool:
        state = self._states.get(app_id)
        return state is not None and state.quarantined

    def forget(self, app_id: str) -> None:
        """Drop a tenant's supervision state without quarantining it.

        The cluster calls this on the *source* supervisor once a
        migration lands: the tenant's fault history travelled into the
        node's failure-domain score (where it keeps steering
        placement), but the tenant itself starts its new residency
        with a clean budget — and a later re-attach here must not
        inherit the departed instance's ledger.
        """
        self._states.pop(app_id, None)

    def quarantine_tenant(self, app_id: str, reason: str) -> None:
        """Operator/cluster-initiated quarantine (not budget-driven).

        The cluster's last rung when a tenant on a dying node cannot
        be migrated: same containment sequence, recorded against this
        supervisor so the failure report and ``is_quarantined`` agree
        with the server's state. Idempotent like the underlying
        :meth:`GuardianServer.quarantine`.
        """
        self._quarantine(app_id, self.state_of(app_id), reason)

    def reap(self, app_id: str) -> None:
        """Clean up after a dead client (crash detected out-of-band).

        The client's stranded batch was discarded at its end of the
        channel; here the server end quarantines whatever the tenant
        left behind — partition, stream, handles.
        """
        state = self.state_of(app_id)
        self._record(app_id, "<reaper>", FaultKind.CLIENT_CRASH.value,
                     "reaped", detail="client died; server-side cleanup")
        self._quarantine(app_id, state, "client crashed")

    # -- the dispatch wrapper ----------------------------------------------------

    def _supervised(self, method: str, app_id: str, *args):
        try:
            return self._supervised_inner(method, app_id, *args)
        finally:
            # The migration rung fires strictly between calls: moving
            # the tenant mid-dispatch would detach it from the very
            # server executing its call.
            self._maybe_migrate(app_id, method)

    def _maybe_migrate(self, app_id: str, method: str) -> None:
        state = self._states.get(app_id)
        if (
            state is None
            or not state.migration_pending
            or state.quarantined
            or self.migration_hook is None
        ):
            return
        state.migration_pending = False
        reason = (
            f"fault budget {state.budget:.1f}/"
            f"{FAULT_BUDGET:.1f}: migrating before eviction"
        )
        if self.migration_hook(app_id, reason):
            self._record(app_id, method, "migration", "migrated",
                         detail=reason)
            # The tenant now lives on another node; its state here
            # would otherwise leak onto a future re-attach.
            self._states.pop(app_id, None)

    def _supervised_inner(self, method: str, app_id: str, *args):
        state = self.state_of(app_id)
        if state.quarantined:
            # A fresh attach re-admits the tenant with a zeroed budget
            # (a new tenant instance; quarantine scrubbed the old one).
            if method == "attach":
                state = _TenantState()
                self._states[app_id] = state
            else:
                raise TenantQuarantined(app_id, state.reason)

        fired = None
        if self.plan is not None:
            fired = self.plan.fire(Site.SERVER, app_id, method)
        fault_cycles = 0.0
        armed_stream_fault: Optional[FiredFault] = None
        if fired is not None:
            fault_cycles, args, armed_stream_fault = self._apply_fault(
                method, app_id, state, fired, args
            )

        try:
            result, cycles = getattr(self.server, method)(app_id, *args)
        except BoundsViolation as failure:
            self._fail(state, app_id, method, "bounds_violation", "fenced",
                       WEIGHT_VIOLATION, detail=str(failure))
            raise
        except StreamFault as failure:
            # The stream is wedged — no retry can help; contain now.
            self._record(app_id, method, FaultKind.STREAM_FAULT.value,
                         "quarantined", detail=str(failure))
            self._quarantine(app_id, state,
                             f"stream fault: {failure.reason}")
            raise
        except AllocationError as failure:
            self._fail(state, app_id, method, "alloc_exhaust", "rejected",
                       WEIGHT_ALLOC, detail=str(failure))
            raise
        except PTXError as failure:
            self._fail(state, app_id, method, "malformed_ptx", "rejected",
                       WEIGHT_PTX, detail=str(failure))
            raise
        except (GuardianError, LaunchError) as failure:
            # PatcherError lands here too, as do handle/config rejections
            # and server-terminated kernels: clean per-tenant errors, but
            # a tenant producing them in bulk is misbehaving.
            weight = (WEIGHT_PTX
                      if "patcher" in type(failure).__name__.lower()
                      else WEIGHT_REJECTED)
            self._fail(state, app_id, method, type(failure).__name__,
                       "rejected", weight, detail=str(failure))
            raise

        if armed_stream_fault is not None:
            self._arm_stream_fault(app_id, method, armed_stream_fault)
        if fault_cycles:
            # Fault handling burns real server time; charge it to the
            # busy clock and to the caller's critical path. The span
            # nests inside the call span the IPC channel opened, so
            # fault cycles stay inside the per-tenant reconciliation.
            with maybe_span(self.server.telemetry,
                            f"fault:{fired.kind.value}", "fault", app_id,
                            action="handled"):
                self.server._charge(fault_cycles)
            cycles += fault_cycles
        if cycles > DEADLINE_CYCLES:
            state.deadline_violations += 1
            self._fail(state, app_id, method, "deadline", "deadline",
                       WEIGHT_DEADLINE, cycles=cycles,
                       detail=f"{cycles:,.0f} > {DEADLINE_CYCLES:,.0f} "
                              f"cycles")
        if method == "detach":
            self._states.pop(app_id, None)
        return result, cycles

    # -- fault application --------------------------------------------------------

    def _apply_fault(self, method: str, app_id: str, state: _TenantState,
                     fired: FiredFault, args: tuple):
        """Realise one fired fault; returns (cycles, args, armed)."""
        kind = fired.kind
        if kind.retryable:
            return self._retry_transport(method, app_id, state, fired), \
                args, None
        if kind is FaultKind.IPC_DUPLICATE:
            cycles = float(DUPLICATE_DETECT_CYCLES)
            self._record(app_id, method, kind.value, "suppressed",
                         cycles=cycles,
                         detail="duplicate delivery detected by seqno")
            return cycles, args, None
        if kind is FaultKind.IPC_DELAY:
            self._record(app_id, method, kind.value, "delayed",
                         cycles=fired.delay_cycles,
                         detail=f"queued {fired.delay_cycles:,.0f} cycles")
            return fired.delay_cycles, args, None
        if kind is FaultKind.ALLOC_EXHAUST and method == "malloc":
            self._fail(state, app_id, method, kind.value, "rejected",
                       WEIGHT_ALLOC,
                       detail="injected partition exhaustion")
            raise AllocationError(
                f"tenant {app_id!r}: partition exhausted (injected)"
            )
        if kind in (FaultKind.PTX_TRUNCATE, FaultKind.PTX_CORRUPT):
            return 0.0, self._mutate_module_args(method, args, fired), None
        if kind is FaultKind.STREAM_FAULT:
            return 0.0, args, fired
        return 0.0, args, None

    def _retry_transport(self, method: str, app_id: str,
                         state: _TenantState, fired: FiredFault) -> float:
        """Resend a dropped/corrupted crossing with exponential backoff."""
        failed_attempts = fired.spec.times
        if failed_attempts > MAX_RETRIES:
            cycles = self._backoff_cycles(MAX_RETRIES)
            with maybe_span(self.server.telemetry,
                            f"fault:{fired.kind.value}", "fault", app_id,
                            action="exhausted", attempts=MAX_RETRIES):
                self.server._charge(cycles)
            self._fail(state, app_id, method, fired.kind.value, "exhausted",
                       WEIGHT_EXHAUSTED, attempts=MAX_RETRIES,
                       cycles=cycles, detail="retry budget exhausted")
            raise TransientIPCFault(app_id, method, fired.kind.value,
                                    MAX_RETRIES)
        cycles = self._backoff_cycles(failed_attempts)
        self._bump(state, app_id, WEIGHT_RETRY)
        self._record(app_id, method, fired.kind.value, "retried",
                     attempts=failed_attempts, cycles=cycles,
                     detail=f"recovered after {failed_attempts} resend(s)")
        return cycles

    def _backoff_cycles(self, attempts: int) -> float:
        """Exponential backoff across ``attempts`` resends, each step
        optionally jittered (``backoff_jitter``). With jitter off the
        sum is exactly ``sum(BACKOFF_BASE_CYCLES * 2**i)`` — the
        pinned stock figure; no RNG draw happens, so enabling jitter
        for one run never shifts another's draws."""
        jitter = self.backoff_jitter
        total = 0.0
        for attempt in range(attempts):
            step = float(BACKOFF_BASE_CYCLES * 2 ** attempt)
            if jitter:
                step *= 1.0 + jitter * (self._jitter_rng.random() - 0.5)
            total += step
        return total

    def _mutate_module_args(self, method: str, args: tuple,
                            fired: FiredFault) -> tuple:
        telemetry = self.server.telemetry
        if method == "load_module_ptx" and args:
            return (mutate_ptx_text(args[0], fired,
                                    telemetry=telemetry),) + args[1:]
        if method == "register_fatbin" and args \
                and isinstance(args[0], FatBinary):
            return (mutate_fatbin(args[0], fired,
                                  telemetry=telemetry),) + args[1:]
        return args

    def _arm_stream_fault(self, app_id: str, method: str,
                          fired: FiredFault) -> None:
        tenant = self.server._tenants.get(app_id)
        if tenant is None:
            return
        tenant.stream.fault = fired.reason
        self._record(app_id, method, fired.kind.value, "armed",
                     detail=f"async {fired.reason}; surfaces at next "
                            f"ordering point")

    # -- budget and quarantine ----------------------------------------------------

    def _fail(self, state: _TenantState, app_id: str, op: str, kind: str,
              action: str, weight: float, attempts: int = 0,
              cycles: float = 0.0, detail: str = "") -> None:
        self._record(app_id, op, kind, action, attempts=attempts,
                     cycles=cycles, detail=detail)
        self._bump(state, app_id, weight)

    def _bump(self, state: _TenantState, app_id: str,
              weight: float) -> None:
        state.budget += weight
        if not state.quarantined and state.budget >= FAULT_BUDGET:
            self._quarantine(app_id, state, "fault budget exhausted")
            return
        if (
            not state.quarantined
            and self.migration_hook is not None
            and state.budget >= MIGRATE_BUDGET_FRACTION * FAULT_BUDGET
        ):
            state.migration_pending = True

    def _quarantine(self, app_id: str, state: _TenantState,
                    reason: str) -> None:
        if state.quarantined:
            return
        state.quarantined = True
        state.reason = reason
        lane = self.server.lane_view(app_id)
        lane_cycles = lane.clock if lane is not None else 0.0
        scrubbed = self.server.quarantine(app_id, reason=reason)
        self.quarantines.append(QuarantineRecord(
            tenant=app_id, reason=reason, budget_spent=state.budget,
            bytes_scrubbed=scrubbed, lane_cycles=lane_cycles,
        ))
        self._record(app_id, "<quarantine>", "quarantine", "quarantined",
                     detail=reason)

    def _record(self, tenant: str, op: str, kind: str, action: str,
                attempts: int = 0, cycles: float = 0.0,
                detail: str = "") -> None:
        self.records.append(FailureRecord(
            tenant=tenant, op=op, kind=kind, action=action,
            attempts=attempts, cycles=cycles, detail=detail,
            node=self.node,
        ))
        telemetry = self.server.telemetry
        if telemetry is not None:
            telemetry.fault_events.inc(
                tenant=tenant, kind=kind, action=action,
                node=self.node or "<local>",
            )
