"""End-to-end telemetry: span tracing, metrics, exportable timelines.

:class:`Telemetry` bundles one :class:`~repro.telemetry.trace.SpanTracer`
with one :class:`~repro.telemetry.registry.MetricsRegistry` and
pre-declares the metric families the core hook points feed. The
GuardianServer owns one instance when ``ServerConfig.telemetry`` is on
(``server.telemetry`` is ``None`` otherwise — the stock, bit-identical
default); the IPC channel, supervisor, device and cluster all resolve
it through the server so every layer of one deployment shares one
tracer clock and one registry.

The contract every hook honours: **telemetry observes the timeline, it
never charges it.** No hook adds cycles to any modelled clock; the
tracer's cursor only mirrors what ``GuardianServer._charge`` already
charged. The overhead benchmark pins the consequence — identical
host-cycle totals with the knob on and off.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import isfinite
from typing import Optional

from repro.telemetry.registry import (
    FOLD_BOUND,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QUANTILES,
)
from repro.telemetry.trace import SERVER_TRACK, Span, SpanTracer

__all__ = [
    "Telemetry",
    "SpanTracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "QUANTILES",
    "SERVER_TRACK",
    "maybe_span",
]


#: A snapshot span's keys, in their order.
_SNAPSHOT_FIELDS = ("name", "category", "tenant", "track", "trace_id",
                    "span_id", "parent_id", "start", "end", "attrs")


class Telemetry:
    """One deployment's tracer + registry, with the core families."""

    def __init__(self):
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        # The families the built-in hook points feed. Declared up
        # front so the exposition is stable even before traffic.
        self.calls = self.registry.counter(
            "guardian_calls_total",
            "forwarded client calls, by tenant and method",
        )
        self.call_latency = self.registry.histogram(
            "guardian_call_latency_cycles",
            "modelled client-visible latency per call "
            "(transport + server work for synchronous calls)",
        )
        self.dispatch_cycles = self.registry.histogram(
            "guardian_dispatch_cycles",
            "server cycles charged per dispatched call",
        )
        self.queue_wait = self.registry.histogram(
            "guardian_queue_wait_cycles",
            "client cycles a batched call waited before its flush",
        )
        self.fault_events = self.registry.counter(
            "guardian_fault_events_total",
            "supervisor failure records, by tenant, kind, action, node",
        )
        self.payload_mutations = self.registry.counter(
            "guardian_payload_mutations_total",
            "injected payload corruptions applied, by kind",
        )
        self.client_crashes = self.registry.counter(
            "guardian_client_crashes_total",
            "client processes that died mid-call",
        )
        self.migrations = self.registry.counter(
            "guardian_migrations_total",
            "live migration attempts, by source, target, outcome",
        )
        # Open-loop load harness families (repro.loadgen, DESIGN.md
        # §13). Fed only by the driver — a deployment that never runs
        # under load carries them declared-but-empty.
        self.sessions = self.registry.counter(
            "loadgen_sessions_total",
            "open-loop sessions, by class and outcome "
            "(completed / shed / rejected / within_slo)",
        )
        self.session_latency = self.registry.histogram(
            "loadgen_session_latency_cycles",
            "modelled open-loop session latency "
            "(queue wait + service), by class",
        )
        self.loadgen_capacity = self.registry.gauge(
            "loadgen_capacity_lanes",
            "service capacity (lanes) after the latest control tick",
        )
        # Elastic memory engine families (repro.core.elastic, DESIGN.md
        # §14). Fed only by the engine — a stock server (no elastic
        # knob on) carries them declared-but-empty.
        self.elastic_ops = self.registry.counter(
            "guardian_elastic_ops_total",
            "elastic memory operations, by op "
            "(shrink / compact / swap_out / swap_in)",
        )
        self.elastic_bytes = self.registry.counter(
            "guardian_elastic_bytes_total",
            "bytes moved or reclaimed by elastic operations, by op",
        )
        self.elastic_fragmentation = self.registry.gauge(
            "guardian_fragmentation_score",
            "largest-carveable / bytes-unpartitioned after the latest "
            "elastic operation (1.0 = nothing stranded)",
        )
        self.elastic_swapped = self.registry.gauge(
            "guardian_swapped_bytes",
            "bytes currently swapped out to host memory",
        )
        # The deploy front end (DESIGN.md §9): how much of the deploy
        # path was a bind. Host-side facts, on no modelled clock.
        self.deploy_images = self.registry.counter(
            "guardian_deploy_images_total",
            "module loads (kind=module) and charged patches (kind=patch)"
            " by whether the process computed the result (built) or"
            " already had it (shared)",
        )

    # -- hook-point helpers -------------------------------------------------------

    def call_recorder(self, tenant: str, method: str):
        """``record(latency_cycles)`` for one (tenant, method): counts
        the call and observes its latency in the per-method and the
        per-tenant series (the aggregate the p50/p99/p999 report renders
        without a per-method explosion). The label sets resolve here,
        once; a caller keeps the closure and pays only the records.

        Resolving creates the latency series, so make the recorder at
        the first record, where a per-call record would have created
        them. A refused (non-finite) record changes nothing."""
        counts = self.calls._series
        key = self.calls.key(tenant=tenant, method=method)
        by_method = self.call_latency.series_for(tenant=tenant,
                                                 method=method)
        by_tenant = self.call_latency.series_for(tenant=tenant)
        method_pending = by_method._pending
        tenant_pending = by_tenant._pending

        def record(latency_cycles: float) -> None:
            if not isfinite(latency_cycles):
                raise ValueError(f"histogram {by_method.family}: "
                                 f"non-finite value {latency_cycles!r}")
            counts[key] = counts.get(key, 0.0) + 1.0
            method_pending.append(latency_cycles)
            if len(method_pending) >= FOLD_BOUND:
                by_method._fold()
            tenant_pending.append(latency_cycles)
            if len(tenant_pending) >= FOLD_BOUND:
                by_tenant._fold()

        return record

    def dispatch_recorder(self, tenant: str, method: str):
        """``record(server_cycles)`` for one (tenant, method)'s
        dispatches (same first-record rule as :meth:`call_recorder`)."""
        return self.dispatch_cycles.series_for(tenant=tenant,
                                               method=method).observe

    def queue_wait_recorder(self, tenant: str):
        """``record(waited_cycles)`` for one tenant's batched calls
        (same first-record rule as :meth:`call_recorder`)."""
        return self.queue_wait.series_for(tenant=tenant).observe

    def record_session(self, cls: str, outcome: str,
                       latency_cycles: Optional[float] = None,
                       within_slo: bool = False) -> None:
        """One open-loop session's fate (the loadgen driver's hook).

        ``within_slo`` increments the class's compliance series — the
        goodput numerator — alongside the ``completed`` count;
        ``latency_cycles`` lands in the per-class histogram and the
        all-classes aggregate the latency-under-load report renders.
        """
        self.sessions.inc(cls=cls, outcome=outcome)
        if within_slo:
            self.sessions.inc(cls=cls, outcome="within_slo")
        if latency_cycles is not None:
            self.session_latency.observe(latency_cycles, cls=cls)
            self.session_latency.observe(latency_cycles)

    def record_capacity(self, lanes: int) -> None:
        self.loadgen_capacity.set(lanes)

    def record_elastic_op(self, op: str, nbytes: int) -> None:
        """One elastic memory operation (the engine's hook)."""
        self.elastic_ops.inc(op=op)
        self.elastic_bytes.inc(nbytes, op=op)

    def record_deploy_images(self, kind: str, built: int,
                             shared: int) -> None:
        """The server's deploy-path hook: ``kind`` is ``module`` (one
        per driver load) or ``patch`` (one per charged patch)."""
        if built:
            self.deploy_images.inc(built, kind=kind, outcome="built")
        if shared:
            self.deploy_images.inc(shared, kind=kind, outcome="shared")

    def record_elastic_state(self, score: float,
                             swapped_bytes: int) -> None:
        """The engine's post-operation gauges: fragmentation score and
        host-resident swap bytes."""
        self.elastic_fragmentation.set(score)
        self.elastic_swapped.set(swapped_bytes)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, meta: dict | None = None) -> dict:
        """JSON-safe dump of the registry and the retained spans."""
        spans = [{field: getattr(span, field) for field in _SNAPSHOT_FIELDS}
                 for span in self.tracer.spans()]
        return {
            "meta": dict(meta or {}),
            "metrics": self.registry.snapshot(),
            "spans": spans,
            "spans_dropped": self.tracer.spans_dropped,
            "prometheus": self.registry.render_prometheus(),
        }


@contextmanager
def maybe_span(telemetry: Optional[Telemetry], name: str, category: str,
               tenant: str = "", **attrs):
    """A tracer span when telemetry is on; a no-op when it is None.

    For cold hook sites (deploy, the supervisor). A site that wraps
    exactly one charge on a hot path tests ``telemetry is None`` itself
    and records a :meth:`~repro.telemetry.trace.SpanTracer.leaf`
    instead: entering this generator costs the stock server a context
    manager per call.
    """
    if telemetry is None:
        yield None
        return
    span = telemetry.tracer.begin(name, category, tenant, **attrs)
    try:
        yield span
    finally:
        telemetry.tracer.end(span)
