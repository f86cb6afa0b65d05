"""End-to-end telemetry: off-by-default identity, span invariants,
reconciliation, export, and the report CLI."""

import json

import numpy as np
import pytest

from repro import GuardianSystem, ServerConfig
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.telemetry.export import (
    dump_snapshot,
    load_snapshot,
    to_chrome_trace,
    write_chrome_trace,
)


def run_workload(config: ServerConfig, fault_plan=None,
                 tenants=("alice", "bob")) -> GuardianSystem:
    """A small deterministic multi-tenant workload."""
    system = GuardianSystem(config=config, fault_plan=fault_plan)
    data = np.arange(64, dtype=np.float32).tobytes()
    for name in tenants:
        tenant = system.attach(name, 1 << 20)
        buffer = tenant.runtime.cudaMalloc(512)
        tenant.runtime.cudaMemcpyH2D(buffer, data)
        back = tenant.runtime.cudaMemcpyD2H(buffer, 256)
        assert back == data[:256]
    system.synchronize()
    return system


class TestOffByDefault:
    def test_stock_server_has_no_telemetry(self):
        system = run_workload(ServerConfig())
        assert system.server.telemetry is None
        assert system.device.telemetry is None

    def test_telemetry_never_charges_cycles(self):
        """The acceptance bar: identical modelled clocks on and off."""
        off = run_workload(ServerConfig())
        on = run_workload(ServerConfig(telemetry=True))
        assert on.server.stats.cycles == off.server.stats.cycles
        assert on.device.clock_cycles == off.device.clock_cycles
        for name in ("alice", "bob"):
            assert (
                on.tenants[name].client.channel.stats.client_cycles
                == off.tenants[name].client.channel.stats.client_cycles
            )

    def test_telemetry_identity_with_batching_and_faults(self):
        plan = lambda: FaultPlan(  # noqa: E731 — two identical plans
            [FaultSpec(kind=FaultKind.IPC_DROP, tenant="alice",
                       op="malloc", at_call=1, times=2)],
            seed=11,
        )
        off = run_workload(ServerConfig.hotpath(), fault_plan=plan())
        on = run_workload(ServerConfig.hotpath(telemetry=True),
                          fault_plan=plan())
        assert on.server.stats.cycles == off.server.stats.cycles


class TestSpanInvariants:
    def _spans(self, **config):
        system = run_workload(ServerConfig(telemetry=True, **config))
        return system, system.server.telemetry.tracer.spans()

    def test_server_track_children_are_contained(self):
        _, spans = self._spans()
        by_id = {span.span_id: span for span in spans}
        nested = 0
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.contains(span), (
                f"{span.name} [{span.start}, {span.end}] escapes "
                f"{parent.name} [{parent.start}, {parent.end}]"
            )
            assert span.trace_id == parent.trace_id
            nested += 1
        assert nested > 0

    def test_call_spans_reconcile_with_server_clock(self):
        system, spans = self._spans()
        call_sum = sum(
            span.cycles for span in spans if span.category == "call"
        )
        assert call_sum == pytest.approx(system.server.stats.cycles)

    def test_per_tenant_call_sums_partition_the_clock(self):
        system, spans = self._spans()
        per_tenant = {}
        for span in spans:
            if span.category == "call":
                per_tenant[span.tenant] = (
                    per_tenant.get(span.tenant, 0.0) + span.cycles
                )
        assert set(per_tenant) == {"alice", "bob"}
        assert sum(per_tenant.values()) == pytest.approx(
            system.server.stats.cycles
        )

    def test_expected_categories_present(self):
        _, spans = self._spans()
        categories = {span.category for span in spans}
        assert {"call", "bounds", "device"} <= categories

    def test_queue_spans_cover_batched_waits(self):
        system = run_workload(ServerConfig.hotpath(telemetry=True))
        spans = system.server.telemetry.tracer.spans()
        queue_spans = [s for s in spans if s.category == "queue"]
        assert queue_spans
        for span in queue_spans:
            assert span.track.startswith("client:")
            assert span.end >= span.start


class TestTraceStability:
    def test_retried_call_keeps_one_trace(self):
        """A dropped-then-resent crossing is one logical call: its
        fault span shares the call span's trace id."""
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.IPC_DROP, tenant="alice",
                       op="malloc", at_call=1, times=2)],
            seed=3,
        )
        system = run_workload(ServerConfig(telemetry=True),
                              fault_plan=plan)
        spans = system.server.telemetry.tracer.spans()
        fault_spans = [s for s in spans if s.category == "fault"]
        assert len(fault_spans) == 1
        fault = fault_spans[0]
        assert fault.name == "fault:ipc_drop"
        call = next(
            s for s in spans
            if s.category == "call" and s.span_id == fault.parent_id
        )
        assert call.name == "malloc" and call.tenant == "alice"
        assert fault.trace_id == call.trace_id
        assert call.contains(fault)
        # The recovery is also a metric event.
        telemetry = system.server.telemetry
        assert telemetry.fault_events.value(
            tenant="alice", kind="ipc_drop", action="retried",
            node="<local>",
        ) == 1

    def test_duplicate_suppression_stays_in_call_trace(self):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.IPC_DUPLICATE, tenant="bob",
                       op="malloc", at_call=1)],
            seed=3,
        )
        system = run_workload(ServerConfig(telemetry=True),
                              fault_plan=plan)
        spans = system.server.telemetry.tracer.spans()
        fault = next(s for s in spans if s.category == "fault")
        assert fault.name == "fault:ipc_duplicate"
        call = next(
            s for s in spans if s.span_id == fault.parent_id
        )
        assert call.trace_id == fault.trace_id
        assert call.tenant == "bob"

    def test_client_crash_counts(self):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CLIENT_CRASH, tenant="alice",
                       op="memcpy_h2d", at_call=1)],
            seed=5,
        )
        from repro.errors import ClientCrashed

        system = GuardianSystem(config=ServerConfig(telemetry=True),
                                fault_plan=plan)
        tenant = system.attach("alice", 1 << 20)
        buffer = tenant.runtime.cudaMalloc(256)
        with pytest.raises(ClientCrashed):
            tenant.runtime.cudaMemcpyH2D(buffer, b"x" * 256)
        telemetry = system.server.telemetry
        assert telemetry.client_crashes.value(
            tenant="alice", method="memcpy_h2d") == 1

    def test_ptx_mutation_counts(self):
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.PTX_TRUNCATE, tenant="alice",
                       op="load_module_ptx", at_call=1)],
            seed=5,
        )
        system = GuardianSystem(config=ServerConfig(telemetry=True),
                                fault_plan=plan)
        tenant = system.attach("alice", 1 << 20)
        from repro.ptx.emitter import emit_module
        from tests.conftest import saxpy_module

        with pytest.raises(Exception) as failure:
            tenant.client.load_module_ptx(emit_module(saxpy_module()))
        assert not isinstance(failure.value, AssertionError)
        telemetry = system.server.telemetry
        assert telemetry.payload_mutations.value(
            kind="ptx_truncate", payload="ptx_text") == 1


class TestDeviceTrack:
    def test_synchronize_emits_device_spans(self):
        system = run_workload(ServerConfig(telemetry=True))
        spans = system.server.telemetry.tracer.spans()
        device_spans = [s for s in spans if s.category == "device"]
        assert device_spans
        for span in device_spans:
            assert span.track == "gpu"
            assert span.tenant in ("alice", "bob")
            assert span.end >= span.start >= 0.0
            assert span.attrs["kind"] in ("kernel", "h2d", "d2h", "d2d")

    def test_device_spans_line_up_with_device_clock(self):
        system = run_workload(ServerConfig(telemetry=True))
        spans = system.server.telemetry.tracer.spans()
        last_end = max(
            s.end for s in spans if s.category == "device"
        )
        assert last_end <= system.device.clock_cycles + 1e-9


class TestExport:
    def test_chrome_trace_shape(self, tmp_path):
        system = run_workload(ServerConfig(telemetry=True))
        spans = system.server.telemetry.tracer.spans()
        trace = to_chrome_trace(spans)
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(spans)
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        for event in complete:
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]
        # One process row per track, stable pids.
        tracks = {s.track for s in spans}
        pids = {e["pid"] for e in complete}
        assert len(pids) == len(tracks)
        # Round-trips through JSON.
        path = write_chrome_trace(tmp_path / "trace.json", spans)
        assert json.loads(path.read_text())["traceEvents"]

    def test_snapshot_roundtrip_and_report(self, tmp_path, capsys):
        system = run_workload(ServerConfig(telemetry=True))
        path = dump_snapshot(tmp_path / "snap.json",
                             system.server.telemetry,
                             meta={"run": "test"})
        snapshot = load_snapshot(path)
        assert snapshot["meta"] == {"run": "test"}
        assert snapshot["spans"]
        assert "guardian_call_latency_cycles" in snapshot["prometheus"]

        from repro.__main__ import main

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Latency distributions" in out
        assert "p999" in out
        assert "tenant=alice" in out

        assert main(["report", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE guardian_calls_total counter" in out

    def test_report_quantiles_render_per_tenant(self, tmp_path, capsys):
        system = run_workload(ServerConfig(telemetry=True))
        path = dump_snapshot(tmp_path / "snap.json",
                             system.server.telemetry)
        from repro.__main__ import main

        main(["report", str(path)])
        out = capsys.readouterr().out
        # The per-tenant aggregate rows (no method label).
        assert "tenant=alice" in out and "tenant=bob" in out


class TestClusterTelemetry:
    def _cluster(self, plan=None):
        from repro.cluster import ClusterConfig, GuardianCluster

        config = ClusterConfig(
            server_config=ServerConfig(telemetry=True),
        )
        return GuardianCluster(2, config=config, fault_plan=plan)

    def test_migration_spans_and_counter(self):
        cluster = self._cluster()
        session = cluster.attach("tenant", 1 << 20)
        ptr = session.client.malloc(512)
        session.client.memcpy_h2d(ptr, b"m" * 512)
        assert cluster.migrate("tenant", reason="test",
                               trigger="operator")
        telemetry = cluster.telemetry
        assert telemetry is not None
        spans = telemetry.tracer.spans()
        parent = next(s for s in spans if s.name == "migrate:tenant")
        children = [s for s in spans
                    if s.parent_id == parent.span_id]
        assert {c.name for c in children} == {"snapshot", "restore"}
        for child in children:
            assert parent.contains(child)
            assert child.trace_id == parent.trace_id
        assert parent.attrs["outcome"] == "success"
        assert parent.cycles > 0
        outcomes = {
            labels["outcome"]
            for labels, _ in telemetry.migrations.series()
        }
        assert outcomes == {"success"}

    def test_failed_migration_marker(self):
        from repro.cluster import ClusterConfig, GuardianCluster

        # One node: a migration can never find a target.
        cluster = GuardianCluster(1, config=ClusterConfig(
            server_config=ServerConfig(telemetry=True)))
        session = cluster.attach("tenant", 1 << 20)
        session.client.malloc(512)
        assert not cluster.migrate("tenant", reason="no room",
                                   trigger="operator")
        spans = cluster.telemetry.tracer.spans()
        marker = next(s for s in spans if s.name == "migrate:tenant")
        assert marker.attrs["outcome"] == "failed"
        assert marker.cycles == 0.0

    def test_tick_publishes_health_gauges(self):
        cluster = self._cluster()
        cluster.tick()
        registry = cluster.telemetry.registry
        rung = registry.gauge("guardian_node_health_rung")
        score = registry.gauge("guardian_node_failure_domain_score")
        for node in cluster.nodes:
            assert rung.value(node=node.node_id) == 0.0
            assert score.value(node=node.node_id) == 0.0

    def test_down_node_gauge_stays_finite(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.node_chaos(seed=1,
                                    nodes=("node0", "node1"))
        cluster = self._cluster(plan=plan)
        for _ in range(16):
            cluster.tick()
        registry = cluster.telemetry.registry
        score = registry.gauge("guardian_node_failure_domain_score")
        for node in cluster.nodes:
            value = score.value(node=node.node_id)
            assert value is not None
            assert value == value  # not NaN
            assert value != float("inf")

    def test_cluster_telemetry_off_by_default(self):
        from repro.cluster import GuardianCluster

        assert GuardianCluster(2).telemetry is None
