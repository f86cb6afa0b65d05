"""Profiler and reporting tests.

The hot-path, lane and failure reports read the counters the server,
the channels and the supervisors keep. Their text is pinned by sha256
per scenario, so a change to where a number comes from has to leave
every byte of every report where it was.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro import GuardianSystem
from repro.analysis.metrics import Profiler
from repro.analysis.reporting import (
    FEATURE_MATRIX,
    overhead_vs,
    percent,
    render_failure_report,
    render_feature_matrix,
    render_hotpath_report,
    render_lane_report,
    render_spec_table,
    render_table,
)
from repro.cluster import ClusterConfig, GuardianCluster, PlacementPolicy
from repro.core.policy import FencingMode
from repro.core import supervisor as supervision
from repro.core.server import GuardianServer, ServerConfig, ServerStats
from repro.core.supervisor import TenantSupervisor
from repro.driver.fatbin import build_fatbin
from repro.errors import TransientIPCFault
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from benchmarks.conftest import run_sharing_workload
from tests.conftest import saxpy_module, upload_array
from tests.core.test_concurrency import (
    aborted_channel,
    make_server,
    run_workload,
)
from tests.faults.test_supervisor import quarantined_supervisor


class TestProfiler:
    def test_collects_per_kernel(self, native_stack):
        device, _, runtime = native_stack
        profiler = Profiler(device)
        handles = runtime.registerFatBinary(
            build_fatbin(saxpy_module(), "lib", "11.7"))
        xs = np.ones(64, dtype=np.float32)
        x_buf = upload_array(runtime, xs)
        y_buf = runtime.cudaMalloc(256)
        for _ in range(3):
            runtime.cudaLaunchKernel(handles["saxpy"],
                                     (1, 1, 1), (64, 1, 1),
                                     [y_buf, x_buf, 1.0, 64])
        profiles = profiler.collect()
        assert profiles["saxpy"].launches == 3
        assert profiles["saxpy"].loads > 0
        assert 0.0 <= profiles["saxpy"].l1_hit_ratio <= 1.0

    def test_incremental_collection(self, native_stack):
        device, _, runtime = native_stack
        profiler = Profiler(device)
        handles = runtime.registerFatBinary(
            build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = runtime.cudaMalloc(256)
        runtime.cudaLaunchKernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                                 [buf, buf, 1.0, 32])
        first = profiler.collect()
        assert first["saxpy"].launches == 1
        second = profiler.collect()
        assert second == {}

    def test_overall_aggregation(self, native_stack):
        device, _, runtime = native_stack
        profiler = Profiler(device)
        handles = runtime.registerFatBinary(
            build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = runtime.cudaMalloc(256)
        runtime.cudaLaunchKernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                                 [buf, buf, 1.0, 32])
        profiles = profiler.collect()
        overall = Profiler.overall(profiles)
        assert overall.launches == 1
        assert overall.total_instructions == (
            profiles["saxpy"].total_instructions)


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"],
                            [["alpha", 1], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in lines[3]  # title, header, rule, rows
        assert len(lines) == 5

    def test_spec_table_contains_both_gpus(self):
        text = render_spec_table()
        assert "Quadro RTX A4000" in text
        assert "GeForce RTX 3080 Ti" in text
        assert "28" in text  # L1 latency

    def test_feature_matrix_guardian_dominates(self):
        """Table 6's point: Guardian is the only row with every
        property."""
        full_rows = [name for name, features in FEATURE_MATRIX.items()
                     if all(features.values())]
        assert full_rows == ["Guardian"]

    def test_feature_matrix_renders(self):
        text = render_feature_matrix()
        assert "G-NET" in text
        assert "MASK" in text

    def test_percent_and_overhead(self):
        assert percent(0.0484) == "4.8%"
        assert overhead_vs(100.0, 109.0) == pytest.approx(0.09)
        assert overhead_vs(0.0, 5.0) == 0.0


def supervisor_on(node=""):
    server = GuardianServer(Device(QUADRO_RTX_A4000), FencingMode.BITWISE)
    return TenantSupervisor(server, node=node)


def cluster_after_gauntlet(seed=1):
    plan = FaultPlan.node_chaos(
        seed=seed, nodes=("node0", "node1", "node2"),
        tenants=("a", "b", "c"),
    )
    cluster = GuardianCluster(
        3, config=ClusterConfig(placement=PlacementPolicy(pack=False)),
        fault_plan=plan,
    )
    for name in ("a", "b", "c"):
        session = cluster.attach(name, 1 << 20)
        ptr = session.client.malloc(256)
        session.client.memcpy_h2d(ptr, name.encode() * 256)
    for _ in range(24):
        cluster.tick()
    return cluster


def merged_supervisors():
    """Two node-stamped supervisors: one quarantine on nodeA, two on
    nodeB."""
    left, right = supervisor_on("nodeA"), supervisor_on("nodeB")
    for supervisor, app_id in ((left, "a"), (right, "b"), (right, "c")):
        supervisor.server.attach(app_id, 1 << 20)
        supervisor.quarantine_tenant(app_id, "test eviction")
    return left, right


def retrying_supervisor():
    """One recovered retry, one exhausted retry and a deadline."""
    system = GuardianSystem(
        fault_plan=FaultPlan([
            FaultSpec(FaultKind.IPC_DROP, tenant="a", op="malloc", times=2),
            FaultSpec(FaultKind.IPC_CORRUPT, tenant="a", op="free",
                      times=99),
            FaultSpec(FaultKind.IPC_DELAY, tenant="a", op="synchronize",
                      magnitude=1.0),
        ], seed=0),
    )
    with mock.patch.object(supervision, "DEADLINE_CYCLES", 100_000.0):
        tenant = system.attach("a", 1 << 20)
        with pytest.raises(TransientIPCFault):
            tenant.runtime.cudaFree(tenant.runtime.cudaMalloc(256))
        tenant.runtime.cudaDeviceSynchronize()
    return system.supervisor


def hotpath_report(config, title):
    return render_hotpath_report(*run_sharing_workload(config), title=title)


#: scenario -> (renders the scenario's report, sha256 of its text).
GOLDEN = {
    "hotpath_disabled": (
        lambda _: hotpath_report(ServerConfig(charge_patch_cycles=True),
                                 "caches disabled"),
        "2b0a848dec17aa16696415a63a5bac9aa712d33e47833ddb171c9938b5dba2b5"),
    "hotpath_enabled": (
        lambda _: hotpath_report(
            ServerConfig.hotpath(charge_patch_cycles=True),
            "caches enabled"),
        "22ee23e2e3782ae4221b27f4bca15176bf3b669cd1ce84a8e188d14323de8adf"),
    "hotpath_traced": (
        lambda tmp_path: hotpath_report(
            ServerConfig.traced(charge_patch_cycles=True,
                                patch_cache_dir=str(tmp_path)),
            "trace-specialized"),
        "c54db01203a3de7f5a7a9862b89de4811d7f0857cedad018cb22f570d4c40d74"),
    "hotpath_aborted": (
        lambda _: render_hotpath_report(*aborted_channel()),
        "22c66567829b5e26e89ebb188b13d02d93354dfa9e33984fcd3ac4d7dceaf2d3"),
    "lanes_8": (
        lambda _: render_lane_report(
            run_sharing_workload(ServerConfig.concurrent(), 8, 25, 5)[0],
            title="Dispatch lanes (8 tenants)"),
        "40c6eaa90f52f6ed97fe057b1de3721338b5ade521860e207d4521d5745ea872"),
    "lanes_serial": (
        lambda _: render_lane_report(run_workload(ServerConfig(), 2)),
        "0946a7ba63d0486dabde6d3acd95269316cd97a5ae0c58deb138a50c7ab85422"),
    "lanes_idle": (
        lambda _: render_lane_report(make_server(ServerConfig.concurrent())),
        "0896728fa547c47f1c22ee527b300a551eb4f502311326f45f17f49c8362962d"),
    "failure_quarantine": (
        lambda _: render_failure_report(quarantined_supervisor()),
        "a4744a0d18876bb58394c7fab720a483dd3d2aef6849f2499ba973dd0d0507a5"),
    "failure_retries": (
        lambda _: render_failure_report(retrying_supervisor()),
        "6d61411145c3eb1f176bd15e38f58b88816584c155047cdf7b4c2dfc389f2834"),
    "failure_merged": (
        lambda _: render_failure_report(*merged_supervisors()),
        "c35367d367bf7ca5c78cc3cc39dbc144519b08c26fed0299c19432ce8df7a405"),
    "failure_cluster": (
        lambda _: render_failure_report(cluster=cluster_after_gauntlet(),
                                        title="Cluster failures"),
        "3f0ef94cdca1ac292dd582565cfe1672dcd5427d0113a1a6ddd86d39a8c1ba1b"),
    "failure_empty": (
        lambda _: render_failure_report(supervisor_on()),
        "779dd9a2d707ebc701a1edaff143db0d446d17c9b1bab5ceb3bc72773602e3de"),
}


class TestReportGoldens:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_report_is_byte_identical(self, scenario, tmp_path):
        render, digest = GOLDEN[scenario]
        text = render(tmp_path)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text


class TestClusterFaultMetrics:
    def test_records_group_by_node(self):
        cluster = cluster_after_gauntlet()
        report = render_failure_report(cluster=cluster)
        rows = domain_rows(report)
        assert [row[0] for row in rows] == ["node0", "node1", "node2"]
        for _, records, score, health, actions in rows:
            assert score != "-" and health != "-"
            counts = [int(action.split("=")[1])
                      for action in actions.split(", ") if action != "-"]
            assert int(records) == sum(counts)
        # Seed 1 evicts a tenant off the downed node.
        assert "evictions: 1" in report

    def test_single_supervisor_records_land_in_local_bucket(self):
        supervisor = supervisor_on()
        supervisor.server.attach("a", 1 << 20)
        supervisor.quarantine_tenant("a", "test")
        rows = domain_rows(render_failure_report(supervisor))
        assert rows == [["<local>", "1", "-", "-", "quarantined=1"]]

    def test_report_renders_failure_domains(self):
        report = render_failure_report(cluster=cluster_after_gauntlet(),
                                       title="Cluster failures")
        assert "Failure domains" in report
        assert "fd score" in report
        assert "node2" in report
        assert "down" in report   # the victim node's health state
        assert "inf" in report    # its failure-domain score
        assert "migrations:" in report

    def test_report_without_nodes_has_no_domain_table(self):
        report = render_failure_report()
        assert "Failure domains" not in report
        assert "migrations:" not in report

    def test_report_groups_merged_supervisors_per_node(self):
        """Two node-stamped supervisors keep their records in separate
        per-node rows."""
        report = render_failure_report(*merged_supervisors())
        assert domain_rows(report) == [
            ["nodeA", "1", "-", "-", "quarantined=1"],
            ["nodeB", "2", "-", "-", "quarantined=2"],
        ]
        assert "quarantines: 3 (3,145,728 bytes scrubbed)" in report


def domain_rows(report: str) -> list[list[str]]:
    """The cells of the report's "Failure domains" table."""
    lines = report.splitlines()
    rows = []
    for line in lines[lines.index("Failure domains") + 3:]:
        if line.startswith("retries:"):
            return rows
        cells = line.split(None, 4)
        rows.append(cells[:4] + [cells[4].strip()])
    return rows


class TestDenominatorGuards:
    """Degenerate (pre-dispatch) runs never divide by zero - the
    reports render well-defined sentinel figures instead."""

    def test_overlap_efficiency_empty_snapshot_is_zero(self):
        report = render_lane_report(make_server(ServerConfig.concurrent()))
        assert "(0.0% of 0 lanes)" in report

    def test_overlap_efficiency_serial_with_work_is_one(self):
        report = render_lane_report(run_workload(ServerConfig(), 1))
        assert "(100.0% of 0 lanes)" in report

    def test_overlap_efficiency_before_any_dispatch(self, guardian_system):
        _, server = guardian_system
        assert server.lane_speedup() == 1.0
        assert "1.00x modelled speedup (0.0% of 0 lanes)" in (
            render_lane_report(server))

    def test_retry_success_rate_empty_is_zero(self):
        assert "success rate 0.0%" in render_failure_report()

    def test_retry_success_rate_before_any_dispatch(self):
        assert "success rate 0.0%" in render_failure_report(supervisor_on())

    def test_hotpath_report_renders_zero_call_snapshot(self):
        """The report renders a server that saw no call without dividing
        by zero, and the trace / disk-cache rows only appear once those
        subsystems saw traffic - a trace-off report stays byte-stable."""
        server = make_server()
        report = render_hotpath_report(server)
        assert "trace replay" not in report
        assert "traces:" not in report
        assert "patch disk cache" not in report
        assert "0.0%" in report  # rates render as guarded zeros

        server.stats = ServerStats(
            trace_eligible_ops=10, trace_replay_ops=5, traces_compiled=1,
            trace_replays=2, patch_disk_hits=1, patch_disk_writes=1)
        report = render_hotpath_report(server)
        assert "trace replay" in report
        assert "traces: 1 compiled" in report
        assert "patch disk cache: 1 hits, 1 writes" in report
