"""Deployment harness tests (the Fig. 7 machinery)."""

import pytest

from repro.core.policy import FencingMode
from repro.sharing import AppSpec, build_mix, run_deployment
from repro.sharing.workload_mixes import MIXES, AppDef, EPOCH_SCALE


def tiny_workload(value=7):
    def workload(runtime):
        address = runtime.cudaMalloc(256)
        runtime.cudaMemcpyH2D(address, bytes([value]) * 256)
        assert runtime.cudaMemcpyD2H(address, 256) == bytes([value]) * 256
        runtime.cudaDeviceSynchronize()

    return workload


class TestHarness:
    @pytest.mark.parametrize("deployment", [
        "native", "mps", "guardian-noprot", "guardian",
    ])
    def test_every_deployment_runs(self, deployment):
        apps = [AppSpec(f"app{i}", tiny_workload(i + 1),
                        partition_bytes=1 << 20) for i in range(2)]
        run = run_deployment(deployment, apps)
        assert run.deployment == deployment
        assert len(run.apps) == 2
        assert run.makespan_seconds > 0

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError):
            run_deployment("vmware", [])

    @pytest.mark.parametrize("max_blocks", [0, -1])
    def test_max_blocks_below_one_rejected(self, max_blocks):
        apps = [AppSpec("app0", tiny_workload(), 1 << 20)]
        with pytest.raises(ValueError, match=f"max_blocks.* {max_blocks}"):
            run_deployment("guardian", apps, max_blocks=max_blocks)

    def test_native_time_shares(self):
        apps = [AppSpec(f"app{i}", tiny_workload(), 1 << 20)
                for i in range(3)]
        run = run_deployment("native", apps)
        assert run.context_switches >= 1

    def test_spatial_no_switches(self):
        apps = [AppSpec(f"app{i}", tiny_workload(), 1 << 20)
                for i in range(3)]
        run = run_deployment("guardian", apps)
        assert run.context_switches == 0

    def test_per_app_results_tagged(self):
        apps = [AppSpec("alpha", tiny_workload(), 1 << 20),
                AppSpec("beta", tiny_workload(), 1 << 20)]
        run = run_deployment("mps", apps)
        assert {a.app_id for a in run.apps} == {"alpha", "beta"}
        for app in run.apps:
            assert app.wall_seconds >= app.device_seconds
            assert app.wall_seconds >= app.host_seconds


class TestMixes:
    def test_table4_inventory(self):
        assert set(MIXES) == set("ABCDEFGHIJKLMNOP")

    def test_client_counts_match_table4(self):
        assert len(MIXES["A"]) == 2
        assert len(MIXES["B"]) == 4
        assert len(MIXES["K"]) == 5
        assert len(MIXES["L"]) == 6
        assert len(MIXES["P"]) == 4

    def test_same_vs_different_apps(self):
        # A-H are homogeneous; I-P are mixed.
        for mix_id in "ABCDEFGH":
            names = {d.name for d in MIXES[mix_id]}
            assert len(names) == 1, mix_id
        for mix_id in "IJKLMNOP":
            names = {d.name for d in MIXES[mix_id]}
            assert len(names) > 1, mix_id

    def test_epoch_scaling(self):
        lenet = AppDef(kind="ml", name="lenet", paper_epochs=500)
        assert lenet.epochs == 500 // EPOCH_SCALE
        tiny = AppDef(kind="ml", name="siamese", paper_epochs=30)
        assert tiny.epochs == 1  # floor of 1

    def test_build_mix_unique_app_ids(self):
        specs = build_mix("K")
        ids = [spec.app_id for spec in specs]
        assert len(ids) == len(set(ids))

    def test_build_mix_unknown_id(self):
        with pytest.raises(KeyError):
            build_mix("Z")


class TestShapeProperties:
    """Coarse Fig. 7 shape assertions on one small mix (the full sweep
    lives in benchmarks/)."""

    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for deployment in ("native", "mps", "guardian-noprot",
                           "guardian"):
            results[deployment] = run_deployment(
                deployment, build_mix("A", samples=16, batch=16),
                max_blocks=4,
            )
        return results

    def test_spatial_beats_timesharing(self, runs):
        for deployment in ("mps", "guardian-noprot", "guardian"):
            assert (runs[deployment].makespan_seconds
                    < runs["native"].makespan_seconds)

    def test_guardian_close_to_mps(self, runs):
        """Protected spatial sharing costs only a few percent over
        unprotected MPS (paper: 4.84%)."""
        ratio = (runs["guardian"].makespan_seconds
                 / runs["mps"].makespan_seconds)
        assert 0.95 < ratio < 1.15

    def test_noprot_at_most_mps(self, runs):
        ratio = (runs["guardian-noprot"].makespan_seconds
                 / runs["mps"].makespan_seconds)
        assert ratio < 1.05

    def test_no_transfers_rejected_for_legal_apps(self, runs):
        assert runs["guardian"].transfers_rejected == 0
