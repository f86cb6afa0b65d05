"""The ledger's own checks, at 1/20 scale.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly::

    PYTHONPATH=src:. python -m pytest benchmarks/ledger/test_ledger.py -q

About a minute: ``mix_train`` cannot shrink below one full replay.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import cli
from benchmarks.ledger import metrics as m
from benchmarks.ledger.harness import Harness
from benchmarks.ledger.tracing import LAYERS, Tracer

SCALE = 0.05
SEED = 7


@pytest.fixture(scope="module")
def passes():
    """workload -> (per-layer values, untraced, traced, mismatches)."""
    return {name: cli.measure_traced(name, SEED, SCALE)
            for name in m.WORKLOAD_NAMES}


class TestNames:
    def test_benchmark_json_is_the_spec_written_out(self):
        written = json.loads((cli.ROOT / "BENCHMARK.json").read_text())
        assert written == m.benchmark_json()

    def test_spec_fits_the_contract(self):
        spec = m.benchmark_json()
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
        unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
        assert 2 <= len(spec["workloads"]) <= 8
        assert 1 <= len(spec["end_to_end"]) <= 16
        assert 1 <= len(spec["per_layer"]) <= 128
        assert 1 <= spec["run_seconds"] <= 60
        names = [entry["name"] for key in
                 ("workloads", "end_to_end", "per_layer")
                 for entry in spec[key]]
        assert len(names) == len(set(names))
        assert all(name.match(entry) for entry in names)
        for entry in spec["workloads"]:
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert unit.match(entry["unit"])
            assert entry["better"] in ("lower", "higher")
        assert all(0 < entry["bound"] <= 0.25
                   for entry in spec["end_to_end"])
        setup = [entry for entry in spec["end_to_end"]
                 if entry["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s",
                          "better": "lower", "bound": 0.25}]

    def test_every_metric_is_emitted_with_a_unit(self, passes):
        for workload, (values, untraced, _, _) in passes.items():
            assert set(values) == {name for name, *_ in m.PER_LAYER}
            end_to_end = m.end_to_end(untraced, untraced["setup_s"])
            assert set(end_to_end) == {name for name, *_ in m.END_TO_END}
            for name, value in {**values, **end_to_end}.items():
                assert m.UNITS[name], name
                assert value == value, (workload, name)  # not NaN
            for name, *_ in m.GATED:
                assert end_to_end[name] > 0, (workload, name)


class TestOutputChecks:
    def test_no_operation_fails(self, passes):
        for workload, (_, untraced, traced, _) in passes.items():
            for result in (untraced, traced):
                assert result["failed"] == 0, result["failures"]
                # Checks ran on top of the counted calls.
                assert result["attempted"] > result["calls"], workload

    def test_out_of_partition_transfer_is_rejected_every_round(self, passes):
        values, untraced, _, _ = passes["memops_full"]
        # One attempt per round, warm-up rounds included.
        assert values["server.transfers_rejected"] > untraced["rounds"]

    def test_a_store_reaching_the_victim_is_caught(self):
        """The hostile-tenant checks are live: plant the store the
        fence prevents and the round must fail."""
        from benchmarks.ledger import workloads as w

        harness = Harness(spawned_ns=0)
        storm = w.Storm(harness, w.stock_config(), SEED)
        storm.round(0)
        storm.verify(0)
        assert harness.failed == 0
        victim = storm.tenants[storm.VICTIM]
        storm.device.memory.write(victim.buffer + storm.GAP_OFFSET,
                                  storm.attack_value)
        storm.device.memory.write(storm.wrapped, bytes(4))
        storm.verify(0)
        messages = " ".join(harness.messages)
        assert "hostile store reached the victim" in messages
        assert "not found wrapped into the offender" in messages
        # Both tenants' buffer images changed as well.
        assert harness.failed == 4, harness.messages

    def test_traced_pass_reproduces_the_untraced_one(self, passes):
        for workload, (_, untraced, traced, mismatches) in passes.items():
            assert mismatches == [], workload
            assert traced["sha256"] == untraced["sha256"]

    def test_exact_guard_sees_a_difference(self, passes):
        _, untraced, _, _ = passes["storm_stock"]
        other = dict(untraced,
                     model_device_cycles=untraced["model_device_cycles"] + 1)
        assert len(cli.exact_mismatches([untraced, other], "x")) == 1

    def test_storm_arms_issue_identical_calls(self, passes):
        stock = passes["storm_stock"][1]
        full = passes["storm_full"][1]
        assert stock["sha256"] == full["sha256"]
        assert stock["calls"] == full["calls"]
        assert stock["sim_instr"] == full["sim_instr"]


class TestLedger:
    def test_trace_layer_replays_on_storm_and_never_on_memops(self, passes):
        assert passes["memops_full"][0]["tracecache.replay_rate"] == 0
        assert passes["storm_full"][0]["tracecache.replay_rate"] > 0.3
        assert passes["storm_full"][0]["tracecache.traces_compiled"] == 6
        assert passes["storm_stock"][0]["tracecache.calls"] == 0

    def test_layers_account_for_the_traced_wall(self, passes):
        for workload, (values, _, _, _) in passes.items():
            shares = sum(values[f"{layer}.share"] for layer in LAYERS)
            assert shares + values["bench.unattributed_share"] == \
                pytest.approx(1.0, abs=1e-6), workload
            assert values["bench.unattributed_share"] < 0.10, workload
            per_call = sum(values[f"{layer}.self_us_per_call"]
                           for layer in LAYERS)
            assert per_call == pytest.approx(
                values["bench.traced_wall_us_per_call"]
                * (1 - values["bench.unattributed_share"]))

    def test_shape(self, passes):
        def largest(workload):
            values = passes[workload][0]
            return max(LAYERS, key=lambda layer: values[f"{layer}.share"])

        assert largest("storm_stock") == "gpu.execute"
        assert largest("storm_full") == "gpu.execute"
        assert largest("mix_train") == "gpu.execute"
        assert largest("session_churn") == "ptx"
        memops = passes["memops_full"][0]
        core = ("client", "ipc", "server", "bounds", "allocator",
                "tracecache", "telemetry")
        assert sum(memops[f"{layer}.share"] for layer in core) > 0.5
        assert memops["gpu.execute.calls"] == 0

    def test_wrappers_are_uninstalled(self):
        from repro.core.server import GuardianServer
        from repro.driver import jit
        from repro.ptx import parser

        before = (GuardianServer.malloc, jit.parse_module,
                  parser.parse_module)
        tracer = Tracer()
        tracer.install()
        try:
            assert GuardianServer.malloc is not before[0]
            assert jit.parse_module is parser.parse_module is not before[1]
        finally:
            tracer.uninstall()
        assert (GuardianServer.malloc, jit.parse_module,
                parser.parse_module) == before


class TestContractRun:
    def test_last_line_is_the_result_object(self):
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.ledger", "--workload",
             "memops_full", "--seed", "3", "--seconds",
             str(m.RUN_SECONDS * SCALE), "--trace", "0"],
            cwd=cli.ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, *_ in m.GATED}
        for name, entry in result["metrics"].items():
            assert entry["unit"] == m.UNITS[name] and entry["value"] > 0
