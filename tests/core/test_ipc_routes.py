"""The IPC channel's per-method routes.

A channel resolves a method's handler, span name and telemetry
recorders once, at the method's first call, and keeps them. These
tests pin what that may not change: the handler is looked up once per
(channel, method) and no more, an unknown method is refused before
anything is charged, queued or traced, a supervising target still
supervises every call, and a cluster migration's traces read byte for
byte what they read when every call resolved its handler afresh.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterConfig, GuardianCluster
from repro.core.client import GuardianClient
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.core.supervisor import TenantSupervisor
from repro.driver.fatbin import build_fatbin
from repro.errors import IPCError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.telemetry.export import to_chrome_trace

from tests.conftest import saxpy_module

#: The server methods a client forwards (everything else a channel or
#: client reads from its target is configuration).
FORWARDED = frozenset({
    "attach", "detach", "malloc", "free", "memcpy_h2d", "memcpy_d2h",
    "memcpy_d2d", "memset", "register_fatbin", "load_module_ptx",
    "launch_kernel", "create_stream", "synchronize", "get_spec",
    "grow_partition", "shrink_partition",
})


class CountingTarget:
    """Delegates to a server and counts handler lookups by name."""

    def __init__(self, server):
        self._server = server
        self.lookups = Counter()

    def __getattr__(self, name):
        if name in FORWARDED:
            self.lookups[name] += 1
        return getattr(self._server, name)


def _server(**overrides):
    return GuardianServer(Device(QUADRO_RTX_A4000), FencingMode.BITWISE,
                          config=ServerConfig.traced(telemetry=True,
                                                     **overrides))


class TestOneLookupPerMethod:
    def test_batching_workload(self):
        server = _server()
        fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
        payload = np.arange(16, dtype=np.float32).tobytes()
        targets = []
        for index in range(2):
            target = CountingTarget(server)
            client = GuardianClient(target, f"tenant{index}", 1 << 20,
                                    batching=True)
            handle = client.register_fatbin(fatbin)["saxpy"]
            buffer = client.malloc(512)
            for _ in range(5):
                client.memcpy_h2d(buffer, payload)
                client.memcpy_h2d(buffer + 256, payload)
                client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                                     [buffer, buffer + 256, 2.0, 16])
                client.synchronize()
                client.memcpy_d2h(buffer, 64)
                client.free(client.malloc(128))
            client.close()
            targets.append(target)
        assert server.stats.launches == 10
        for target in targets:
            assert target.lookups == Counter({
                "attach": 1, "register_fatbin": 1, "malloc": 1,
                "memcpy_h2d": 1, "launch_kernel": 1, "synchronize": 1,
                "memcpy_d2h": 1, "free": 1, "detach": 1,
            })


class TestUnknownMethod:
    @pytest.mark.parametrize("sync", [True, False])
    def test_refused_before_anything_moves(self, sync):
        server = _server()
        client = GuardianClient(server, "alice", 1 << 20, batching=True)
        buffer = client.malloc(256)
        client.memset(buffer, 0, 256)  # queued: the channel holds a batch
        channel = client.channel
        tracer = server.telemetry.tracer
        stats = dataclasses.replace(channel.stats)
        spans = tracer.spans()
        next_trace = tracer.new_trace()
        with pytest.raises(IPCError, match="no_such_call"):
            channel.call("no_such_call", 1, payload_bytes=64, sync=sync)
        assert channel.stats == stats
        assert channel.queued_calls == 1
        assert tracer.spans() == spans
        assert tracer.new_trace() == next_trace + 1
        # The channel still works, and the queued call is still there.
        assert client.synchronize() is None
        assert channel.queued_calls == 0
        assert channel.stats.batched_messages == stats.batched_messages + 1


class TestSupervisedTarget:
    def test_fault_fires_on_a_methods_second_call(self):
        """The route keeps the supervisor's handler, which supervises
        every call: a fault planned for the second ``malloc`` fires."""
        plan = FaultPlan([FaultSpec(kind=FaultKind.ALLOC_EXHAUST,
                                    tenant="alice", op="malloc",
                                    at_call=2)], seed=7)
        server = _server()
        supervisor = TenantSupervisor(server, plan=plan)
        client = GuardianClient(supervisor, "alice", 1 << 20)
        client.malloc(128)
        assert supervisor.records == []
        with pytest.raises(Exception) as failure:
            client.malloc(128)
        assert not isinstance(failure.value, AssertionError)
        assert [(record.op, record.kind) for record in
                supervisor.records] == [("malloc", "alloc_exhaust")]
        client.malloc(128)
        assert len(supervisor.records) == 1


# --------------------------------------------------------------------------
# Golden: a three-node cluster migration
# --------------------------------------------------------------------------


def cluster_run():
    """Three tenants on a three-node traced cluster run sync-delimited
    (h2d, h2d, launch) blocks, so traces compile, replay and restart
    cold after each move. ``t0`` migrates once and ``t1`` twice, each
    followed by more blocks on the new node."""
    cluster = GuardianCluster(3, config=ClusterConfig(
        server_config=ServerConfig.traced(telemetry=True)))
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    payload = np.arange(16, dtype=np.float32).tobytes()
    tenants = []
    for index in range(3):
        session = cluster.attach(f"t{index}", 1 << 20)
        client = session.client
        handle = client.register_fatbin(fatbin)["saxpy"]
        tenants.append((client, handle, client.malloc(512)))

    def blocks(count):
        for _ in range(count):
            for client, handle, buffer in tenants:
                client.memcpy_h2d(buffer, payload)
                client.memcpy_h2d(buffer + 256, payload)
                client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                                     [buffer, buffer + 256, 2.0, 16])
                client.synchronize()

    blocks(4)
    for name, node in (("t0", 1), ("t1", 2), ("t1", 1)):
        assert cluster.migrate(name, target=cluster.nodes[node],
                               reason="golden", trigger="operator")
        blocks(2)
    reads = [client.memcpy_d2h(buffer, 64) for client, _, buffer in tenants]
    cluster.synchronize()
    return cluster, reads


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


#: sha256 of the cluster control plane's Chrome trace and of each
#: node server's, in node order.
CLUSTER_GOLDEN = {
    "cluster": "4ba78597664b64e00bc0b8de0274f2367a8161bfa5558571ee859fc46a95135d",
    "nodes": [
        "8145eba7c4879e8703092713249568607c130476ae355bc8fa8a6aea9907f924",
        "4253c1c5042b5ea7564880cd669ec7392707fd8bbcf32f74cc808e71eebe87e2",
        "a720ae5e0918a32d86421668ec4816db2e0e9b75a02b4728e40291dd81ce840d",
    ],
}


class TestClusterGolden:
    def test_migration_traces_are_byte_identical(self):
        cluster, reads = cluster_run()
        assert all(len(raw) == 64 for raw in reads)
        assert [client.rebases for client in
                (cluster.tenants[name].client for name in ("t0", "t1"))
                ] == [1, 2]
        assert {
            "cluster": _sha(to_chrome_trace(
                cluster.telemetry.tracer.spans())),
            "nodes": [_sha(to_chrome_trace(
                node.server.telemetry.tracer.spans()))
                for node in cluster.nodes],
        } == CLUSTER_GOLDEN
