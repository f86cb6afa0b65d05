"""The address-virtualising shim under both kinds of move.

A compaction moves an :class:`ElasticClient` tenant within its node; a
live migration moves a :class:`ClusterClient` tenant to another node.
Both leave the tenant with old virtual pointers and a nonzero delta,
and one shim translates for both.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, GuardianCluster
from repro.core.elastic import ElasticClient
from repro.core.server import GuardianServer, ServerConfig
from repro.errors import PartitionError
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module
from repro.runtime.export_table import EXPORT_TABLE_UUIDS

from tests.conftest import saxpy_kernel

PARTITION = 1 << 20


def compacted():
    """``alice`` sits above a departed pad: compaction slides the
    partition down."""
    server = GuardianServer(Device(QUADRO_RTX_A4000),
                            config=ServerConfig.elastic())
    clients = {}
    for app_id in ("pad", "alice"):
        clients[app_id] = ElasticClient(server, app_id, PARTITION)
        server.elastic.bind_client(app_id, clients[app_id])
    clients["pad"].close()
    return clients["alice"], lambda: server.elastic.compact("alice")


def migrated():
    """``alice`` sits above a pad on node0 and moves to node1's first
    slot."""
    cluster = GuardianCluster(2)
    cluster.attach("pad", 2 * PARTITION)
    client = cluster.attach("alice", PARTITION).client
    return client, lambda: cluster.migrate("alice", target=cluster.nodes[1])


MOVERS = [pytest.param(compacted, id="compact"),
          pytest.param(migrated, id="migrate")]


@pytest.mark.parametrize("mover", MOVERS)
def test_grow_refused_after_relocation(mover):
    client, move = mover()
    assert move()
    assert client.delta != 0
    with pytest.raises(PartitionError, match="growth after a relocation"):
        client.grow_partition(4 * PARTITION)


@pytest.mark.parametrize("mover", MOVERS)
def test_every_translated_method_on_old_pointers(mover):
    client, move = mover()
    handles = client.load_module_ptx(
        emit_module(build_module([saxpy_kernel()])))
    vectors = client.malloc(512)
    client.memcpy_h2d(vectors + 256, np.ones(32, np.float32).tobytes())
    old = client.malloc(4096)
    client.memcpy_h2d(old, b"\xab" * 4096)
    client.synchronize()
    assert move()
    assert client.delta != 0

    client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                         [vectors, vectors + 256, 2.0, 32])
    client.synchronize()
    out = np.frombuffer(client.memcpy_d2h(vectors, 128), np.float32)
    assert np.allclose(out, 2.0)

    fresh = client.malloc(4096)
    assert fresh & -PARTITION == old & -PARTITION  # handed out virtual
    client.memcpy_d2d(fresh, old, 4096)
    client.memset(old, 0x5A, 4096)
    client.synchronize()
    assert client.memcpy_d2h(fresh, 4096) == b"\xab" * 4096
    assert client.memcpy_d2h(old, 4096) == b"\x5a" * 4096
    client.free(old)
    assert client.malloc(4096) == old

    occupancy = client.get_export_table(EXPORT_TABLE_UUIDS[4])
    assert occupancy["occupancyMaxActiveBlocks"]() == \
        client.device_spec().max_resident_warps * 32 // 128


def test_cluster_tenant_on_elastic_node_survives_compact_then_migrate():
    cluster = GuardianCluster(2, config=ClusterConfig(
        server_config=ServerConfig.elastic()))
    cluster.attach("pad", PARTITION)
    session = cluster.attach("alice", PARTITION)
    client = session.client
    ptr = client.malloc(8192)
    client.memcpy_h2d(ptr, b"\xab" * 8192)
    cluster.detach("pad")
    home = session.node
    assert home.server.elastic.compact("alice") is not None
    assert client.delta != 0
    assert client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192

    # A hole below alice's landing slot on the target, so the target's
    # engine has a compaction to run after the move.
    target = cluster.nodes[1]
    target.server.attach("squatter", PARTITION)
    assert cluster.migrate("alice", target=target)
    assert client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192
    target.server.detach("squatter")
    assert target.server.elastic.compact("alice") is not None
    assert client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192
    assert client.rebases == 3
