"""The cluster gauntlet: drive a node down mid-workload, survive it.

CI shards this over ``GUARDIAN_NODE_FAULT_SEED`` 0–4 (one job each);
run locally without the variable and all five seeds execute. The
invariant under every seed: when :func:`FaultPlan.node_chaos` kills a
node, every tenant it hosted is either live-migrated (bytes intact,
still serving) or cleanly quarantined (scrubbed, recorded) — and
tenants on *other* nodes never notice.
"""

import os

import pytest

from repro.cluster import ClusterConfig, GuardianCluster, PlacementPolicy
from repro.errors import ReproError
from repro.faults.plan import FaultPlan

PARTITION = 1 << 20
TENANTS = ("a", "b", "c")
NODES = ("node0", "node1", "node2")
BEATS = 24

_env_seed = os.environ.get("GUARDIAN_NODE_FAULT_SEED")
SEEDS = [int(_env_seed)] if _env_seed is not None else list(range(5))


def run_gauntlet(seed: int):
    plan = FaultPlan.node_chaos(seed=seed, nodes=NODES, tenants=TENANTS)
    cluster = GuardianCluster(
        3,
        config=ClusterConfig(placement=PlacementPolicy(pack=False)),
        fault_plan=plan,
    )
    sessions = {}
    for name in TENANTS:
        session = cluster.attach(name, PARTITION)
        ptr = session.client.malloc(4096)
        session.client.memcpy_h2d(ptr, name.encode() * 4096)
        sessions[name] = (session, ptr)
    homes = {name: s.node.node_id for name, (s, _) in sessions.items()}
    for _ in range(BEATS):
        cluster.tick()
    return cluster, sessions, homes


@pytest.mark.parametrize("seed", SEEDS)
def test_node_loss_never_disrupts_bystanders(seed):
    cluster, sessions, homes = run_gauntlet(seed)
    downed = {n.node_id for n in cluster.nodes if not n.monitor.alive}
    assert downed, "node_chaos must take a node down"
    for name, (session, ptr) in sessions.items():
        if homes[name] not in downed:
            # Bystander: same node, same bytes, still serving.
            assert session.node.node_id == homes[name]
            assert session.client.rebases == 0
            assert session.client.memcpy_d2h(ptr, 4096) \
                == name.encode() * 4096


@pytest.mark.parametrize("seed", SEEDS)
def test_victims_migrated_or_cleanly_quarantined(seed):
    cluster, sessions, homes = run_gauntlet(seed)
    downed = {n.node_id for n in cluster.nodes if not n.monitor.alive}
    victims = [name for name in TENANTS if homes[name] in downed]
    migrated = {r.tenant for r in cluster.migrations if r.success}
    evicted = {e.tenant for e in cluster.evictions}
    for name in victims:
        assert (name in migrated) ^ (name in evicted), (
            f"{name} neither migrated nor evicted (seed {seed})"
        )
        session, ptr = sessions[name]
        if name in migrated:
            # Moved: serving from a live node, bytes intact.
            assert session.node.node_id not in downed
            assert session.client.memcpy_d2h(ptr, 4096) \
                == name.encode() * 4096
        else:
            # Evicted: unreachable, but *cleanly* — a recorded
            # quarantine, not a hang or a silent wrong answer.
            with pytest.raises(ReproError):
                session.client.memcpy_d2h(ptr, 4096)


@pytest.mark.parametrize("seed", SEEDS)
def test_down_node_stops_taking_load(seed):
    cluster, _, _ = run_gauntlet(seed)
    downed = {n.node_id for n in cluster.nodes if not n.monitor.alive}
    late = cluster.attach("late", PARTITION)
    assert late.node.node_id not in downed
    cluster.detach("late")


@pytest.mark.parametrize("seed", SEEDS)
def test_gauntlet_is_deterministic(seed):
    first, _, _ = run_gauntlet(seed)
    second, _, _ = run_gauntlet(seed)
    assert first.health_summary() == second.health_summary()
    assert [(r.tenant, r.source, r.target, r.success)
            for r in first.migrations] \
        == [(r.tenant, r.source, r.target, r.success)
            for r in second.migrations]
    assert [(e.tenant, e.node) for e in first.evictions] \
        == [(e.tenant, e.node) for e in second.evictions]
