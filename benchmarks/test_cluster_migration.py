"""Migration under chaos: the fleet control plane's survival numbers.

Runs the cluster gauntlet across node-fault seeds 0–4: three tenants
spread over three nodes, :func:`FaultPlan.node_chaos` drives one node
``down`` mid-workload (sometimes also sabotaging the ensuing
migration with a partial snapshot or a mid-copy source crash), and
the cluster reacts — live migration first, clean quarantine when the
move is impossible.

Emitted floor (``check_regression.py``): **zero disruptions of
surviving tenants** — a tenant whose node stayed up must end the run
on that same node with its bytes intact and serving — and at least
one completed live migration across the seed sweep. Also records the
modelled PCIe cost of every completed move.
"""

from __future__ import annotations

from benchmarks.conftest import emit_bench_json, print_table
from repro.cluster import ClusterConfig, GuardianCluster, PlacementPolicy
from repro.errors import ReproError
from repro.faults.plan import FaultPlan

SEEDS = (0, 1, 2, 3, 4)
TENANTS = ("a", "b", "c")
NODES = ("node0", "node1", "node2")
PARTITION = 1 << 20
BEATS = 24


def run_seed(seed: int) -> dict:
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

    downed = {n.node_id for n in cluster.nodes if not n.monitor.alive}
    disruptions = 0
    rescued = 0
    for name, (session, ptr) in sessions.items():
        if homes[name] in downed:
            try:
                intact = session.client.memcpy_d2h(ptr, 4096) \
                    == name.encode() * 4096
            except ReproError:
                intact = False  # cleanly quarantined, not rescued
            if intact and session.client.rebases:
                rescued += 1
            continue
        # Surviving tenant: any observable change is a disruption.
        try:
            disrupted = (
                session.node.node_id != homes[name]
                or session.client.rebases != 0
                or session.client.memcpy_d2h(ptr, 4096)
                != name.encode() * 4096
            )
        except ReproError:
            disrupted = True
        disruptions += int(disrupted)

    completed = [r for r in cluster.migrations if r.success]
    return {
        "seed": seed,
        "downed_nodes": sorted(downed),
        "victims": sum(1 for n in TENANTS if homes[n] in downed),
        "rescued_by_migration": rescued,
        "migrations_completed": len(completed),
        "migrations_failed": cluster.migrations_failed,
        "evictions": len(cluster.evictions),
        "surviving_tenant_disruptions": disruptions,
        "bytes_migrated": sum(r.bytes_moved for r in completed),
        "transfer_seconds": sum(r.transfer_seconds for r in completed),
    }


def test_migration_under_chaos_survival():
    results = [run_seed(seed) for seed in SEEDS]

    print_table(
        "Cluster gauntlet: migration under chaos",
        ["seed", "down", "victims", "migrated", "evicted",
         "bystander disruptions"],
        [[r["seed"], ",".join(r["downed_nodes"]), r["victims"],
          r["migrations_completed"], r["evictions"],
          r["surviving_tenant_disruptions"]] for r in results],
    )

    payload = {
        "seeds": list(SEEDS),
        "per_seed": results,
        "migrations_completed": sum(
            r["migrations_completed"] for r in results),
        "migrations_failed": sum(
            r["migrations_failed"] for r in results),
        "evictions": sum(r["evictions"] for r in results),
        "surviving_tenant_disruptions": sum(
            r["surviving_tenant_disruptions"] for r in results),
        "bytes_migrated": sum(r["bytes_migrated"] for r in results),
        "transfer_seconds": sum(
            r["transfer_seconds"] for r in results),
    }
    emit_bench_json("cluster_migration", payload)

    # The gate CI enforces via check_regression.py, asserted here too
    # so a local run fails loudly.
    assert payload["surviving_tenant_disruptions"] == 0
    assert payload["migrations_completed"] >= 1
    # Every victim is accounted for: rescued or evicted, never lost.
    for r in results:
        assert r["rescued_by_migration"] + r["evictions"] \
            == r["victims"], r
