"""Property: migration is invisible to the migrated tenant.

For *any* random workload and *any* migration point within it, the
tenant's observable results — device-to-host bytes after every launch
— and the device-modelled execution cycles of every launch are
bit-identical to a control run in which the tenant never migrated.
The subject run pads the target node first so the restored partition
lands at a *different* base (a non-zero translation delta): the
property covers the address-virtualization layer, not just the copy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GuardianCluster
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module

from tests.conftest import saxpy_kernel

PARTITION = 1 << 20
LANES = 32


def _saxpy_ptx():
    return emit_module(build_module([saxpy_kernel()]))


class _Workload:
    """A deterministic launch script driven by one integer seed."""

    def __init__(self, seed: int, steps: int):
        rng = np.random.default_rng(seed)
        self.scales = rng.uniform(0.5, 4.0, size=steps)\
            .astype(np.float32)
        self.xs = rng.uniform(-2.0, 2.0, size=LANES)\
            .astype(np.float32)

    def run(self, client, migrate_after=None, migrate=None):
        """Run the script; call ``migrate()`` after step
        ``migrate_after``. Returns the observables: the output buffer
        bytes after every launch."""
        handles = client.load_module_ptx(_saxpy_ptx())
        buf = client.malloc(512)
        client.memcpy_h2d(buf + 256, self.xs.tobytes())
        client.memset(buf, 0, 128)
        observed = []
        for step, scale in enumerate(self.scales):
            client.launch_kernel(
                handles["saxpy"], (1, 1, 1), (LANES, 1, 1),
                [buf, buf + 256, float(scale), LANES])
            observed.append(client.memcpy_d2h(buf, 128))
            if migrate_after == step and migrate is not None:
                migrate()
                # Post-move smoke inside the script: fresh allocation
                # on the new node interleaves with migrated state.
                scratch = client.malloc(256)
                client.memset(scratch, 7, 256)
                client.free(scratch)
        return observed


def _launch_cycles(cluster):
    """Every node's modelled kernel executions, in launch order."""
    results = []
    for node in cluster.nodes:
        results.extend(
            (r.kernel_name, r.duration_cycles, r.instructions)
            for r in node.device.metrics.launch_results
        )
    return results


def _build(record_launches=True):
    cluster = GuardianCluster(2)
    if record_launches:
        for node in cluster.nodes:
            node.device._keep_launch_results = True
    return cluster


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=2, max_value=6),
    migrate_after=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_migrated_run_is_bit_identical_to_control(
        seed, steps, migrate_after):
    migrate_after = min(migrate_after, steps - 2)
    workload = _Workload(seed, steps)

    control = _build()
    control_session = control.attach("tenant", PARTITION)
    control_observed = workload.run(control_session.client)
    control.synchronize()

    subject = _build()
    # Pad the target so the restored base differs from the origin.
    subject.attach("pad", 1 << 21)
    subject_session = subject.attach("tenant", PARTITION)
    source = subject_session.node
    target = next(n for n in subject.nodes if n is not source)

    def migrate():
        assert subject.migrate("tenant", target=target,
                               reason="property")
        assert subject_session.client.delta != 0

    subject_observed = workload.run(
        subject_session.client, migrate_after=migrate_after,
        migrate=migrate)
    subject.synchronize()

    assert subject_session.client.rebases == 1
    assert subject_observed == control_observed
    # Modelled execution cycles match launch-for-launch. The subject's
    # pad tenant launched nothing, so the device logs contain exactly
    # the workload's kernels on both sides.
    assert _launch_cycles(subject) == _launch_cycles(control)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_double_migration_round_trip(seed):
    """There and back again: two migrations return the tenant to a
    zero delta, still bit-identical."""
    workload = _Workload(seed, 3)

    control = _build(record_launches=False)
    control_observed = workload.run(
        control.attach("tenant", PARTITION).client)

    subject = _build(record_launches=False)
    session = subject.attach("tenant", PARTITION)
    origin = session.node

    def there_and_back():
        assert subject.migrate("tenant", reason="there")
        assert subject.migrate("tenant", target=origin, reason="back")
        assert session.client.delta == 0

    observed = workload.run(session.client, migrate_after=0,
                            migrate=there_and_back)
    assert session.client.rebases == 2
    assert observed == control_observed
