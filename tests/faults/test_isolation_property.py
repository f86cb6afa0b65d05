"""Property: tenant faults are invisible to surviving tenants.

For *any* set of injected faults against one tenant and *any*
interleaving of its calls with its neighbours', the survivors observe
bit-identical state to a run in which the faulty tenant never existed:
same allocation addresses, same bounds-table epochs, same device-to-host
bytes from their launches.

Survivors attach before the faulty tenant so that global identifiers
(stream IDs, partition carve order) line up between the paired runs —
the property under test is containment of *faults*, not of attach
ordering, which is deterministic anyway.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GuardianSystem
from repro.core.server import ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.errors import ClientCrashed, ReproError, TenantQuarantined
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

from tests.conftest import saxpy_module

PARTITION = 1 << 20
SURVIVORS = ("s0", "s1")

spec_strategy = st.builds(
    FaultSpec,
    kind=st.sampled_from(sorted(FaultKind, key=lambda k: k.value)),
    tenant=st.just("faulty"),
    op=st.none(),
    at_call=st.integers(min_value=1, max_value=8),
    every=st.none(),
    times=st.integers(min_value=1, max_value=5),
    magnitude=st.floats(min_value=0.5, max_value=1.5),
)


class _Script:
    """A fixed per-tenant op sequence, advanced one step at a time."""

    def __init__(self, system, app_id, observe):
        self.system = system
        self.app_id = app_id
        self.observe = observe  # survivor observables accumulator
        self.dead = False
        self.step_no = 0
        self.buf = None
        try:
            self.tenant = system.attach(app_id, PARTITION)
            self.handles = self.tenant.runtime.registerFatBinary(
                build_fatbin(saxpy_module(), "lib", "11.7")
            )
        except ReproError:
            self.tenant = None
            self.dead = True

    def _run(self, fn):
        if self.dead:
            return None
        if self.observe is None:
            # The faulty tenant: absorb its own clean failures.
            try:
                return fn()
            except ClientCrashed:
                self.system.reap(self.app_id)
                self.dead = True
            except TenantQuarantined:
                self.system.detach(self.app_id)
                self.dead = True
            except ReproError:
                pass
            return None
        # Survivors run unguarded: any failure IS a containment breach.
        return fn()

    def step(self):
        runtime = None if self.dead else self.tenant.runtime
        if self.dead:
            self.step_no += 1
            return
        phase = self.step_no % 5
        value = float(1 + self.step_no % 7)
        if phase == 0:
            self.buf = self._run(lambda: runtime.cudaMalloc(512))
            if self.observe is not None and self.buf is not None:
                self.observe.append(("malloc", self.app_id, self.buf))
        elif phase == 1 and self.buf is not None:
            data = np.full(32, value, dtype=np.float32).tobytes()
            self._run(lambda: runtime.cudaMemcpyH2D(self.buf + 256, data))
        elif phase == 2 and self.buf is not None and "saxpy" in self.handles:
            # (a corrupted PTX can register under a mangled kernel name)
            self._run(
                lambda: runtime.cudaLaunchKernel(
                    self.handles["saxpy"],
                    (1, 1, 1),
                    (32, 1, 1),
                    [self.buf, self.buf + 256, value, 32],
                )
            )
        elif phase == 3:
            self._run(lambda: runtime.cudaDeviceSynchronize())
        elif phase == 4 and self.buf is not None:
            out = self._run(lambda: runtime.cudaMemcpyD2H(self.buf, 128))
            if self.observe is not None and out is not None:
                self.observe.append(("d2h", self.app_id, out))
            self._run(lambda: runtime.cudaFree(self.buf))
            self.buf = None
        self.step_no += 1


def run_world(specs, schedule, seed, include_faulty, config=None):
    """Run the interleaved workload; return survivor observables."""
    observed = []
    if include_faulty:
        system = GuardianSystem(fault_plan=FaultPlan(specs, seed=seed),
                                config=config)
    else:
        system = GuardianSystem(config=config)
    scripts = {app_id: _Script(system, app_id, observed) for app_id in SURVIVORS}
    if include_faulty:
        scripts["faulty"] = _Script(system, "faulty", None)
    actors = [*SURVIVORS, "faulty"]
    for turn in schedule:
        actor = actors[turn % len(actors)]
        if actor in scripts:
            scripts[actor].step()
    epochs = system.server.allocator.bounds.epochs()
    observed.append(("epochs", {k: v for k, v in epochs.items() if k in SURVIVORS}))
    for app_id in SURVIVORS:
        partition = system.server.allocator.partition(app_id)
        observed.append(("heap", app_id, partition.heap.bytes_in_use))
        record = system.server.allocator.bounds.lookup(app_id)
        observed.append(("base", app_id, record.base, record.size))
    return observed


@given(
    specs=st.lists(spec_strategy, min_size=1, max_size=3),
    schedule=st.lists(st.integers(min_value=0, max_value=2), min_size=10, max_size=30),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_survivors_unaffected_by_any_fault_interleaving(specs, schedule, seed):
    with_faults = run_world(specs, schedule, seed, include_faulty=True)
    without = run_world(specs, schedule, seed, include_faulty=False)
    assert with_faults == without


@given(
    specs=st.lists(spec_strategy, min_size=1, max_size=3),
    schedule=st.lists(st.integers(min_value=0, max_value=2), min_size=10, max_size=30),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=20, deadline=None)
def test_survivors_unaffected_with_concurrent_dispatch(specs, schedule, seed):
    """The containment property holds with per-tenant dispatch lanes:
    a quarantine drains *one lane*; sibling tenants' epochs, partitions
    and data are bit-identical to a world without the faulty tenant."""
    config = ServerConfig.concurrent()
    with_faults = run_world(specs, schedule, seed, include_faulty=True,
                            config=config)
    without = run_world(specs, schedule, seed, include_faulty=False,
                        config=config)
    assert with_faults == without
