"""The fault gauntlet: chaos plans must never crash the server.

CI runs this file once per ``GUARDIAN_FAULT_SEED`` in the seed matrix
(0..4). Every injected fault must end in a clean retry, a clean
per-call error, or a quarantine — and afterwards the server must still
serve: never-faulted tenants complete every round with correct
results, and a fresh tenant can attach and run a full pipeline.
"""

import os
from unittest import mock

import numpy as np
import pytest

from repro import GuardianSystem
from repro.core import supervisor as supervision
from repro.driver.fatbin import build_fatbin
from repro.errors import (
    ClientCrashed,
    PartitionError,
    ReproError,
    TenantQuarantined,
)
from repro.faults.plan import FaultPlan

from tests.conftest import saxpy_module

SEED = int(os.environ.get("GUARDIAN_FAULT_SEED", "0"))
TENANTS = [f"chaos{i}" for i in range(4)]
PARTITION = 1 << 20
ROUNDS = 16

#: Every supervisor action the gauntlet may legitimately produce.
ALLOWED_ACTIONS = {
    "retried", "exhausted", "suppressed", "delayed", "rejected",
    "fenced", "armed", "deadline", "quarantined", "reaped",
}


class _Driver:
    """Drives one tenant through the workload, absorbing clean faults."""

    def __init__(self, system, app_id):
        self.system = system
        self.app_id = app_id
        self.handles = None
        self.rounds_completed = 0
        self.dead = False
        try:
            self.tenant = system.attach(app_id, PARTITION)
        except ReproError:
            # Even the attach crossing can be killed by the plan.
            self.tenant = None
            self.dead = True

    def _guard(self, fn):
        """Run one call; only clean Guardian failures may escape."""
        if self.dead:
            return None
        try:
            return fn()
        except ClientCrashed:
            self.system.reap(self.app_id)
            self.dead = True
        except TenantQuarantined:
            self.system.detach(self.app_id)
            self.dead = True
        except ReproError:
            pass  # clean per-call rejection; the tenant lives on
        return None

    def register(self):
        fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
        self.handles = self._guard(lambda: self.tenant.runtime.registerFatBinary(fatbin))

    def round(self):
        if self.dead:
            return
        runtime = self.tenant.runtime
        buf = self._guard(lambda: runtime.cudaMalloc(512))
        if buf is None:
            return
        ones = np.ones(32, dtype=np.float32).tobytes()
        self._guard(lambda: runtime.cudaMemcpyH2D(buf + 256, ones))
        if self.handles and "saxpy" in self.handles:
            self._guard(
                lambda: runtime.cudaLaunchKernel(
                    self.handles["saxpy"], (1, 1, 1), (32, 1, 1), [buf, buf + 256, 2.0, 32]
                )
            )
        self._guard(lambda: runtime.cudaDeviceSynchronize())
        self._guard(lambda: runtime.cudaMemcpyD2H(buf, 128))
        self._guard(lambda: runtime.cudaFree(buf))
        if not self.dead:
            self.rounds_completed += 1


@pytest.fixture(autouse=True)
def budget_of_six():
    """The gauntlet's scenario runs at a fault budget of 6, for the
    whole test: seeds 0-4 play what they always played."""
    with mock.patch.object(supervision, "FAULT_BUDGET", 6.0):
        yield


def run_gauntlet(seed):
    plan = FaultPlan.chaos(seed, TENANTS, calls_per_tenant=2 * ROUNDS)
    system = GuardianSystem(fault_plan=plan)
    drivers = [_Driver(system, app_id) for app_id in TENANTS]
    survivor = _Driver(system, "survivor")  # never in the chaos plan
    for driver in drivers + [survivor]:
        driver.register()
    for _ in range(ROUNDS):
        for driver in drivers:
            driver.round()
        survivor.round()
    return system, drivers, survivor


class TestGauntlet:
    def test_chaos_never_crashes_the_server(self):
        # _Driver._guard re-raises anything that is not a ReproError,
        # so reaching the assertions at all means no server crash.
        system, drivers, survivor = run_gauntlet(SEED)

        # Every supervisor action taken is an understood one.
        actions = {record.action for record in system.supervisor.records}
        assert actions <= ALLOWED_ACTIONS

        # The untouched tenant completed every round, correctly.
        assert not survivor.dead
        assert survivor.rounds_completed == ROUNDS
        out = survivor._guard(lambda: survivor.tenant.runtime.cudaMalloc(512))
        assert out is not None

        # The server still serves: a fresh tenant runs a full pipeline.
        fresh = system.attach("fresh", PARTITION)
        handles = fresh.runtime.registerFatBinary(build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = fresh.runtime.cudaMalloc(512)
        fresh.runtime.cudaMemcpyH2D(buf + 256, np.ones(32, dtype=np.float32).tobytes())
        fresh.runtime.cudaLaunchKernel(
            handles["saxpy"], (1, 1, 1), (32, 1, 1), [buf, buf + 256, 2.0, 32]
        )
        result = np.frombuffer(fresh.runtime.cudaMemcpyD2H(buf, 128), dtype=np.float32)
        assert np.allclose(result, 2.0)

        # Quarantined tenants are detached; bookkeeping is consistent.
        quarantined = {record.tenant for record in system.supervisor.quarantines}
        for app_id in quarantined:
            assert system.supervisor.is_quarantined(app_id)
            with pytest.raises(PartitionError):
                system.server.allocator.bounds.lookup(app_id)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_matrix_seed_is_survivable(self, seed):
        """A cheap local sweep of the CI seed matrix."""
        system, drivers, survivor = run_gauntlet(seed)
        assert survivor.rounds_completed == ROUNDS
        actions = {record.action for record in system.supervisor.records}
        assert actions <= ALLOWED_ACTIONS

    def test_chaos_plan_is_reproducible_across_runs(self):
        def trace(system):
            return [
                (r.tenant, r.op, r.kind, r.action, r.attempts)
                for r in system.supervisor.records
            ]

        assert trace(run_gauntlet(SEED)[0]) == trace(run_gauntlet(SEED)[0])
