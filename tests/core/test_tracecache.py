"""Trace-specialization lifecycle, invalidation lattice, and the
specialized == interpreted bit-identity pin.

The trace engine is pure opt-in performance modelling: compiling a
tenant's steady-state block must never change what the driver executes
or what the fence rejects. These tests pin the compile threshold, the
fused-replay cycle accounting, every edge of the invalidation lattice
(epoch bump, incarnation change, config swap, shape deviation,
migration), and — via hypothesis — that a traced server's functional
outputs are byte-for-byte the interpreted server's outputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.core.tracecache import TRACE_HOT_THRESHOLD
from repro.driver.fatbin import build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from tests.conftest import make_guardian_tenant, saxpy_module

PAYLOAD = np.arange(16, dtype=np.float32).tobytes()


def traced_server(**overrides) -> GuardianServer:
    return GuardianServer(
        Device(QUADRO_RTX_A4000), FencingMode.BITWISE,
        config=ServerConfig.traced(**overrides),
    )


def deploy(server, app_id="alice"):
    """Attach + register the saxpy library + one working buffer."""
    server.attach(app_id, 1 << 20)
    handles, _ = server.register_fatbin(
        app_id, build_fatbin(saxpy_module(), "libsaxpy", "11.7"))
    buf, _ = server.malloc(app_id, 4096)
    return handles["saxpy"], buf


def run_block(server, app_id, handle, buf, payload=PAYLOAD):
    """One sync-delimited steady-state block: h2d, h2d, launch, sync."""
    server.memcpy_h2d(app_id, buf, payload)
    server.memcpy_h2d(app_id, buf + 2048, payload)
    server.launch_kernel(app_id, handle, (1, 1, 1), (16, 1, 1),
                         [buf, buf + 2048, 2.0, 16])
    server.synchronize(app_id)


def heat(server, app_id, handle, buf):
    """Run exactly enough identical blocks to compile the trace."""
    for _ in range(TRACE_HOT_THRESHOLD):
        run_block(server, app_id, handle, buf)


class TestCompileAndReplay:
    def test_compiles_at_hot_threshold(self):
        server = traced_server()
        handle, buf = deploy(server)
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 0
        assert not server.trace_engine.has_trace("alice")
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 1
        assert server.trace_engine.has_trace("alice")
        # Compilation alone replays nothing.
        assert server.stats.trace_replays == 0

    def test_replays_after_compile(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        launches_before = server.stats.launches
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 1
        assert server.stats.trace_replay_ops == 3
        # Replay still performs the launch — it is not skipped.
        assert server.stats.launches == launches_before + 1

    def test_trace_replay_rate_before_any_dispatch(self):
        """0.0 until a traced handler counts an eligible op."""
        assert traced_server().stats.trace_replay_rate == 0.0

    def test_replay_cycle_accounting(self):
        """Returned cycles == stats delta on every replayed op, and the
        absolute figures match the cost model: the block entry pays
        guards + one fused submit + the vectorized range check, then
        each op pays ``trace_replay_op``."""
        server = traced_server()
        costs = server.costs
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)

        def charged(operation):
            before = server.stats.cycles
            _, cycles = operation()
            assert cycles == server.stats.cycles - before
            return cycles

        # Block entry: 2 ranges (the two h2d destinations).
        entry = (costs.trace_guard + costs.trace_submit
                 + costs.vector_check_base
                 + 2 * costs.vector_check_per_range)
        first = charged(lambda: server.memcpy_h2d("alice", buf, PAYLOAD))
        assert first == entry + costs.trace_replay_op
        second = charged(
            lambda: server.memcpy_h2d("alice", buf + 2048, PAYLOAD))
        assert second == costs.trace_replay_op
        third = charged(lambda: server.launch_kernel(
            "alice", handle, (1, 1, 1), (16, 1, 1),
            [buf, buf + 2048, 2.0, 16]))
        assert third == costs.trace_replay_op
        server.synchronize("alice")
        assert server.stats.trace_replays == 1
        assert server.stats.trace_ranges_prechecked == 2

    def test_stock_config_never_traces(self):
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE)
        assert server.trace_engine is None
        handle, buf = deploy(server)
        for _ in range(4):
            run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 0
        assert server.stats.trace_eligible_ops == 0

    def test_alternating_blocks_never_stabilize(self):
        server = traced_server()
        handle, buf = deploy(server)
        for offset in (0, 512, 0, 512, 0, 512):
            server.memcpy_h2d("alice", buf + offset, PAYLOAD)
            server.synchronize("alice")
        assert server.stats.traces_compiled == 0


class TestInvalidationLattice:
    def test_grow_partition_invalidates_eagerly(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        assert server.trace_engine.has_trace("alice")
        server.grow_partition("alice", 1 << 21)
        assert not server.trace_engine.has_trace("alice")
        assert server.stats.trace_invalidations == 1
        # The loop re-heats under the new bounds record and replays again.
        heat(server, "alice", handle, buf)
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 2
        assert server.stats.trace_replays == 1

    def test_quarantine_forgets_and_reattach_starts_cold(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.quarantine("alice", reason="test")
        assert not server.trace_engine.has_trace("alice")
        assert server.stats.trace_invalidations == 1
        # The next incarnation earns its trace from scratch: the first
        # block only records, the second compiles, the third replays.
        handle, buf = deploy(server)
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 0
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 2
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 1

    def test_detach_forgets(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.detach("alice")
        assert not server.trace_engine.has_trace("alice")
        assert server.stats.trace_invalidations == 1

    def test_config_swap_fails_guard_then_recompiles(self):
        """Live reconfiguration swaps the frozen config object; the
        identity guard drops the trace at the next block entry, the
        block runs interpreted, and the loop recompiles under the new
        config."""
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.config = ServerConfig.traced()
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_guard_failures == 1
        assert server.stats.trace_invalidations == 1
        assert server.stats.trace_replays == 0
        # That fallback block already counts toward re-stabilization.
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 2
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 1

    def test_mid_block_deviation_drops_trace(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        # First op matches and replays; the second changes shape.
        server.memcpy_h2d("alice", buf, PAYLOAD)
        server.memset("alice", buf + 2048, 0, 64)
        server.launch_kernel("alice", handle, (1, 1, 1), (16, 1, 1),
                             [buf, buf + 2048, 2.0, 16])
        server.synchronize("alice")
        assert server.stats.trace_invalidations == 1
        assert server.stats.trace_replays == 0
        assert not server.trace_engine.has_trace("alice")

    def test_shorter_block_drops_trace(self):
        server = traced_server()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.memcpy_h2d("alice", buf, PAYLOAD)
        server.synchronize("alice")  # block ended two ops early
        assert server.stats.trace_invalidations == 1
        assert server.stats.trace_replays == 0

    def test_migration_restore_starts_cold(self):
        """Satellite: a restored tenant's traces are cold at the
        destination — the source's compiled block never moves with the
        snapshot, so stale-epoch replay after a migration is impossible
        by construction."""
        source = traced_server()
        handle, buf = deploy(source)
        heat(source, "alice", handle, buf)
        assert source.trace_engine.has_trace("alice")
        snapshot = source.snapshot_tenant("alice")

        target = traced_server()
        target.restore_tenant(snapshot)
        assert not target.trace_engine.has_trace("alice")
        # The destination re-earns the trace under its own bounds
        # record; the tenant's handles/buffer survive the restore.
        run_block(target, "alice", handle, buf)
        assert target.stats.trace_replays == 0
        run_block(target, "alice", handle, buf)
        assert target.stats.traces_compiled == 1
        run_block(target, "alice", handle, buf)
        assert target.stats.trace_replays == 1


class TestMarshalShadowCursor:
    """The client-side mirror: while the server holds a compiled trace
    the IPC channel marshals matching calls at the discounted rate."""

    def _stack(self):
        server = traced_server()
        client, _ = make_guardian_tenant(server, "alice")
        handles = client.register_fatbin(
            build_fatbin(saxpy_module(), "libsaxpy", "11.7"))
        buf = client.malloc(4096)
        return server, client, handles["saxpy"], buf

    def _block(self, client, handle, buf):
        client.memcpy_h2d(buf, PAYLOAD)
        client.memcpy_h2d(buf + 2048, PAYLOAD)
        client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                             [buf, buf + 2048, 2.0, 16])
        client.synchronize()

    def test_cached_marshalling_only_after_compile(self):
        server, client, handle, buf = self._stack()
        self._block(client, handle, buf)
        self._block(client, handle, buf)
        assert server.stats.traces_compiled == 1
        assert client.channel.stats.marshal_cached_calls == 0
        self._block(client, handle, buf)
        assert client.channel.stats.marshal_cached_calls == 3

    def test_deviation_parks_cursor_until_sync(self):
        server, client, handle, buf = self._stack()
        for _ in range(3):
            self._block(client, handle, buf)
        assert client.channel.stats.marshal_cached_calls == 3
        # First call matches (cached); the memset deviates, parking the
        # cursor, so the trailing launch pays full marshalling even
        # though it matches a later slot.
        client.memcpy_h2d(buf, PAYLOAD)
        client.memset(buf + 2048, 0, 64)
        client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                             [buf, buf + 2048, 2.0, 16])
        client.synchronize()
        assert client.channel.stats.marshal_cached_calls == 4
        # The server dropped the trace — no discount until it recompiles.
        self._block(client, handle, buf)
        assert client.channel.stats.marshal_cached_calls == 4

    def test_trace_engine_exposed_to_clients(self):
        server, client, _, _ = self._stack()
        assert client.trace_engine is server.trace_engine


class TestBitIdentity:
    """Hypothesis pin: specialized execution is byte-for-byte the
    interpreted execution, for any payload sequence — the payload is
    staged live at every replay, never baked into the trace."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, width=32),
                 min_size=16, max_size=16),
        min_size=3, max_size=6,
    ))
    def test_traced_outputs_match_interpreted(self, blocks):
        payloads = [np.asarray(values, dtype=np.float32).tobytes()
                    for values in blocks]
        traced = traced_server()
        stock = GuardianServer(Device(QUADRO_RTX_A4000),
                               FencingMode.BITWISE)
        arms = [(traced, *deploy(traced)), (stock, *deploy(stock))]
        outputs = ([], [])
        for payload in payloads:
            for index, (server, handle, buf) in enumerate(arms):
                run_block(server, "alice", handle, buf, payload=payload)
                data, _ = server.memcpy_d2h("alice", buf, 64)
                outputs[index].append(data)
        assert outputs[0] == outputs[1]
        # The traced arm really specialized (threshold is 2 blocks).
        assert traced.stats.traces_compiled == 1
        assert traced.stats.trace_replays == len(payloads) - 2
        assert stock.stats.traces_compiled == 0

class TestElasticInvalidation:
    """Elastic mutations (DESIGN.md §14) drop traces cleanly: shrink
    invalidates eagerly like grow, compaction and swap funnel through
    the lifecycle forget — a specialized block can never replay
    against a stale base, mask, or stream."""

    @staticmethod
    def _elastic_traced(**overrides):
        return traced_server(enable_elastic_memory=True, **overrides)

    def test_shrink_invalidates_eagerly_then_reheats(self):
        server = self._elastic_traced()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        assert server.trace_engine.has_trace("alice")
        new_size, _ = server.shrink_partition("alice")
        assert new_size < 1 << 20
        assert not server.trace_engine.has_trace("alice")
        assert server.stats.trace_invalidations == 1
        # Re-heats under the narrower mask and replays again.
        heat(server, "alice", handle, buf)
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 2
        assert server.stats.trace_replays == 1

    def test_noop_shrink_keeps_the_trace(self):
        server = self._elastic_traced()
        handle, buf = deploy(server)
        server.malloc("alice", 600 << 10)  # heap reaches the upper buddy
        heat(server, "alice", handle, buf)
        new_size, _ = server.shrink_partition("alice")
        assert new_size == 1 << 20  # nothing to release: nothing happened
        assert server.trace_engine.has_trace("alice")
        assert server.stats.trace_invalidations == 0

    def test_compaction_forgets_via_lifecycle(self):
        server = self._elastic_traced()
        server.attach("pad", 1 << 20)
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.detach("pad")  # open a lower hole
        assert server.elastic.compact("alice") is not None
        assert not server.trace_engine.has_trace("alice")

    def test_swap_out_forgets_and_swap_in_starts_cold(self):
        server = self._elastic_traced()
        handle, buf = deploy(server)
        heat(server, "alice", handle, buf)
        server.elastic.swap_out("alice")
        assert not server.trace_engine.has_trace("alice")
        server.elastic.ensure_resident("alice")
        # Cold start: record, compile, replay — from scratch.
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 0
        run_block(server, "alice", handle, buf)
        assert server.stats.traces_compiled == 2
        run_block(server, "alice", handle, buf)
        assert server.stats.trace_replays == 1
