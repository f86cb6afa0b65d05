"""Batched asynchronous IPC submission (flush-on-sync coalescing)."""

import pytest

from repro.errors import IPCError
from repro.core import ipc
from repro.core.ipc import IPCChannel, IPCCostModel


class Recorder:
    """A fake server that logs call order and returns fixed costs."""

    def __init__(self, server_cycles: int = 100):
        self.calls: list[tuple] = []
        self.server_cycles = server_cycles

    def op(self, app_id, *args):
        self.calls.append(("op", app_id) + args)
        return None, self.server_cycles

    def sync_op(self, app_id, *args):
        self.calls.append(("sync_op", app_id) + args)
        return "result", self.server_cycles

    def failing(self, app_id, *args):
        self.calls.append(("failing", app_id) + args)
        raise RuntimeError("server-side failure")


COSTS = IPCCostModel()


def make_channel(target=None):
    target = target or Recorder()
    channel = IPCChannel(target, "app", batching=True)
    return channel, channel._target


class TestCoalescing:
    def test_async_calls_queue_until_flush(self):
        channel, target = make_channel()
        for i in range(3):
            assert channel.call("op", i, sync=False) is None
        assert channel.queued_calls == 3
        assert target.calls == []  # nothing delivered yet
        assert channel.flush() == 3
        assert [call[2] for call in target.calls] == [0, 1, 2]  # FIFO

    def test_batch_cycle_math(self):
        """k queued calls cost k*marshal + payloads at call time and a
        single roundtrip/2 at flush — not k*(marshal + roundtrip/2)."""
        channel, _ = make_channel()
        for _ in range(4):
            channel.call("op", payload_bytes=80, sync=False)
        queued_cost = 4 * (COSTS.marshal + 80 // COSTS.bytes_per_cycle)
        assert channel.stats.client_cycles == queued_cost
        channel.flush()
        assert channel.stats.client_cycles == (
            queued_cost + COSTS.roundtrip // 2
        )
        assert channel.stats.batches == 1
        assert channel.stats.batched_messages == 4
        assert channel.stats.largest_batch == 4

    def test_sync_call_is_a_flush_barrier(self):
        channel, target = make_channel()
        channel.call("op", 1, sync=False)
        channel.call("op", 2, sync=False)
        result = channel.call("sync_op", 3)
        # Queued work reached the server before the synchronous call.
        assert [call[0] for call in target.calls] == [
            "op", "op", "sync_op"
        ]
        assert result == "result"
        # 2 queued marshals + one flush half-trip + full sync cost.
        assert channel.stats.client_cycles == (
            2 * COSTS.marshal
            + COSTS.roundtrip // 2
            + COSTS.marshal + COSTS.roundtrip + target.server_cycles
        )

    def test_full_batch_flushes_itself(self, monkeypatch):
        monkeypatch.setattr(ipc, "MAX_BATCH", 2)
        channel, target = make_channel()
        channel.call("op", 1, sync=False)
        assert channel.queued_calls == 1
        channel.call("op", 2, sync=False)
        assert channel.queued_calls == 0
        assert len(target.calls) == 2

    def test_close_flushes_pending_calls(self):
        channel, target = make_channel()
        channel.call("op", 1, sync=False)
        channel.close()
        assert len(target.calls) == 1
        with pytest.raises(IPCError):
            channel.call("op", 2, sync=False)

    def test_deferred_error_surfaces_at_flush(self):
        channel, target = make_channel()
        channel.call("op", 1, sync=False)
        channel.call("failing", sync=False)  # no error yet
        channel.call("op", 2, sync=False)
        with pytest.raises(RuntimeError):
            channel.flush()
        # Calls before the failure were delivered; later ones dropped.
        assert [call[0] for call in target.calls] == ["op", "failing"]
        assert channel.queued_calls == 0

    def test_unknown_method_rejected_at_call_time(self):
        channel, _ = make_channel()
        with pytest.raises(IPCError):
            channel.call("nonexistent", sync=False)
        assert channel.queued_calls == 0


class TestDisabledMatchesSeedModel:
    """With batching off the channel is cycle-identical to the
    unbatched model every figure reproduction assumes."""

    def test_async_call_costs(self):
        target = Recorder()
        channel = IPCChannel(target, "app")
        channel.call("op", payload_bytes=800, sync=False)
        assert len(target.calls) == 1  # dispatched immediately
        assert channel.stats.client_cycles == (
            COSTS.roundtrip // 2 + COSTS.marshal
            + 800 // COSTS.bytes_per_cycle
        )
        assert channel.stats.batches == 0

    def test_sync_call_costs(self):
        target = Recorder()
        channel = IPCChannel(target, "app")
        channel.call("sync_op")
        assert channel.stats.client_cycles == (
            COSTS.roundtrip + COSTS.marshal + target.server_cycles
        )
