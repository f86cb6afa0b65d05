"""Elastic memory engine: shrink, compact, oversubscribe (DESIGN.md §14)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elastic import (
    MIN_PARTITION_BYTES,
    OVERSUBSCRIPTION_RATIO,
    ElasticClient,
    should_defrag,
)
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.errors import GuardianError, PartitionError
from repro.gpu.device import Device
from repro.gpu.specs import MIB, QUADRO_RTX_A4000
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module

from tests.conftest import saxpy_kernel

#: Small carve space (16 MiB usable after the driver's own reserve)
#: so a handful of tenants exhausts it.
SMALL = dataclasses.replace(QUADRO_RTX_A4000,
                            global_memory_bytes=17 * MIB)


def elastic_server(**overrides) -> GuardianServer:
    return GuardianServer(Device(SMALL),
                          config=ServerConfig.elastic(**overrides))


def saxpy_ptx() -> str:
    return emit_module(build_module([saxpy_kernel()]))


ALL_MODES = (FencingMode.BITWISE, FencingMode.MODULO,
             FencingMode.CHECKING, FencingMode.NONE)


def _floats(client, address, count):
    return np.frombuffer(client.memcpy_d2h(address, 4 * count), np.float32)


def attach(server, app_id, size=1 << 20) -> ElasticClient:
    client = ElasticClient(server, app_id, size)
    if server.elastic is not None:
        server.elastic.bind_client(app_id, client)
    return client


# --------------------------------------------------------------------------
# Knob gating: the stock server carries no engine at all
# --------------------------------------------------------------------------


class TestKnobsDefaultOff:
    def test_stock_server_has_no_engine(self):
        server = GuardianServer(Device(SMALL))
        assert server.elastic is None

    def test_all_elastic_counters_zero_on_stock(self):
        server = GuardianServer(Device(SMALL))
        server.attach("a", 1 << 20)
        server.malloc("a", 4096)
        server.detach("a")
        stats = server.stats
        assert (stats.partitions_shrunk, stats.tenants_compacted,
                stats.swaps_out, stats.swaps_in) == (0, 0, 0, 0)
        assert (stats.bytes_reclaimed, stats.bytes_compacted,
                stats.bytes_swapped_out, stats.bytes_swapped_in) \
            == (0, 0, 0, 0)

    def test_shrink_handler_gated(self):
        server = GuardianServer(Device(SMALL))
        server.attach("a", 1 << 20)
        with pytest.raises(GuardianError, match="enable_elastic_memory"):
            server.shrink_partition("a")

    def test_elastic_preset_enables_all_three(self):
        """One switch: the preset's engine shrinks, compacts and swaps."""
        assert ServerConfig.elastic().enable_elastic_memory
        server = elastic_server()
        attach(server, "pad", 1 << 20)
        attach(server, "a", 1 << 20).malloc(4096)
        server.detach("pad")
        assert server.elastic.shrink("a")[0] < 1 << 20
        assert server.elastic.compact("a") is not None
        assert server.elastic.swap_out("a") > 0


# --------------------------------------------------------------------------
# Shrink: inverse of grow — mask narrows, base unchanged, epoch bumps
# --------------------------------------------------------------------------


class TestShrink:
    def test_shrinks_to_high_water_buddy_floor(self):
        server = elastic_server()
        client = attach(server, "a", 4 << 20)
        client.malloc(300 << 10)  # high water ~300 KiB -> floor 512 KiB
        new_size = client.shrink_partition()
        assert new_size == 512 << 10
        assert server.stats.partitions_shrunk == 1
        assert server.stats.bytes_reclaimed == (4 << 20) - (512 << 10)

    def test_base_unchanged_mask_narrows_epoch_bumps(self):
        server = elastic_server()
        client = attach(server, "a", 4 << 20)
        client.malloc(4096)
        before = server.allocator.bounds.read("a")
        epoch = server.allocator.bounds.epoch("a")
        client.shrink_partition()
        after = server.allocator.bounds.read("a")
        assert after.base == before.base
        assert after.size < before.size
        assert after.mask < before.mask
        # remove + register, exactly like grow: +2.
        assert server.allocator.bounds.epoch("a") == epoch + 2

    def test_data_survives_and_fence_uses_new_mask(self):
        server = elastic_server()
        client = attach(server, "a", 4 << 20)
        handles = client.load_module_ptx(saxpy_ptx())
        buf = client.malloc(512)
        client.memcpy_h2d(buf + 256,
                          np.ones(32, dtype=np.float32).tobytes())
        client.shrink_partition()
        client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 4.0, 32])
        client.synchronize()
        out = np.frombuffer(client.memcpy_d2h(buf, 128), np.float32)
        assert np.allclose(out, 4.0)

    def test_released_half_is_carveable(self):
        server = elastic_server()
        total_free = server.allocator.bytes_unpartitioned
        client = attach(server, "a", 8 << 20)
        client.malloc(4096)
        client.shrink_partition()
        assert server.allocator.bytes_unpartitioned == \
            total_free - server.allocator.partition("a").size

    def test_high_water_in_upper_half_refuses(self):
        server = elastic_server()
        client = attach(server, "a", 4 << 20)
        # Fill past the halfway mark: no buddy half is releasable.
        client.malloc(3 << 20)
        epoch = server.allocator.bounds.epoch("a")
        assert client.shrink_partition() == 4 << 20
        assert server.stats.partitions_shrunk == 0
        assert server.allocator.bounds.epoch("a") == epoch

    def test_noop_shrink_charges_nothing(self):
        server = elastic_server()
        server.attach("a", 1 << 20)
        server.malloc("a", 700 << 10)
        before = server.stats.cycles
        size, charged = server.elastic.shrink("a")
        assert charged == 0.0
        assert server.stats.cycles == before

    def test_min_partition_bytes_floor(self):
        server = elastic_server()
        client = attach(server, "a", 1 << 20)
        client.malloc(256)
        assert client.shrink_partition() == MIN_PARTITION_BYTES

    def test_grow_then_shrink_round_trips(self):
        server = elastic_server()
        client = attach(server, "a", 1 << 20)
        client.malloc(4096)
        record = server.allocator.bounds.read("a")
        client.grow_partition(4 << 20)
        shrunk = client.shrink_partition()
        after = server.allocator.bounds.read("a")
        assert shrunk < 1 << 20  # heap is near-empty: below the original
        assert after.base == record.base

    def test_sweep_is_deterministic_and_reports_reclaim(self):
        server = elastic_server()
        for name in ("c", "a", "b"):
            attach(server, name, 2 << 20).malloc(4096)
        reclaimed = server.elastic.shrink_sweep()
        assert reclaimed == 3 * ((2 << 20) - 4096)
        assert server.stats.partitions_shrunk == 3


# --------------------------------------------------------------------------
# Compaction: migration machinery intra-node, fence-relocated pointers
# --------------------------------------------------------------------------


class TestCompaction:
    def _fragmented(self, server):
        """pad(1M) | mover(1M) arrangement, then pad departs."""
        pad = attach(server, "pad", 1 << 20)
        mover = attach(server, "mover", 1 << 20)
        pad.close()
        return mover

    def test_moves_to_strictly_lower_base(self):
        server = elastic_server()
        mover = self._fragmented(server)
        old_base = server.allocator.partition("mover").base
        new_base = server.elastic.compact("mover")
        assert new_base is not None and new_base < old_base
        assert server.allocator.partition("mover").base == new_base
        assert server.stats.tenants_compacted == 1
        assert server.stats.bytes_compacted == 1 << 20

    def test_no_lower_placement_is_a_noop(self):
        server = elastic_server()
        attach(server, "solo", 1 << 20)
        before = server.stats.cycles
        assert server.elastic.compact("solo") is None
        assert server.stats.tenants_compacted == 0
        assert server.stats.cycles == before

    def test_virtual_pointers_and_kernels_survive(self):
        server = elastic_server()
        mover = self._fragmented(server)
        handles = mover.load_module_ptx(saxpy_ptx())
        buf = mover.malloc(512)
        mover.memcpy_h2d(buf + 256,
                         np.ones(32, dtype=np.float32).tobytes())
        assert server.elastic.compact("mover") is not None
        assert mover.delta != 0
        # Old virtual pointers, new physical base, same handles.
        mover.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                            [buf, buf + 256, 2.0, 32])
        mover.synchronize()
        out = np.frombuffer(mover.memcpy_d2h(buf, 128), np.float32)
        assert np.allclose(out, 2.0)  # y = a*x + y = 2*1 + 0

    def test_bounds_republished_at_new_base_fresh_epoch(self):
        server = elastic_server()
        mover = self._fragmented(server)
        old = server.allocator.bounds.read("mover")
        new_base = server.elastic.compact("mover")
        record = server.allocator.bounds.read("mover")
        assert record.base == new_base != old.base
        assert record.size == old.size

    def test_compaction_charges_pcie_copy(self):
        server = elastic_server()
        mover = self._fragmented(server)
        before = server.stats.cycles
        server.elastic.compact("mover")
        # At least the modelled PCIe pass over 1 MiB.
        assert server.stats.cycles - before >= \
            (1 << 20) * 3.0 / SMALL.pcie_bw_gbps

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_make_room_in_every_mode(self, mode):
        """Eight 2 MiB tenants each holding 1.5 MiB (nothing shrinks),
        every other one closed: an 8 MiB newcomer fits only once the
        survivors move. Where the fence relocates, compaction moves
        them; elsewhere compaction declines and make_room swaps
        instead. Either way it answers, and the tenant compaction moved
        computes the right result through its old pointers."""
        server = GuardianServer(Device(SMALL), mode,
                                config=ServerConfig.elastic())
        clients = [attach(server, f"t{i}", 2 << 20) for i in range(8)]
        ys = [client.malloc(512) for client in clients]
        for client in clients:
            client.malloc(3 << 19)
        last, y = clients[-1], ys[-1]
        handles = last.load_module_ptx(saxpy_ptx())
        last.memcpy_h2d(y, np.full(32, 5.0, np.float32).tobytes())
        last.memcpy_h2d(y + 256, np.ones(32, np.float32).tobytes())
        for client in clients[::2]:
            client.close()
        assert server.elastic.make_room(8 << 20)
        relocating = mode in (FencingMode.BITWISE, FencingMode.MODULO)
        assert server.stats.tenants_compacted == (2 if relocating else 0)
        assert server.stats.swaps_out == (0 if relocating else 2)
        assert (last.delta != 0) == relocating
        last.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                           [y, y + 256, 2.0, 32])
        last.synchronize()
        assert np.all(_floats(last, y, 32) == 7.0)

    def test_compaction_keeps_the_tenant(self):
        """A compaction moves the partition, not the tenant: stream,
        incarnation and identity survive, no migration is counted, and
        an eviction decided before the move still lands."""
        server = elastic_server()
        self._fragmented(server)
        tenant = server._tenants["mover"]
        stream, destroyed = tenant.stream, server.stats.streams_destroyed
        assert tenant.incarnation == 1
        assert server.elastic.compact("mover") is not None
        assert server._tenants["mover"] is tenant
        assert tenant.stream is stream and tenant.incarnation == 1
        assert server.stats.streams_destroyed == destroyed
        assert server.stats.tenants_migrated_in == 0
        assert server.stats.tenants_migrated_out == 0
        assert server.quarantine("mover", incarnation=1) == 1 << 20

    def test_shrink_fine_after_relocation(self):
        server = elastic_server()
        mover = self._fragmented(server)
        mover.malloc(4096)
        server.elastic.compact("mover")
        assert mover.delta != 0
        assert mover.shrink_partition() < 1 << 20

    def test_defrag_triggers_on_stranded_placement(self):
        """Free bytes could hold the newcomer but no single gap can:
        the want-bytes trigger authorises exactly this compaction."""
        server = elastic_server()
        clients = [attach(server, f"t{i}", 2 << 20) for i in range(8)]
        for client in clients[::2]:
            client.close()  # 4 holes of 2 MiB, interleaved
        assert not server.allocator.can_carve(8 << 20)
        assert server.allocator.bytes_unpartitioned >= 8 << 20
        moves = server.elastic.defrag(want_bytes=8 << 20)
        assert moves
        assert server.allocator.can_carve(8 << 20)

    def test_defrag_preserves_recency_and_binding(self):
        server = elastic_server()
        mover = self._fragmented(server)
        engine = server.elastic
        recency = engine._recency["mover"]
        engine.defrag(want_bytes=16 << 20)  # forced trigger
        assert engine._recency["mover"] == recency
        assert engine._clients["mover"] is mover


# --------------------------------------------------------------------------
# Oversubscription: swap-to-host, LRU victims, hard cap
# --------------------------------------------------------------------------


class TestOversubscription:
    def test_swap_round_trip_preserves_everything(self):
        server = elastic_server()
        client = attach(server, "a", 1 << 20)
        handles = client.load_module_ptx(saxpy_ptx())
        buf = client.malloc(512)
        client.memcpy_h2d(buf + 256,
                          np.ones(32, dtype=np.float32).tobytes())
        client.synchronize()
        assert server.elastic.swap_out("a") == 1 << 20
        assert server.elastic.is_swapped("a")
        assert "a" not in server.allocator.bounds
        # Another tenant takes the slot; the swap-in lands elsewhere.
        attach(server, "squatter", 1 << 20)
        assert server.elastic.ensure_resident("a") is not None
        client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 2.0, 32])
        client.synchronize()
        out = np.frombuffer(client.memcpy_d2h(buf, 128), np.float32)
        assert np.allclose(out, 2.0)  # x survived the round trip
        assert server.stats.swaps_out == server.stats.swaps_in == 1

    def test_swap_out_scrubs_the_region(self):
        server = elastic_server()
        client = attach(server, "a", 1 << 20)
        buf = client.malloc(4096)
        client.memcpy_h2d(buf, b"\xab" * 4096)
        client.synchronize()
        base = server.allocator.partition("a").base
        server.elastic.swap_out("a")
        assert server.device.memory.read(base, 4096) == b"\x00" * 4096
        assert server.stats.bytes_scrubbed >= 1 << 20

    def test_swap_charges_pcie_both_ways(self):
        server = elastic_server()
        attach(server, "a", 1 << 20)
        pcie = (1 << 20) * 3.0 / SMALL.pcie_bw_gbps
        before = server.stats.cycles
        server.elastic.swap_out("a")
        assert server.stats.cycles - before >= pcie
        before = server.stats.cycles
        server.elastic.ensure_resident("a")
        assert server.stats.cycles - before >= pcie

    def test_ensure_resident_noop_when_resident(self):
        server = elastic_server()
        attach(server, "a", 1 << 20)
        before = server.stats.cycles
        assert server.elastic.ensure_resident("a") is None
        assert server.stats.cycles == before

    def test_lru_by_last_launch_picks_coldest(self):
        server = elastic_server()
        clients = {name: attach(server, name, 1 << 20)
                   for name in ("a", "b", "c")}
        handles = clients["a"].load_module_ptx(saxpy_ptx())
        buf = clients["a"].malloc(512)
        # "a" attached first (coldest by age) but launches last:
        clients["a"].launch_kernel(handles["saxpy"], (1, 1, 1),
                                   (32, 1, 1), [buf, buf + 256, 1.0, 32])
        clients["a"].synchronize()
        victims = server.elastic._lru_victims()
        assert victims[0] == "b"  # oldest un-launched attach
        assert victims[-1] == "a"

    def test_make_room_swaps_cold_tenants_for_newcomer(self):
        server = elastic_server()
        for i in range(4):
            # Genuinely heavy residents: high water above the halfway
            # mark, so neither shrink nor compaction can make room.
            attach(server, f"old{i}", 4 << 20).malloc(3 << 20)
        assert not server.allocator.can_carve(4 << 20)
        assert server.elastic.make_room(4 << 20)
        newcomer = attach(server, "new", 4 << 20)
        assert server.stats.swaps_out >= 1
        buf = newcomer.malloc(4096)
        newcomer.memcpy_h2d(buf, b"\x01" * 4096)
        newcomer.synchronize()

    def test_hard_cap_bounds_declared_bytes(self):
        server = elastic_server()
        total = server.allocator.total_bytes
        declared = 0
        while server.elastic.make_room(4 << 20):
            # Heaps past the half-way mark: nothing can shrink, so
            # every admission beyond capacity is a swap.
            attach(server, f"t{declared}", 4 << 20).malloc(3 << 20)
            declared += 4 << 20
        assert total < declared <= OVERSUBSCRIPTION_RATIO * total
        assert server.elastic.declared_bytes() == declared

    def test_make_room_prefers_shrink_over_swap(self):
        server = elastic_server()
        for i in range(4):
            attach(server, f"light{i}", 4 << 20).malloc(4096)
        assert server.elastic.make_room(4 << 20)
        # Shrinking the over-provisioned residents was enough.
        assert server.stats.partitions_shrunk >= 1
        assert server.stats.swaps_out == 0

    def test_detach_while_swapped_drops_image(self):
        server = elastic_server()
        client = attach(server, "a", 1 << 20)
        server.elastic.swap_out("a")
        client.close()
        assert not server.elastic.is_swapped("a")
        assert server.elastic.swapped_bytes == 0
        assert server.tenant_count == 0


# --------------------------------------------------------------------------
# One relocation rule: a move lands only where the fence can follow it
# --------------------------------------------------------------------------

class TestSwapInRelocation:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_swap_in_lands_only_where_the_fence_follows(self, mode):
        """``a`` is swapped out, a squatter takes its region, and ``a``
        comes back. Kernel pointer parameters stay virtual, so the swap
        -in may land away from the old base only where the fence maps
        them onto the new one; elsewhere it refuses, naming the fence,
        and lands at the old base once that is free again."""
        server = GuardianServer(Device(SMALL), mode,
                                config=ServerConfig.elastic())
        a = attach(server, "a", 1 << 20)
        handles = a.load_module_ptx(saxpy_ptx())
        y = a.malloc(512)
        x = y + 256
        a.memcpy_h2d(y, np.full(32, 5.0, np.float32).tobytes())
        a.memcpy_h2d(x, np.ones(32, np.float32).tobytes())
        a.synchronize()
        old_base = server.allocator.partition("a").base
        server.elastic.swap_out("a")
        squatter = attach(server, "squatter", 1 << 20)
        assert server.allocator.partition("squatter").base == old_base
        squatter.memcpy_h2d(squatter.malloc(4096),
                            np.full(1024, 9.0, np.float32).tobytes())
        squatter.synchronize()
        before = _contents(server, "squatter")

        def run_saxpy():
            a.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                            [y, x, 2.0, 32])
            a.synchronize()
            return _floats(a, y, 32)

        if mode in (FencingMode.BITWISE, FencingMode.MODULO):
            assert server.elastic.ensure_resident("a") != old_base
            assert np.all(run_saxpy() == 7.0)
            assert _contents(server, "squatter") == before
            return
        with pytest.raises(PartitionError, match=mode.value):
            server.elastic.ensure_resident("a")
        assert server.elastic.is_swapped("a")
        assert _contents(server, "squatter") == before
        squatter.close()
        assert server.elastic.ensure_resident("a") == old_base
        assert np.all(run_saxpy() == 7.0)


# --------------------------------------------------------------------------
# Scrubs and images move pages: exact at every size, neighbours untouched
# --------------------------------------------------------------------------

#: A sub-page partition (shares its 64 KiB page with neighbours), one
#: page, and several pages.
PAGE_SHARING_SIZES = (4096, 1 << 16, 1 << 20)


def _pattern(name: str, size: int) -> bytes:
    seed = sum(name.encode())
    return np.random.default_rng(seed).integers(
        1, 256, size, dtype=np.uint8).tobytes()


def _neighbourhood(server, size):
    """Three adjacent partitions, each filled with its own pattern."""
    for name in ("below", "middle", "above"):
        server.attach(name, size)
        base = server.allocator.partition(name).base
        server.memcpy_h2d(name, base, _pattern(name, size))
    server.synchronize("above")


def _contents(server, name):
    partition = server.allocator.partition(name)
    data, _ = server.memcpy_d2h(name, partition.base, partition.size)
    return data


class TestScrubbedPages:
    @pytest.mark.parametrize("mode", [FencingMode.BITWISE,
                                      FencingMode.MODULO,
                                      FencingMode.CHECKING])
    @pytest.mark.parametrize("size", PAGE_SHARING_SIZES)
    def test_a_tenant_on_scrubbed_memory_reads_zeros(self, mode, size):
        """Quarantine scrubs ``middle``; a newcomer carved on the same
        region reads zeros by DMA and through its fenced kernel, and
        both neighbours keep every byte."""
        server = GuardianServer(Device(SMALL), mode)
        _neighbourhood(server, size)
        region = server.allocator.partition("middle").base
        assert server.quarantine("middle") == size
        server.attach("newcomer", size)
        assert server.allocator.partition("newcomer").base == region
        assert _contents(server, "newcomer") == bytes(size)
        handles, _ = server.register_fatbin(
            "newcomer", build_fatbin(build_module([saxpy_kernel()]),
                                     "lib", "11.7"))
        xs = [region + 256]
        if mode is not FencingMode.CHECKING:
            xs.append(region + size + 256)  # wraps onto region + 256
        for x in xs:
            server.launch_kernel("newcomer", handles["saxpy"], (1, 1, 1),
                                 (32, 1, 1), [region, x, 1.0, 32])
        assert _contents(server, "newcomer") == bytes(size)
        for name in ("below", "above"):
            assert _contents(server, name) == _pattern(name, size)

    @pytest.mark.parametrize("size", PAGE_SHARING_SIZES)
    def test_compaction_moves_every_byte(self, size):
        server = elastic_server()
        server.attach("pad", size)
        _neighbourhood(server, size)
        server.detach("pad")
        old_base = server.allocator.partition("below").base
        assert server.elastic.compact("below") < old_base
        assert server.stats.bytes_scrubbed == size
        for name in ("below", "middle", "above"):
            assert _contents(server, name) == _pattern(name, size)

    @pytest.mark.parametrize("size", PAGE_SHARING_SIZES)
    def test_swap_round_trip_moves_every_byte(self, size):
        server = elastic_server()
        _neighbourhood(server, size)
        region = server.allocator.partition("middle").base
        server.elastic.swap_out("middle")
        server.attach("squatter", size)
        assert server.allocator.partition("squatter").base == region
        assert _contents(server, "squatter") == bytes(size)
        server.elastic.ensure_resident("middle")
        for name in ("below", "middle", "above"):
            assert _contents(server, name) == _pattern(name, size)

    def test_scrub_and_swap_cost_the_touched_pages(self):
        """A 4 MiB tenant that touched one page: the swap image carries
        that page, the scrub leaves no page behind, and the swap-in
        materialises only that page again."""
        server = elastic_server()
        memory = server.device.memory
        pages = len(memory._pages)
        client = attach(server, "a", 4 << 20)
        client.memcpy_h2d(client.malloc(4096), b"\xab" * 4096)
        client.synchronize()
        assert len(memory._pages) == pages + 1
        server.elastic.swap_out("a")
        assert len(memory._pages) == pages
        image = server.elastic._swapped["a"]
        assert len(image.data) == 4 << 20
        assert len(image.data.chunks) == 1
        assert server.stats.bytes_scrubbed == 4 << 20
        server.elastic.ensure_resident("a")
        assert len(memory._pages) == pages + 1


# --------------------------------------------------------------------------
# should_defrag: the one compaction rule
# --------------------------------------------------------------------------


class TestDefragPolicy:
    def test_threshold_score_trigger(self):
        view = {"score": 0.4, "largest_carveable": 4,
                "bytes_unpartitioned": 10, "gaps": 3}
        assert should_defrag(view)
        view["score"] = 0.6
        assert not should_defrag(view)

    def test_threshold_want_bytes_trigger(self):
        view = {"score": 1.0, "largest_carveable": 1 << 20,
                "bytes_unpartitioned": 4 << 20, "gaps": 4}
        assert should_defrag(view, want_bytes=2 << 20)
        assert not should_defrag(view, want_bytes=1 << 20)


# --------------------------------------------------------------------------
# Telemetry: gauges and counters move with the engine
# --------------------------------------------------------------------------


class TestElasticTelemetry:
    def test_ops_and_gauges_recorded(self):
        server = elastic_server(telemetry=True)
        client = attach(server, "a", 4 << 20)
        client.malloc(4096)
        client.shrink_partition()
        server.elastic.swap_out("a")
        telemetry = server.telemetry
        assert telemetry.elastic_ops.value(op="shrink") == 1
        assert telemetry.elastic_ops.value(op="swap_out") == 1
        assert telemetry.elastic_bytes.value(op="swap_out") == 4096
        assert telemetry.elastic_swapped.value() == 4096
        score = telemetry.elastic_fragmentation.value()
        assert score is not None and 0.0 <= score <= 1.0

    def test_fragmentation_view_matches_allocator(self):
        server = elastic_server(telemetry=True)
        attach(server, "a", 1 << 20)
        view = server.elastic.fragmentation()
        assert view["score"] == server.allocator.fragmentation_score()
        assert view["largest_carveable"] == \
            server.allocator.largest_carveable()
        assert server.telemetry.elastic_fragmentation.value() == \
            view["score"]


# --------------------------------------------------------------------------
# Bit-identity pin: knobs on but unused == stock, cycle for cycle
# --------------------------------------------------------------------------


def _replay(server, blocks):
    """A deterministic workload driven purely by the hypothesis
    ``blocks`` structure: attach, deploy, per-block h2d/launch/sync,
    detach. Returns the cycle-relevant fingerprint."""
    server.attach("alice", 1 << 20)
    handles, _ = server.register_fatbin(
        "alice", build_fatbin(build_module([saxpy_kernel()]),
                              "lib", "11.7"))
    handle = handles["saxpy"]
    buf, _ = server.malloc("alice", 8192)
    for block in blocks:
        for op in block:
            if op == 0:
                server.memcpy_h2d(
                    "alice", buf,
                    np.ones(16, dtype=np.float32).tobytes())
            else:
                server.launch_kernel(
                    "alice", handle, (1, 1, 1), (16, 1, 1),
                    [buf, buf + 4096, 2.0, 16])
        server.synchronize("alice")
    server.detach("alice")
    return (server.stats.cycles, server.stats.launches,
            server.stats.transfers_checked, server.stats.syncs)


class TestBitIdentityPin:
    @given(blocks=st.lists(
        st.lists(st.integers(min_value=0, max_value=1),
                 min_size=1, max_size=4),
        min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_enabled_but_unused_knobs_are_bit_identical(self, blocks):
        """The hypothesis property pinning Table 5 / Fig. 7-13: the
        engine's passive hooks (attach/launch recency, lifecycle
        forget) charge nothing, so a server with every elastic knob ON
        but no elastic operation invoked produces cycle totals
        bit-identical to stock."""
        stock = _replay(GuardianServer(Device(SMALL)), blocks)
        elastic = _replay(
            GuardianServer(Device(SMALL), config=ServerConfig.elastic()),
            blocks)
        assert elastic == stock
