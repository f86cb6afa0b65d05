"""Hot-path caching: the patch cache, extract memo and launch fast path.

These are this repo's beyond-the-paper optimisations; everything is
off by default (see ``test_cycle_accounting`` for the proof that the
stock server still matches Table 5 bit-for-bit).
"""

import pytest

from repro.core import patcher
from repro.core.patcher import PatchCache, PTXPatcher
from repro.core.policy import FencingMode
from repro.core.server import (
    EXTRACT_CACHE_BYTES,
    GuardianServer,
    ServerConfig,
)
from repro.driver.fatbin import FatBinary, FatbinEntry, build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.emitter import emit_module

from tests.conftest import attack_module, saxpy_module


@pytest.fixture
def device():
    return Device(QUADRO_RTX_A4000)


def make_server(device, **config_overrides):
    config = ServerConfig.hotpath(**config_overrides)
    return GuardianServer(device, FencingMode.BITWISE, config=config)


SAXPY_TEXT = emit_module(saxpy_module())
ATTACK_TEXT = emit_module(attack_module())


class TestPatchCacheUnit:
    def patch(self, text, mode=FencingMode.BITWISE):
        return PTXPatcher(mode).patch_text(text)

    def test_content_addressed_hit(self):
        cache = PatchCache()
        patched, reports = self.patch(SAXPY_TEXT)
        cache.put(SAXPY_TEXT, FencingMode.BITWISE, patched, reports)
        # Probing with an equal-content but distinct string object hits.
        probe = SAXPY_TEXT[:10] + SAXPY_TEXT[10:]
        entry = cache.get(probe, FencingMode.BITWISE)
        assert entry is not None
        assert entry[0] == patched
        assert entry[1] is reports  # shared by reference

    def test_mode_is_part_of_the_key(self):
        cache = PatchCache()
        patched, reports = self.patch(SAXPY_TEXT)
        cache.put(SAXPY_TEXT, FencingMode.BITWISE, patched, reports)
        assert cache.get(SAXPY_TEXT, FencingMode.MODULO) is None

    def test_lru_eviction_order(self, monkeypatch):
        monkeypatch.setattr(patcher, "PATCH_CACHE_ENTRIES", 2)
        cache = PatchCache()
        texts = [SAXPY_TEXT, ATTACK_TEXT,
                 SAXPY_TEXT.replace("saxpy", "saxpy2")]
        patched = {
            text: self.patch(text) for text in texts
        }
        assert cache.put(texts[0], FencingMode.BITWISE,
                         *patched[texts[0]]) == 0
        assert cache.put(texts[1], FencingMode.BITWISE,
                         *patched[texts[1]]) == 0
        # Touch texts[0] so texts[1] becomes least recently used.
        assert cache.get(texts[0], FencingMode.BITWISE) is not None
        assert cache.put(texts[2], FencingMode.BITWISE,
                         *patched[texts[2]]) == 1
        assert cache.get(texts[1], FencingMode.BITWISE) is None
        assert cache.get(texts[0], FencingMode.BITWISE) is not None
        assert len(cache) == 2


class TestSharedPatchCache:
    def test_two_tenants_same_ptx_share_one_entry(self, device):
        """Identical library PTX is patched once, but each tenant's
        launches carry its *own* partition bounds."""
        server = make_server(device)
        server.attach("alice", 1 << 20)
        server.attach("bob", 1 << 20)
        fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
        alice_handles, _ = server.register_fatbin("alice", fatbin)
        bob_handles, _ = server.register_fatbin(
            "bob", build_fatbin(saxpy_module(), "libsaxpy", "11.7"))
        assert server.stats.patch_cache_misses == 1
        assert server.stats.patch_cache_hits == 1

        captured = []
        original = server.driver.cuLaunchKernel

        def spy(function, grid, block, params, stream, **kwargs):
            captured.append(list(params))
            return original(function, grid, block, params, stream,
                            **kwargs)

        server.driver.cuLaunchKernel = spy
        for app_id, handles in (("alice", alice_handles),
                                ("bob", bob_handles)):
            buf, _ = server.malloc(app_id, 256)
            server.launch_kernel(app_id, handles["saxpy"],
                                 (1, 1, 1), (32, 1, 1),
                                 [buf, buf, 2.0, 0])
        alice_record = server.allocator.bounds.lookup("alice")
        bob_record = server.allocator.bounds.lookup("bob")
        assert captured[0][-2:] == alice_record.extra_param_values(
            FencingMode.BITWISE)
        assert captured[1][-2:] == bob_record.extra_param_values(
            FencingMode.BITWISE)
        assert captured[0][-2:] != captured[1][-2:]

    def test_extract_memo_hits_on_identical_fatbin_content(self, device):
        server = make_server(device)
        server.attach("alice", 1 << 20)
        server.attach("bob", 1 << 20)
        # Distinct FatBinary objects, byte-identical content.
        server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        server.register_fatbin(
            "bob", build_fatbin(saxpy_module(), "lib", "11.7"))
        assert server.stats.extract_cache_misses == 1
        assert server.stats.extract_cache_hits == 1

    def test_extract_memo_is_bounded_by_bytes(self, device):
        """Tenant-chosen keys must not grow the trusted process: 5 000
        distinct fatBINs evict, and an evicted one is extracted — and
        charged — again."""
        server = make_server(device, charge_patch_cycles=True)
        costs = server.costs
        server.attach("alice", 1 << 20)

        def fatbin(index):
            text = f"{SAXPY_TEXT}\n// variant {index}\n"
            return FatBinary(
                "lib", [FatbinEntry("ptx", "ampere", text.encode())]
            )

        first = fatbin(0)
        handles, _ = server.register_fatbin("alice", first)
        for index in range(1, 5_000):
            server._extract_ptx(fatbin(index))
        memo = server._extract_cache
        assert 0 < memo.bytes <= EXTRACT_CACHE_BYTES
        assert len(memo) < 5_000
        assert first.content_key() not in memo
        assert server.stats.extract_cache_misses == 5_000
        before = server.stats.cycles
        again, _ = server.register_fatbin("alice", first)
        assert again.keys() == handles.keys()
        assert server.stats.extract_cache_misses == 5_001
        assert server.stats.extract_cache_hits == 0
        assert server.stats.cycles - before == (
            costs.extract + costs.patch_lookup
        )

    def test_disabled_cache_counts_nothing(self, device):
        server = GuardianServer(device, FencingMode.BITWISE)
        server.attach("alice", 1 << 20)
        server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        assert server.stats.patch_cache_hits == 0
        assert server.stats.patch_cache_misses == 0
        assert server.stats.extract_cache_hits == 0
        assert server.stats.extract_cache_misses == 0


class TestLaunchFastPath:
    def deploy(self, server, app_id="alice", size=1 << 20):
        server.attach(app_id, size)
        handles, _ = server.register_fatbin(
            app_id, build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc(app_id, 256)
        return handles["saxpy"], buf

    def launch(self, server, handle, buf, app_id="alice"):
        server.launch_kernel(app_id, handle, (1, 1, 1), (32, 1, 1),
                             [buf, buf, 2.0, 0])

    def test_steady_state_hits_after_first_miss(self, device):
        server = make_server(device)
        handle, buf = self.deploy(server)
        for _ in range(5):
            self.launch(server, handle, buf)
        assert server.stats.fastpath_misses == 1
        assert server.stats.fastpath_hits == 4
        assert server.stats.fastpath_hit_rate == 0.8

    def test_hotpath_rates_on_zero_call_snapshot(self, device):
        """Every hit rate is a well-defined 0.0 before the first call."""
        stats = make_server(device).stats
        assert stats.patch_hit_rate == 0.0
        assert stats.extract_hit_rate == 0.0
        assert stats.fastpath_hit_rate == 0.0

    def test_steady_state_launch_cost(self, device):
        server = make_server(device)
        handle, buf = self.deploy(server)
        self.launch(server, handle, buf)  # populate the memo
        before = server.stats.cycles
        self.launch(server, handle, buf)
        assert server.stats.cycles - before == (
            server.costs.lookup_cached + server.costs.launch_syscall
        )

    def test_grow_partition_invalidates_the_memo(self, device):
        """After in-place growth the very next launch must carry the
        widened mask — the epoch check forces a rebuild."""
        server = make_server(device)
        handle, buf = self.deploy(server)
        self.launch(server, handle, buf)
        old_params = server.allocator.bounds.lookup(
            "alice").extra_param_values(FencingMode.BITWISE)

        server.grow_partition("alice", 2 << 20)

        captured = []
        original = server.driver.cuLaunchKernel

        def spy(function, grid, block, params, stream, **kwargs):
            captured.append(list(params))
            return original(function, grid, block, params, stream,
                            **kwargs)

        server.driver.cuLaunchKernel = spy
        misses_before = server.stats.fastpath_misses
        self.launch(server, handle, buf)
        new_params = server.allocator.bounds.lookup(
            "alice").extra_param_values(FencingMode.BITWISE)
        assert captured[0][-2:] == new_params
        assert new_params != old_params  # mask actually widened
        assert server.stats.fastpath_misses == misses_before + 1
        # And the rebuilt memo serves hits again.
        hits_before = server.stats.fastpath_hits
        self.launch(server, handle, buf)
        assert server.stats.fastpath_hits == hits_before + 1

    def test_reattach_does_not_see_stale_params(self, device):
        """Detach + re-attach gets a fresh tenant; its first launch
        rebuilds from the *new* partition record."""
        server = make_server(device)
        handle, buf = self.deploy(server)
        self.launch(server, handle, buf)
        server.detach("alice")
        handle, buf = self.deploy(server, size=2 << 20)
        captured = []
        original = server.driver.cuLaunchKernel

        def spy(function, grid, block, params, stream, **kwargs):
            captured.append(list(params))
            return original(function, grid, block, params, stream,
                            **kwargs)

        server.driver.cuLaunchKernel = spy
        self.launch(server, handle, buf)
        record = server.allocator.bounds.lookup("alice")
        assert captured[0][-2:] == record.extra_param_values(
            FencingMode.BITWISE)
