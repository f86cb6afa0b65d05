"""The telemetry record path: what a record costs and what it leaves.

A golden run pins the snapshot, the Prometheus text and the Chrome
trace of one small fixed workload by sha256, so any change to how
records are taken has to leave every output byte where it was. The
deferred histogram fold is checked against an eager reference fold,
and count pins hold the hot path to its budget: no label sorting after
a (tenant, method)'s first record, no context manager on the stock
server's bounds check or launch, no per-span dict from a hot site, and
a replayed block's ops after the first delivered in one call.
"""

import dataclasses
import hashlib
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import server as server_module
from repro.core.client import GuardianClient
from repro.core.patcher import clear_patched
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.core.supervisor import TenantSupervisor
from repro.core import ipc
from repro.core.tracecache import TraceEngine
from repro.driver.fatbin import build_fatbin
from repro.driver.jit import clear_images
from repro.errors import BoundsViolation, GuardianError, MemoryFault
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.builder import KernelBuilder, build_module
from repro.telemetry import Telemetry, registry
from repro.telemetry.export import to_chrome_trace
from repro.telemetry.registry import FOLD_BOUND, QUANTILES, MetricsRegistry

from tests.conftest import saxpy_module

TENANTS = 3
BLOCKS = 4


def golden_run(config: ServerConfig, deviation=None):
    """Three batching tenants: deploy saxpy, four sync-delimited
    (h2d, h2d, launch) blocks each so a trace compiles and replays,
    a d2h, one malloc/free, then tenant 0's out-of-partition h2d into
    tenant 1's buffer. ``deviation`` (0, 1 or 2) changes the shape of
    that op of tenant 0's third block, the first one replayed."""
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE, config=config)
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    tenants = []
    for index in range(TENANTS):
        client = GuardianClient(server, f"tenant{index}", 1 << 20)
        handle = client.register_fatbin(fatbin)["saxpy"]
        tenants.append((client, handle, client.malloc(512)))
    payload = np.arange(16, dtype=np.float32).tobytes()
    for block in range(BLOCKS):
        for index, (client, handle, buffer) in enumerate(tenants):
            moved = deviation if block == 2 and index == 0 else None
            client.memcpy_h2d(buffer + (128 if moved == 0 else 0), payload)
            client.memcpy_h2d(buffer + 256, payload[:32 if moved == 1
                                                     else None])
            client.launch_kernel(handle, (1, 1, 1),
                                 (8 if moved == 2 else 16, 1, 1),
                                 [buffer, buffer + 256, 2.0, 16])
            client.synchronize()
    reads = [client.memcpy_d2h(buffer, 64) for client, _, buffer in tenants]
    first = tenants[0][0]
    first.free(first.malloc(256))
    with pytest.raises(BoundsViolation):
        first.memcpy_h2d(tenants[1][2], payload)
        first.flush()
    device.synchronize(spatial=True)
    return server, reads


def digests(server) -> dict:
    telemetry = server.telemetry

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "snapshot": sha(json.dumps(telemetry.snapshot())),
        "prometheus": sha(telemetry.registry.render_prometheus()),
        "chrome": sha(json.dumps(to_chrome_trace(telemetry.tracer.spans()))),
    }


#: sha256 of each output per config.
GOLDEN = {
    "traced": {
        "snapshot": "4231632098dcb8a68d8db59f67ab02c6"
                    "751a3250636b5eda45edc7ca9c10c06c",
        "prometheus": "847784be364208cffc94054d4abe530a"
                      "c36fb354ecbb806213b41b2f5de3d40f",
        "chrome": "3c8d60da8ab7c4e0f81863aa5687ab1f"
                  "84f59e463caaf94a5faaec3e00e73734",
    },
    "concurrent": {
        "snapshot": "26105828d94c29e0afcaee0cf64029eb"
                    "1ece68bde6da899b65e29a4e6712ab4f",
        "prometheus": "a426bf11173dac69371d8c8aea8842cf"
                      "91bf4cc717a2b84d3746ff538ea3d567",
        "chrome": "775e69ddb80fbf53c4d8f9d7c89a2f48"
                  "3e51d703e003c6764e6a6785e8ca179d",
    },
    "traced_concurrent": {
        "snapshot": "96d14351503ac46ac84527b1849e3c86"
                    "8cc80b5c2bf98e12be10a24cfef7929a",
        "prometheus": "847784be364208cffc94054d4abe530a"
                      "c36fb354ecbb806213b41b2f5de3d40f",
        "chrome": "730dfcd7696681e3508786384a78fe43"
                  "785fe06506bf1b3584f0821f2df28a72",
    },
}


#: The config each GOLDEN entry runs: a preset with telemetry on.
PRESETS = {
    "traced": lambda: ServerConfig.traced(telemetry=True),
    "concurrent": lambda: ServerConfig.concurrent(telemetry=True),
    # The one preset whose replayed blocks also move lane clocks and
    # release instants.
    "traced_concurrent": lambda: ServerConfig.traced(concurrency=True,
                                                     telemetry=True),
}


def stats_digest(server) -> str:
    """sha256 of every ServerStats field its equality compares."""
    stats = server.stats
    compared = [(field.name, getattr(stats, field.name))
                for field in dataclasses.fields(stats) if field.compare]
    return hashlib.sha256(repr(compared).encode()).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_outputs_are_byte_identical(self, preset):
        server, reads = golden_run(PRESETS[preset]())
        assert server.stats.transfers_rejected == 1
        assert all(len(raw) == 64 for raw in reads)
        assert digests(server) == GOLDEN[preset]


#: Per (preset, deviating op): sha256 of the snapshot, the Prometheus
#: text, the Chrome trace and the compared ServerStats fields.
DEVIATED = {
    ("traced", 0): (
        "1815fc84f58aa7580ef12dc8ecc469f4fb458b819123347617e00fe8da5b16c1",
        "8ec082053ce4168a2a9210257ea1a328828d7ce467386cc2f4a2bed0559a9f5e",
        "2d9d53dc85f35799e83b4058eaf6c12a4d7182bab06136d3dbaef11a1a709113",
        "a9b496eb8f4cbd1dbe55fa973bc978d09c95743315f644e27799ebec2b46b0b4",
    ),
    ("traced", 1): (
        "c97eabdcc0e885f9ba21f3e0eaf8e4fc5e971109a5f1ee766b2d606acfecb3db",
        "944992841f0bd30e50f79be17581bcc2e5f98d3494bb6d0c4ad058c3f7e0e901",
        "29b8ff6b300016efcc8d8fdfd13293041e91ba453e7dad6b297523d4a3f3b3dd",
        "b6515d3c40fdbccc6684fb71303436fe9229ff5152227bc807bde3524f4e2627",
    ),
    ("traced", 2): (
        "45cda551e73daa402b26fe30fa7da40a28617c89bbf5d120b33d3b624a3828c1",
        "4e6c67e00fd474827e329799848cf76429807ea58049a5080ce80a85db60f334",
        "d063391b444919c1eebf16428c2cc3fdedb5ca4954414554d34728d00f030b04",
        "e9e4e48f7d61d168af0562b0169c6a47f8c392957d5e4ecd0dd59aa6868ee8e3",
    ),
    ("traced_concurrent", 0): (
        "f63271a53bd9d0ac8b29bc17e06c6895ea177e2d974582610e81a3e27d2d9a4b",
        "8ec082053ce4168a2a9210257ea1a328828d7ce467386cc2f4a2bed0559a9f5e",
        "f9009fead1fa9f9514ca7fd14809ccf7d43af42b05a9fdd7dde430aef5289d54",
        "a9b496eb8f4cbd1dbe55fa973bc978d09c95743315f644e27799ebec2b46b0b4",
    ),
    ("traced_concurrent", 1): (
        "4e8cc481949e1d4a7971b248a289a22ab59283fe42fed362c7149ef232a0a2ac",
        "944992841f0bd30e50f79be17581bcc2e5f98d3494bb6d0c4ad058c3f7e0e901",
        "e663656a259eb96ff2d19b22cf41bbc0987d6dffe6ebfa5139345e9dfb1fa1ad",
        "b6515d3c40fdbccc6684fb71303436fe9229ff5152227bc807bde3524f4e2627",
    ),
    ("traced_concurrent", 2): (
        "e18645f4f728e429f2fa2e22cfa1cc25d3357da5677ab172294dca69376ee518",
        "4e6c67e00fd474827e329799848cf76429807ea58049a5080ce80a85db60f334",
        "f461dcf4bd0f73d448d437962412042f3a896d702479cf5e846d6101c0569a34",
        "e9e4e48f7d61d168af0562b0169c6a47f8c392957d5e4ecd0dd59aa6868ee8e3",
    ),
}


class TestDeviation:
    """Tenant 0's first replayed block changes the shape of its first,
    middle or last op: the prefix before it replays, the rest runs
    interpreted, the trace drops once and every output is as pinned."""

    @pytest.mark.parametrize("deviation", [0, 1, 2],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("preset", ["traced", "traced_concurrent"])
    def test_outputs_are_pinned(self, preset, deviation):
        server, _ = golden_run(PRESETS[preset](), deviation=deviation)
        stats = server.stats
        assert stats.trace_invalidations == 1
        assert stats.trace_replays == 4
        assert (*digests(server).values(), stats_digest(server)) == (
            DEVIATED[preset, deviation])


# --------------------------------------------------------------------------
# The deferred fold against an eager one
# --------------------------------------------------------------------------

_GROWTH_LOG = 32 / math.log(2.0)


class EagerSeries:
    """The reference: every value folded the moment it is observed."""

    def __init__(self):
        self.buckets = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        index = 0 if value < 1.0 else 1 + int(math.log(value) * _GROWTH_LOG)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def quantile(self, q):
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                middle = (0.0 if index <= 0
                          else math.exp((index - 0.5) / _GROWTH_LOG))
                return min(max(middle, self.min), self.max)
        return self.max


def _reads(series) -> tuple:
    # repr() tells -0.0 from 0.0 and an int from a float.
    return (series.count, repr(series.total), repr(series.min),
            repr(series.max), list(series.buckets.items()),
            [repr(series.quantile(q)) for q, _ in QUANTILES])


_SPECIAL = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1, 2, 3.0, 1e-300, 1e300,
                            -1e300, 2.0 ** 53 + 1, 10 ** 20, -7])


@st.composite
def programs(draw):
    """A value sequence long enough to cross the fold bound, and the
    points at which it is read."""
    length = draw(st.integers(0, 40)
                  | st.integers(FOLD_BOUND - 3, 3 * FOLD_BOUND + 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    specials = draw(st.lists(_SPECIAL, max_size=8))
    values = []
    for _ in range(length):
        shape = rng.randrange(4)
        if shape == 0:
            values.append(rng.lognormvariate(8.0, 3.0))
        elif shape == 1:
            values.append(rng.randrange(0, 1 << 20))
        elif shape == 2:
            values.append(rng.uniform(-2.0, 2.0))
        else:
            values.append(float(rng.randrange(100, 200)))
    for special in specials:
        values.insert(rng.randrange(len(values) + 1), special)
    reads = draw(st.lists(st.integers(0, len(values)), max_size=6))
    return values, sorted(set(reads))


class TestDeferredFold:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_matches_an_eager_fold(self, program):
        values, reads = program
        family = MetricsRegistry().histogram("h")
        deferred = family.series_for(tenant="a")
        eager = EagerSeries()
        for position, value in enumerate(values):
            if position in reads:
                assert _reads(deferred) == _reads(eager)
            deferred.observe(value)
            eager.observe(value)
        assert _reads(deferred) == _reads(eager)
        assert deferred.total == eager.total

    def test_pending_is_bounded(self):
        series = MetricsRegistry().histogram("h").series_for()
        for value in range(10 * FOLD_BOUND + 7):
            series.observe(float(value))
            assert len(series._pending) < FOLD_BOUND
        assert series.count == 10 * FOLD_BOUND + 7
        assert not series._pending


class TestCallRecorder:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_refused_record_changes_nothing(self, bad):
        telemetry = Telemetry()
        record = telemetry.call_recorder("a", "malloc")
        record(5.0)
        with pytest.raises(ValueError, match="non-finite"):
            record(bad)
        assert telemetry.calls.value(tenant="a", method="malloc") == 1
        latency = telemetry.call_latency
        assert latency.count(tenant="a", method="malloc") == 1
        assert latency.count(tenant="a") == 1

    def test_records_past_the_fold_bound(self):
        telemetry = Telemetry()
        record = telemetry.call_recorder("a", "malloc")
        values = [float(value % 97) for value in range(2 * FOLD_BOUND + 3)]
        eager = EagerSeries()
        for value in values:
            record(value)
            eager.observe(value)
        assert telemetry.calls.value(tenant="a", method="malloc") == len(
            values)
        latency = telemetry.call_latency
        for labels in ({"tenant": "a", "method": "malloc"}, {"tenant": "a"}):
            assert _reads(latency.series_for(**labels)) == _reads(eager)


# --------------------------------------------------------------------------
# Count pins
# --------------------------------------------------------------------------


def _round(tenants, payload):
    for client, handle, buffer in tenants:
        client.memcpy_h2d(buffer, payload)
        client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                             [buffer, buffer + 256, 2.0, 16])
        client.synchronize()
        client.memcpy_d2h(buffer, 64)
        client.free(client.malloc(256))


def _tenants(server):
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    tenants = []
    for index in range(2):
        client = GuardianClient(server, f"tenant{index}", 1 << 20)
        handle = client.register_fatbin(fatbin)["saxpy"]
        tenants.append((client, handle, client.malloc(512)))
    return tenants


class TestCountPins:
    @pytest.mark.parametrize("batching", [False, True])
    def test_repeat_records_resolve_no_labels(self, monkeypatch, batching):
        """After a (tenant, method)'s first call, recording it again
        (call count, latency, dispatch cycles, queue wait) sorts no
        label set. The hot path decides whether clients batch."""
        config = ServerConfig.traced(telemetry=True,
                                     enable_hot_path=batching)
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE, config=config)
        tenants = _tenants(server)
        assert tenants[0][0].channel.batching is batching
        payload = np.arange(16, dtype=np.float32).tobytes()
        _round(tenants, payload)
        calls = []
        label_key = registry._label_key

        def counting(labels):
            calls.append(labels)
            return label_key(labels)

        counter = server.telemetry.calls
        before = sum(value for _, value in counter.series())
        monkeypatch.setattr(registry, "_label_key", counting)
        for _ in range(3):
            _round(tenants, payload)
        assert calls == []
        # ... and every call was still recorded.
        after = sum(value for _, value in counter.series())
        assert after - before == 3 * len(tenants) * 6

    def test_stock_hot_sites_enter_no_context_manager(self, monkeypatch):
        """On ``ServerConfig()`` the bounds check and the launch pay one
        ``is None`` test: only the cold deploy sites enter
        ``maybe_span``."""
        entered = []
        real = server_module.maybe_span

        def spy(*args, **kwargs):
            entered.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "maybe_span", spy)
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE, config=ServerConfig())
        tenants = _tenants(server)
        _round(tenants, np.arange(16, dtype=np.float32).tobytes())
        assert server.stats.transfers_checked > 0
        assert server.stats.launches == 2
        assert set(entered) == {"register_fatbin", "_deploy"}


class TestFlatRows:
    #: The deploy sites: ``maybe_span`` keeps their attrs dicts.
    COLD = {"extract_ptx", "patch_ptx"}

    def test_no_hot_row_holds_a_dict(self):
        """Call, queue-wait, bounds-check, launch, replay and device
        spans store their attrs as a shared key tuple plus values."""
        server, _ = golden_run(PRESETS["traced"]())
        rows = server.telemetry.tracer._ring
        holding = {row[4] for row in rows
                   if any(isinstance(item, dict) for item in row)}
        assert holding <= self.COLD
        names = {row[4] for row in rows}
        assert {"memcpy_h2d", "launch_kernel", "bounds_check", "launch",
                "trace_replay", "queue_wait:memcpy_h2d"} <= names


class TestReplayDelivery:
    def _delivered(self, monkeypatch, config, supervised=False):
        counts = []
        real = TraceEngine.deliver

        def spy(engine, app_id, batch, start):
            counts.append(real(engine, app_id, batch, start))
            return counts[-1]

        monkeypatch.setattr(TraceEngine, "deliver", spy)
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE, config=config)
        target = TenantSupervisor(server) if supervised else server
        tenants = _tenants(target)
        payload = np.arange(16, dtype=np.float32).tobytes()
        for _ in range(BLOCKS):
            for client, handle, buffer in tenants:
                client.memcpy_h2d(buffer, payload)
                client.memcpy_h2d(buffer + 256, payload)
                client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                                     [buffer, buffer + 256, 2.0, 16])
                client.synchronize()
        assert server.stats.trace_replays == 2 * len(tenants)
        return counts

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_ops_after_the_first_go_as_one_call(self, monkeypatch,
                                                telemetry):
        config = ServerConfig.traced(telemetry=telemetry)
        assert self._delivered(monkeypatch, config) == [2] * 4

    def test_supervised_server_gets_every_call(self, monkeypatch):
        config = ServerConfig.traced(telemetry=True)
        assert self._delivered(monkeypatch, config, supervised=True) == []


def poke_module():
    """``poke(out, at)``: stores 7 at ``out`` plus the u64 found at
    ``at``, so an H2D payload (not part of a trace signature) can
    misalign a replayed launch's store."""
    b = KernelBuilder("poke", params=[("out", "u64"), ("at", "u64")])
    out = b.load_param_ptr("out")
    offset = b.ld_global("u64", b.load_param_ptr("at"))
    b.st_global("u32", b.add("u64", out, offset), 7)
    return build_module([b.build()])


def replay_run(config):
    """Two tenants, blocks longer than two batches with a synchronous
    read in the middle; tenant 0's fifth block misaligns its launch
    (the replayed op fails) and tenant 1's sixth changes shape in the
    batch ``MAX_BATCH`` cuts."""
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE, config=config)
    fatbin = build_fatbin(poke_module(), "libpoke", "11.7")
    clients, failures = [], []
    for index in range(2):
        client = GuardianClient(server, f"tenant{index}", 1 << 20)
        clients.append((client, client.register_fatbin(fatbin)["poke"],
                        client.malloc(4096)))
    for block in range(8):
        for index, (client, poke, buffer) in enumerate(clients):
            bad = index == 0 and block == 4
            try:
                client.memcpy_h2d(buffer + 3072,
                                  (2 if bad else 0).to_bytes(8, "little"))
                client.launch_kernel(poke, (1, 1, 1), (1, 1, 1),
                                     [buffer, buffer + 3072])
                for op in range(2 * ipc.MAX_BATCH):
                    size = 8 if index == 1 and block == 5 and op == 60 else 16
                    client.memset(buffer + 16 * op, 3, size)
                    if op == 20:
                        client.memcpy_d2h(buffer, 16)
                client.synchronize()
            except GuardianError as failure:  # a counted kill
                assert isinstance(failure.__cause__, MemoryFault)
                failures.append(str(failure))
    reads = [client.memcpy_d2h(buffer, 4096) for client, _, buffer in clients]
    device.synchronize(spatial=True)
    return server, clients, reads, failures


class TestDeliveryDifferential:
    """Delivering a replayed block's ops in one call records exactly
    what delivering each on its own does: the same counters, charges,
    lane clocks, reads, spans, metrics and exported bytes, across
    batches cut by ``MAX_BATCH`` and by a synchronous call, a replayed
    op that fails and a mid-block deviation."""

    @pytest.mark.parametrize("preset", ["traced", "traced_concurrent"])
    def test_same_as_per_call(self, monkeypatch, preset):
        fused = replay_run(PRESETS[preset]())
        assert fused[0].stats.trace_replays > 0
        errors = [span for span in fused[0].telemetry.tracer.spans()
                  if span.category == "call" and "error" in span.attrs]
        assert [span.name for span in errors] == ["launch_kernel"]
        monkeypatch.setattr(TraceEngine, "deliver",
                            lambda engine, app_id, batch, start: 0)
        # Cold deploy caches again: the two runs' deploy counters match.
        clear_images()
        clear_patched()
        per_call = replay_run(PRESETS[preset]())

        def outputs(server, clients, reads, failures):
            return (reads, failures, digests(server), stats_digest(server),
                    [client.channel.stats for client, _, _ in clients],
                    [(lane.ops, lane.clock, lane.busy)
                     for lane in server._lanes.values()])

        assert outputs(*fused) == outputs(*per_call)
        assert len(fused[3]) == 1
        assert fused[0].stats.trace_invalidations == 2
