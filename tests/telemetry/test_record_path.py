"""The telemetry record path: what a record costs and what it leaves.

A golden run pins the snapshot, the Prometheus text and the Chrome
trace of one small fixed workload by sha256, so any change to how
records are taken has to leave every output byte where it was. The
deferred histogram fold is checked against an eager reference fold,
and two count pins hold the hot path to its budget: no label sorting
after a (tenant, method)'s first record, and no context manager on the
stock server's bounds check or launch.
"""

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
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.errors import BoundsViolation
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.telemetry import Telemetry, registry
from repro.telemetry.export import to_chrome_trace
from repro.telemetry.registry import FOLD_BOUND, QUANTILES, MetricsRegistry

from tests.conftest import saxpy_module

TENANTS = 3
BLOCKS = 4


def golden_run(config: ServerConfig):
    """Three batching tenants: deploy saxpy, four sync-delimited
    (h2d, h2d, launch) blocks each so a trace compiles and replays,
    a d2h, one malloc/free, then tenant 0's out-of-partition h2d into
    tenant 1's buffer."""
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE, config=config)
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    tenants = []
    for index in range(TENANTS):
        client = GuardianClient(server, f"tenant{index}", 1 << 20,
                                batching=True)
        handle = client.register_fatbin(fatbin)["saxpy"]
        tenants.append((client, handle, client.malloc(512)))
    payload = np.arange(16, dtype=np.float32).tobytes()
    for _ in range(BLOCKS):
        for client, handle, buffer in tenants:
            client.memcpy_h2d(buffer, payload)
            client.memcpy_h2d(buffer + 256, payload)
            client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
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
}


class TestGolden:
    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_outputs_are_byte_identical(self, preset):
        config = getattr(ServerConfig, preset)(telemetry=True)
        server, reads = golden_run(config)
        assert server.stats.transfers_rejected == 1
        assert all(len(raw) == 64 for raw in reads)
        assert digests(server) == GOLDEN[preset]


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


def _tenants(server, batching):
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    tenants = []
    for index in range(2):
        client = GuardianClient(server, f"tenant{index}", 1 << 20,
                                batching=batching)
        handle = client.register_fatbin(fatbin)["saxpy"]
        tenants.append((client, handle, client.malloc(512)))
    return tenants


class TestCountPins:
    @pytest.mark.parametrize("batching", [False, True])
    def test_repeat_records_resolve_no_labels(self, monkeypatch, batching):
        """After a (tenant, method)'s first call, recording it again
        (call count, latency, dispatch cycles, queue wait) sorts no
        label set."""
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE,
                                config=ServerConfig.traced(telemetry=True))
        tenants = _tenants(server, batching)
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
        tenants = _tenants(server, batching=False)
        _round(tenants, np.arange(16, dtype=np.float32).tobytes())
        assert server.stats.transfers_checked > 0
        assert server.stats.launches == 2
        assert set(entered) == {"register_fatbin", "_deploy"}
