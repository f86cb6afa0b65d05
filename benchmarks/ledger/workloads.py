"""The five ledger workloads (README.md says why each exists).

Every workload is one closed loop in one thread: a single caller
multiplexes its tenants round-robin and issues the next call when the
previous one returns. Each exposes the same four steps to
:func:`benchmarks.ledger.harness.drive` -- ``prepare`` (untimed input
generation), ``round`` (timed; returns the intercepted calls it made),
``verify`` (untimed output checks) -- plus ``finish`` (final checks and
the program's public counters).

The drain rule: ``Device._pending`` is only cleared by
``Device.synchronize`` and every tenant ``synchronize`` scans it, so
each round / churn event ends with ``device.synchronize(spatial=True)``.
Without it per-call cost grows with run length (README.md).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.client import GuardianClient
from repro.core.elastic import ElasticClient
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.errors import AdmissionRejected, BoundsViolation, PartitionError
from repro.gpu.device import Device
from repro.gpu.specs import MIB, QUADRO_RTX_A4000
from repro.loadgen import ChurnConfig, churn_trace, session_fatbin
from repro.ptx.builder import KernelBuilder, build_module
from repro.runtime.api import HostCostModel
from repro.sharing.deployments import AppSpec, run_deployment
from repro.workloads.frameworks.datasets import dataset_for
from repro.workloads.frameworks.libs import LibraryBundle
from repro.workloads.frameworks.networks import MODEL_ZOO
from repro.workloads.frameworks.training import train

from benchmarks.ledger.harness import CounterTally, Harness

#: Share of the timed rounds run first, untimed, as warm-up: kernels
#: JIT and traces compile there, and it is part of ``setup_s``.
WARM_SHARE = 0.1


def stock_config() -> ServerConfig:
    """The paper's server."""
    return ServerConfig()


def full_config() -> ServerConfig:
    """ROADMAP's measured arm: every hot-path cache, trace
    specialization, vectorized bounds and the telemetry spine."""
    return ServerConfig.traced(telemetry=True)


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


def warm_rounds(rounds: int) -> int:
    # Three blocks are the least a trace needs to record, compile and
    # replay once, so even the smallest run reaches the steady state.
    return max(3, round(rounds * WARM_SHARE))


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


def saxpy_kernel():
    """y[i] = a * x[i] + y[i]."""
    b = KernelBuilder("saxpy", params=[
        ("y", "u64"), ("x", "u64"), ("a", "f32"), ("n", "u32"),
    ])
    y = b.load_param_ptr("y")
    x = b.load_param_ptr("x")
    a = b.load_param("a", "f32")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    with b.if_less_than(gid, n):
        x_addr = b.element_addr(x, gid, 4)
        y_addr = b.element_addr(y, gid, 4)
        result = b.fma("f32", b.ld_global("f32", x_addr), a,
                       b.ld_global("f32", y_addr))
        b.st_global("f32", y_addr, result)
    return b.build()


def writer_kernel():
    """*(out + idx) = value: a u32 store at an arbitrary byte offset,
    the hostile tenant's kernel."""
    b = KernelBuilder("writer", params=[
        ("out", "u64"), ("idx", "u64"), ("value", "u32"),
    ])
    out = b.load_param_ptr("out")
    idx = b.load_param("idx", "u64")
    value = b.load_param("value", "u32")
    b.st_global("u32", b.add("s64", out, idx), value)
    return b.build()


def _resident_tally(workload) -> CounterTally:
    """Counters of a workload whose tenants stay attached throughout."""
    tally = CounterTally()
    tally.add_server(workload.server)
    tally.add_device(workload.device)
    for tenant in workload.tenants:
        tally.add_channel(tenant.client.channel.stats)
    return tally


# --------------------------------------------------------------------------
# storm_stock / storm_full
# --------------------------------------------------------------------------


@dataclass
class _StormTenant:
    client: GuardianClient
    buffer: int
    saxpy: int
    writer: int
    params: list
    #: (x bytes, y bytes) per payload slot.
    payloads: list
    #: The whole buffer as it must read back after a round that ended
    #: on each payload slot.
    images: list


class Storm:
    """Table 5's launch path: tenants x iterations of (H2D, H2D,
    launch saxpy), one synchronize per tenant per round."""

    TENANTS = 6
    ROUNDS = 400
    ITERATIONS = 10
    ELEMENTS = 16
    PARTITION = 1 << 20
    BUFFER = 512
    X_OFFSET = 256
    #: Unused bytes between y and x: where the hostile store aims (in
    #: the victim's buffer) and lands (wrapped, in the offender's own).
    GAP_OFFSET = 128
    SLOTS = 8
    A = 2.0
    VICTIM = 0
    HOSTILE = 5

    def __init__(self, harness: Harness, config: ServerConfig, seed: int):
        self.h = harness
        self.device = Device(QUADRO_RTX_A4000, keep_launch_results=True)
        self.server = GuardianServer(self.device, FencingMode.BITWISE,
                                     config=config)
        rng = np.random.default_rng(seed)
        fatbin = build_fatbin(
            build_module([saxpy_kernel(), writer_kernel()]),
            "libstorm", "11.7",
        )
        self.tenants = [self._attach(index, fatbin, rng)
                        for index in range(self.TENANTS)]
        self._arm_hostile(int(rng.integers(1, 1 << 32)))
        self.calls_per_round = (
            self.TENANTS * (3 * self.ITERATIONS + 1) + 1
        )

    def _attach(self, index: int, fatbin, rng) -> _StormTenant:
        client = GuardianClient(self.server, f"tenant{index}",
                                self.PARTITION)
        handles = client.register_fatbin(fatbin)
        buffer = client.malloc(self.BUFFER)
        client.memset(buffer, 0, self.BUFFER)
        payloads = []
        images = []
        for _ in range(self.SLOTS):
            # Multiples of 1/64 below 8: a*x + y is exact in float32
            # whichever way the simulator rounds its fma.
            x = (rng.integers(-512, 512, self.ELEMENTS) / 64.0).astype(
                np.float32)
            y = (rng.integers(-512, 512, self.ELEMENTS) / 64.0).astype(
                np.float32)
            payloads.append((x.tobytes(), y.tobytes()))
            image = bytearray(self.BUFFER)
            image[:4 * self.ELEMENTS] = (
                np.float32(self.A) * x + y).astype(np.float32).tobytes()
            image[self.X_OFFSET:self.X_OFFSET + 4 * self.ELEMENTS] = (
                x.tobytes())
            images.append(image)
        return _StormTenant(
            client=client, buffer=buffer, saxpy=handles["saxpy"],
            writer=handles["writer"],
            params=[buffer, buffer + self.X_OFFSET, self.A, self.ELEMENTS],
            payloads=payloads, images=images,
        )

    def _arm_hostile(self, value: int) -> None:
        """Aim the hostile tenant's ``writer`` at the victim's buffer
        and work out where bitwise fencing must make the store land:
        ``(addr & (size - 1)) | base`` of the offender's partition."""
        hostile = self.tenants[self.HOSTILE]
        victim = self.tenants[self.VICTIM]
        target = victim.buffer + self.GAP_OFFSET
        record = self.server.allocator.bounds.read(hostile.client.app_id)
        self.wrapped = (target & (record.size - 1)) | record.base
        self.attack_value = value.to_bytes(4, "little")
        self.attack_params = [
            hostile.buffer, (target - hostile.buffer) % (1 << 64), value,
        ]
        inside = self.wrapped - hostile.buffer
        if 0 <= inside <= self.BUFFER - 4:
            for image in hostile.images:
                image[inside:inside + 4] = self.attack_value

    def prepare(self, index: int) -> None:
        pass

    def round(self, index: int) -> int:
        tenants = self.tenants
        grid = (1, 1, 1)
        block = (self.ELEMENTS, 1, 1)
        x_offset = self.X_OFFSET
        first = index * self.ITERATIONS
        for iteration in range(self.ITERATIONS):
            slot = (first + iteration) % self.SLOTS
            for tenant in tenants:
                x, y = tenant.payloads[slot]
                client = tenant.client
                client.memcpy_h2d(tenant.buffer, y)
                client.memcpy_h2d(tenant.buffer + x_offset, x)
                client.launch_kernel(tenant.saxpy, grid, block,
                                     tenant.params)
        hostile = tenants[self.HOSTILE]
        hostile.client.launch_kernel(hostile.writer, grid, grid,
                                     self.attack_params)
        for tenant in tenants:
            tenant.client.synchronize()
        self.device.synchronize(spatial=True)
        return self.calls_per_round

    def verify(self, index: int) -> None:
        h = self.h
        slot = (index * self.ITERATIONS + self.ITERATIONS - 1) % self.SLOTS
        gap = slice(self.GAP_OFFSET, self.GAP_OFFSET + 4)
        for number, tenant in enumerate(self.tenants):
            raw = tenant.client.memcpy_d2h(tenant.buffer, self.BUFFER)
            h.digest(raw)
            h.check(raw == tenant.images[slot],
                    f"round {index}: tenant{number} buffer is not the "
                    f"saxpy closed form")
            if number == self.VICTIM:
                h.check(raw[gap] == bytes(4),
                        f"round {index}: hostile store reached the victim")
        landed = self.device.memory.read(self.wrapped, 4)
        h.check(landed == self.attack_value,
                f"round {index}: hostile store not found wrapped into the "
                f"offender's partition")
        h.count(self.calls_per_round)
        h.sim.drain(self.device)
        self.device.synchronize(spatial=True)

    def finish(self) -> CounterTally:
        return _resident_tally(self)


# --------------------------------------------------------------------------
# memops_full
# --------------------------------------------------------------------------

_H2D, _D2D, _MEMSET, _D2H, _MALLOC_FREE = range(5)


@dataclass
class _MemopsTenant:
    client: GuardianClient
    buffer: int
    shadow: bytearray


class Memops:
    """Control-plane ops in seeded-random order: no kernels, and no
    sync-delimited block ever repeats, so the trace layer only records
    and offers."""

    TENANTS = 6
    ROUNDS = 600
    OPS = 24
    PARTITION = 1 << 20
    BUFFER = 16 * 1024
    GRAIN = 64
    MAX_GRAINS = 64
    WEIGHTS = (30, 20, 20, 20, 10)

    def __init__(self, harness: Harness, config: ServerConfig, seed: int):
        self.h = harness
        self.device = Device(QUADRO_RTX_A4000, keep_launch_results=True)
        self.server = GuardianServer(self.device, FencingMode.BITWISE,
                                     config=config)
        self.rng = random.Random(seed)
        self.noise = self.rng.randbytes(4 * self.BUFFER)
        self.tenants = []
        for index in range(self.TENANTS):
            client = GuardianClient(self.server, f"tenant{index}",
                                    self.PARTITION)
            buffer = client.malloc(self.BUFFER)
            client.memset(buffer, 0, self.BUFFER)
            self.tenants.append(
                _MemopsTenant(client, buffer, bytearray(self.BUFFER)))
        self.ops: list[tuple] = []
        self.calls = 0
        self.read_back: list[bytes] = []
        self.intruder = self.tenants[0]
        self.intrusion_rejected = False

    def prepare(self, index: int) -> None:
        rng = self.rng
        kinds = range(5)
        grains = self.BUFFER // self.GRAIN
        ops = []
        calls = 0
        for _ in range(self.OPS):
            for tenant in self.tenants:
                kind = rng.choices(kinds, self.WEIGHTS)[0]
                size = self.GRAIN * rng.randint(1, self.MAX_GRAINS)
                room = grains - size // self.GRAIN
                offset = self.GRAIN * rng.randint(0, room)
                calls += 1
                if kind == _H2D:
                    start = rng.randrange(len(self.noise) - size)
                    ops.append((kind, tenant, offset,
                                self.noise[start:start + size], 0))
                elif kind == _D2D:
                    source = self.GRAIN * rng.randint(0, room)
                    ops.append((kind, tenant, offset, source, size))
                elif kind == _MEMSET:
                    ops.append((kind, tenant, offset, rng.randrange(256),
                                size))
                elif kind == _D2H:
                    ops.append((kind, tenant, offset, 0, size))
                else:
                    calls += 1
                    ops.append((kind, tenant, 0, 0, size))
        self.ops = ops
        self.intruder = self.tenants[index % self.TENANTS]
        # Per-tenant synchronize plus the out-of-partition attempt.
        self.calls = calls + self.TENANTS + 1

    def round(self, index: int) -> int:
        read_back = self.read_back = []
        for kind, tenant, first, second, third in self.ops:
            client = tenant.client
            base = tenant.buffer
            if kind == _H2D:
                client.memcpy_h2d(base + first, second)
            elif kind == _D2D:
                client.memcpy_d2d(base + first, base + second, third)
            elif kind == _MEMSET:
                client.memset(base + first, second, third)
            elif kind == _D2H:
                read_back.append(client.memcpy_d2h(base + first, third))
            else:
                client.free(client.malloc(third))
        for tenant in self.tenants:
            tenant.client.synchronize()
        # One tenant aims a transfer at its neighbour's buffer. With
        # batching the error surfaces at the flush point.
        intruder = self.intruder.client
        neighbour = self.tenants[(index + 1) % self.TENANTS]
        self.intrusion_rejected = False
        try:
            intruder.memcpy_h2d(neighbour.buffer, self.noise[:self.GRAIN])
            intruder.flush()
        except BoundsViolation:
            self.intrusion_rejected = True
        self.device.synchronize(spatial=True)
        return self.calls

    def verify(self, index: int) -> None:
        h = self.h
        read_back = iter(self.read_back)
        for kind, tenant, first, second, third in self.ops:
            shadow = tenant.shadow
            if kind == _H2D:
                shadow[first:first + len(second)] = second
            elif kind == _D2D:
                shadow[first:first + third] = shadow[second:second + third]
            elif kind == _MEMSET:
                shadow[first:first + third] = bytes([second]) * third
            elif kind == _D2H:
                raw = next(read_back)
                h.digest(raw)
                h.check(raw == shadow[first:first + third],
                        f"round {index}: D2H differs from the host shadow")
        # The expected rejection is one of the round's calls, so it is
        # checked but not counted a second time.
        h.check(self.intrusion_rejected,
                f"round {index}: out-of-partition H2D was not rejected")
        h.count(self.calls - 1)
        self.device.synchronize(spatial=True)

    def finish(self) -> CounterTally:
        for number, tenant in enumerate(self.tenants):
            raw = tenant.client.memcpy_d2h(tenant.buffer, self.BUFFER)
            self.h.digest(raw)
            self.h.check(raw == tenant.shadow,
                         f"tenant{number}: final buffer differs from the "
                         f"host shadow")
        return _resident_tally(self)


# --------------------------------------------------------------------------
# mix_train
# --------------------------------------------------------------------------


class MixTrain:
    """Table 4 mix A (2 x LeNet) under the ``guardian`` deployment,
    every block executed, each round one replay on a fresh device.

    The apps mirror ``build_mix("A")`` but are built here so each
    closure keeps its per-batch losses. The warm-up round trains one
    app for one batch: it pays the lazy imports, not the replay."""

    ROUNDS = 3
    WARM = 1
    APPS = 2
    MODEL = "lenet"
    SAMPLES = 16
    BATCH = 8
    EPOCHS = 2
    LR = 0.05
    PARTITION = 64 << 20

    def __init__(self, harness: Harness, seed: int):
        self.h = harness
        self.seed = seed
        self.tally = CounterTally()
        #: (losses, kernels launched) of the first timed replay.
        self.first = None
        self.calls = 0
        self.replay = None

    def _app(self, index: int, losses: dict, clients: list,
             samples: int, epochs: int) -> AppSpec:
        seed = index + self.seed

        def workload(runtime) -> None:
            clients.append(runtime.backend)
            libs = LibraryBundle.create(runtime, seed=seed)
            model = MODEL_ZOO[self.MODEL](libs)
            dataset = dataset_for(model.input_shape, samples=samples,
                                  seed=seed)
            result = train(model, dataset, epochs=epochs,
                           batch_size=self.BATCH, lr=self.LR)
            losses[index] = result.losses

        tracer = self.h.tracer
        if tracer is not None:
            workload = tracer.spanned("app", "workload", workload)
        return AppSpec(app_id=f"A.{index}.{self.MODEL}", workload=workload,
                       partition_bytes=self.PARTITION)

    def prepare(self, index: int) -> None:
        pass

    def round(self, index: int) -> int:
        warming = index < self.WARM
        device = Device(QUADRO_RTX_A4000, keep_launch_results=True)
        losses: dict = {}
        clients: list = []
        apps = [
            self._app(number, losses, clients,
                      samples=self.BATCH if warming else self.SAMPLES,
                      epochs=1 if warming else self.EPOCHS)
            for number in range(1 if warming else self.APPS)
        ]
        run = run_deployment("guardian", apps, device=device,
                             server_config=stock_config())
        self.replay = (device, run, losses, clients)
        self.calls = sum(client.channel.stats.messages
                         for client in clients)
        return self.calls

    def verify(self, index: int) -> None:
        h = self.h
        device, run, losses, clients = self.replay
        self.replay = None
        flat = [loss for number in sorted(losses)
                for loss in losses[number]]
        h.check(bool(flat) and all(math.isfinite(loss) for loss in flat),
                f"replay {index}: a per-batch loss is missing or not finite")
        h.count(self.calls)
        h.sim.drain(device)
        if index < self.WARM:
            return
        h.digest(np.asarray(flat, dtype=np.float64).tobytes())
        if self.first is None:
            self.first = (losses, run.kernels_launched)
        h.check(losses == self.first[0],
                f"replay {index}: losses differ from the first replay")
        h.check(run.kernels_launched == self.first[1],
                f"replay {index}: {run.kernels_launched} kernels, first "
                f"replay launched {self.first[1]}")
        h.check(run.transfers_rejected == 0,
                f"replay {index}: {run.transfers_rejected} transfers "
                f"rejected")
        tally = self.tally
        tally.add_device(device)
        for client in clients:
            tally.add_channel(client.channel.stats)
        # run_deployment keeps its server to itself. Its busy clock is
        # public; the remaining counters need the object, which only
        # the channel holds -- lose them, not the run, if that moves.
        server = getattr(clients[0].channel, "_target", None)
        if server is not None:
            tally.add_server(server)
        else:
            tally.add("server.cycles", round(
                run.server_busy_seconds * HostCostModel().cpu_ghz * 1e9))

    def finish(self) -> CounterTally:
        return self.tally


# --------------------------------------------------------------------------
# session_churn
# --------------------------------------------------------------------------


@dataclass
class _Resident:
    client: ElasticClient
    buffer: int
    kernel: int
    params: list
    launches: int = 0


@dataclass
class _Slice:
    events: list = field(default_factory=list)
    arrivals: int = 0


class SessionChurn:
    """The lifecycle use of the server: mixed-size tenants arrive, stay
    resident, are touched and depart on a churn trace over a device
    small enough to fragment, under ``ServerConfig.elastic()``.

    A mirror of ``repro.loadgen.run_churn`` that also deploys a
    library, launches, and checks every departing tenant's buffer.

    ``--seed`` draws the payload, not the trace: between trace seeds
    the swap count ranged 33-110 and moved the modelled cycles 6%, the
    host time 6.5% and the peak RSS 8% (README.md), which a
    ten-seed steadiness check would read as noise."""

    SESSIONS = 800
    SLICES = 40
    #: The trace ``benchmarks/test_elastic_memory.py`` replays.
    TRACE_SEED = 2024
    BURST = 4
    ELEMENTS = 16
    X_OFFSET = 256
    A = 2.0
    DEVICE = dataclasses.replace(QUADRO_RTX_A4000,
                                 global_memory_bytes=17 * MIB)

    def __init__(self, harness: Harness, seed: int, slices: int,
                 slice_sessions: int):
        self.h = harness
        self.device = Device(self.DEVICE, keep_launch_results=True)
        self.server = GuardianServer(self.device,
                                     config=ServerConfig.elastic())
        self.engine = self.server.elastic
        self.tally = CounterTally()
        # Multiples of 1/64 below 8: 2.0 * launches * x stays exact.
        self.x = (np.random.default_rng(seed).integers(
            -512, 512, self.ELEMENTS) / 64.0).astype(np.float32)
        self.x_bytes = self.x.tobytes()
        events = churn_trace(ChurnConfig(
            sessions=slices * slice_sessions, seed=self.TRACE_SEED))
        self.slices = [_Slice() for _ in range(slices)]
        #: Events after the last arrival: run untimed by ``finish``.
        self.tail: list = []
        arrivals = 0
        for event in events:
            if arrivals == slices * slice_sessions:
                self.tail.append(event)
                continue
            self.slices[arrivals // slice_sessions].events.append(event)
            if event.kind == "arrive":
                arrivals += 1
        self.residents: dict[int, _Resident] = {}
        # Filled by the timed events, judged by verify().
        self.calls = 0
        self.sessions = 0
        self.touches = 0
        self.shed: list[int] = []
        self.failed_touches: list[int] = []
        self.departed: list[tuple] = []

    def _burst(self, resident: _Resident) -> None:
        client = resident.client
        x_address = resident.buffer + self.X_OFFSET
        grid = (1, 1, 1)
        block = (self.ELEMENTS, 1, 1)
        for _ in range(self.BURST):
            client.memcpy_h2d(x_address, self.x_bytes)
            client.launch_kernel(resident.kernel, grid, block,
                                 resident.params)
        client.synchronize()
        resident.launches += self.BURST
        self.calls += 2 * self.BURST + 1

    def _arrive(self, event) -> None:
        self.sessions += 1
        server = self.server
        if not server.allocator.can_carve(event.size):
            self.engine.make_room(event.size)
        app_id = f"churn-{event.index}"
        try:
            client = ElasticClient(server, app_id, event.size)
        except (PartitionError, AdmissionRejected):
            self.shed.append(event.index)
            return
        self.engine.bind_client(app_id, client)
        kernel = client.register_fatbin(session_fatbin())["saxpy"]
        buffer = client.malloc(event.touch_bytes)
        # A released partition is not scrubbed: zero y before the
        # first launch accumulates into it.
        client.memset(buffer, 0, 4 * self.ELEMENTS)
        self.calls += 4
        resident = _Resident(
            client, buffer, kernel,
            [buffer, buffer + self.X_OFFSET, self.A, self.ELEMENTS])
        self.residents[event.index] = resident
        self._burst(resident)

    def _touch(self, event) -> None:
        resident = self.residents.get(event.index)
        if resident is None:
            return
        self.touches += 1
        try:
            self.engine.ensure_resident(resident.client.app_id)
        except PartitionError:
            self.failed_touches.append(event.index)
            return
        self._burst(resident)

    def _depart(self, event) -> None:
        resident = self.residents.pop(event.index, None)
        if resident is None:
            return
        client = resident.client
        raw = None
        try:
            self.engine.ensure_resident(client.app_id)
            raw = client.memcpy_d2h(resident.buffer, 4 * self.ELEMENTS)
            self.calls += 1
        except PartitionError:
            self.failed_touches.append(event.index)
        client.close()
        self.calls += 1
        self.departed.append((event.index, raw, resident.launches, client))

    def _run(self, events: list) -> None:
        handlers = {"arrive": self._arrive, "touch": self._touch,
                    "depart": self._depart}
        for event in events:
            handlers[event.kind](event)
            self.device.synchronize(spatial=True)

    def prepare(self, index: int) -> None:
        self.calls = 0

    def round(self, index: int) -> int:
        self._run(self.slices[index].events)
        return self.calls

    def verify(self, index: int) -> None:
        h = self.h
        for session, raw, launches, client in self.departed:
            expected = (np.float32(self.A * launches)
                        * self.x).astype(np.float32).tobytes()
            if raw is not None:
                h.digest(raw)
            h.check(raw == expected,
                    f"session {session}: buffer is not 2.0 x {launches} "
                    f"launches x payload at departure")
            self.tally.add_channel(client.channel.stats)
        for session in self.shed:
            h.check(False, f"session {session}: shed at admission")
        for session in self.failed_touches:
            h.check(False, f"session {session}: could not be made resident")
        h.count(self.calls + self.sessions - len(self.shed)
                + self.touches - len(self.failed_touches))
        self.sessions = self.touches = 0
        self.shed.clear()
        self.failed_touches.clear()
        self.departed.clear()
        h.sim.drain(self.device)

    def finish(self) -> CounterTally:
        # Every session's departure is on the trace, so the tail
        # empties the device.
        self.calls = 0
        self._run(self.tail)
        self.verify(len(self.slices))
        self.h.check(not self.residents,
                     f"{len(self.residents)} sessions never departed")
        self.tally.add_server(self.server)
        self.tally.add_device(self.device)
        return self.tally
