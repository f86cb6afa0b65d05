"""Compile once, bind per tenant (DESIGN.md section 9, "Deploy front end").

What a PTX text compiles and patches to is kept once per process and
shared by every tenant that loads the text. These tests pin the three
things that makes dangerous in a system whose claim is isolation: what
is shared is never written, what is per-tenant is never shared, and
the cache serves exactly the text it was asked for - and they pin that
sharing changes no modelled value, only how often the host recomputes.
"""

import dataclasses
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.reporting import render_telemetry_report
from repro.core import patcher as patcher_module
from repro.core import server as server_module
from repro.core.elastic import ElasticClient
from repro.core.patcher import (
    PATCHED_CACHE_BYTES,
    PTXPatcher,
    clear_patched,
    patch_shared,
)
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver import api as driver_api
from repro.driver import jit
from repro.driver.api import DriverAPI
from repro.driver.fatbin import build_fatbin
from repro.driver.jit import JIT_CYCLES_PER_KERNEL, clear_images, jit_compile
from repro.errors import ReproError
from repro.faults.inject import mutate_ptx_text
from repro.faults.plan import FaultKind, FaultSpec, FiredFault
from repro.gpu.device import Device
from repro.gpu.specs import MIB, QUADRO_RTX_A4000
from repro.ptx.emitter import emit_module
from repro.ptx.textcache import TextCache

from tests.conftest import make_guardian_tenant, saxpy_module

SPEC = QUADRO_RTX_A4000
SMALL = dataclasses.replace(SPEC, global_memory_bytes=17 * MIB)
SANDBOXING_MODES = (FencingMode.BITWISE, FencingMode.MODULO,
                    FencingMode.CHECKING)

#: One kernel that goes through a module-scope ``.global`` array:
#: stores ``value`` to ``slot[0]`` and reports, at ``out``, what it
#: reads back and the address ``slot`` resolved to.
POKE_PTX = """\
.version 7.5
.target sm_86
.address_size 64
.global .align 4 .u32 slot[4];
.visible .entry poke(.param .u32 poke_value, .param .u64 poke_out)
{
.reg .b32 %r<3>;
.reg .b64 %rd<3>;
ld.param.u32 %r1, [poke_value];
ld.param.u64 %rd1, [poke_out];
mov.u64 %rd2, slot;
st.global.u32 [%rd2], %r1;
ld.global.u32 %r2, [%rd2];
st.global.u32 [%rd1], %r2;
st.global.u64 [%rd1+8], %rd2;
ret;
}
"""


def saxpy_ptx() -> str:
    return emit_module(saxpy_module())


def tiny_ptx(index: int, pad: int = 0) -> str:
    """A distinct, valid, cheap-to-compile text per ``index``."""
    return (
        ".version 7.5\n.target sm_86\n.address_size 64\n"
        f".visible .entry k{index}()\n{{\nret;\n}}\n"
        + "// " + "x" * pad + "\n"
    )


def poke(client, handle, value: int) -> tuple[int, int]:
    """Run ``poke``; returns (value read back, address of ``slot``)."""
    out = client.malloc(16)
    client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [value, out])
    client.synchronize()
    raw = client.memcpy_d2h(out, 16)
    return struct.unpack_from("<I", raw)[0], struct.unpack_from("<Q", raw, 8)[0]


# --------------------------------------------------------------------------
# Per-tenant state is never shared
# --------------------------------------------------------------------------


class TestGlobalsStayPerPartition:
    @pytest.mark.parametrize("mode", SANDBOXING_MODES,
                             ids=lambda mode: mode.value)
    def test_symbol_resolves_inside_each_tenants_partition(self, mode):
        server = GuardianServer(Device(SPEC), mode)
        alice, _ = make_guardian_tenant(server, "alice")
        bob, _ = make_guardian_tenant(server, "bob")
        alice_poke = alice.load_module_ptx(POKE_PTX)["poke"]
        bob_poke = bob.load_module_ptx(POKE_PTX)["poke"]
        # The second deployment was binds of the first one's images.
        assert server.driver.stats.images_built == 2
        assert server.driver.stats.images_shared == 2

        seen = {}
        for client, handle, value in ((alice, alice_poke, 0xA11CE),
                                      (bob, bob_poke, 0xB0B)):
            read_back, address = poke(client, handle, value)
            partition = server.allocator.partition(client.app_id)
            assert read_back == value
            assert partition.base <= address < partition.base + partition.size
            seen[client.app_id] = address
        assert seen["alice"] != seen["bob"]
        # Bob's store went through the same shared code and never
        # showed in Alice's array.
        memory = server.device.memory
        assert memory.read(seen["alice"], 4) == struct.pack("<I", 0xA11CE)
        assert memory.read(seen["bob"], 4) == struct.pack("<I", 0xB0B)

    def test_each_load_owns_its_symbol_table(self):
        device = Device(SPEC)
        driver = DriverAPI(device)
        context = driver.cuCtxCreate("app")
        first = driver.cuModuleLoadData(context, POKE_PTX)
        second = driver.cuModuleLoadData(context, POKE_PTX)
        one = first.compiled.kernels["poke"]
        two = second.compiled.kernels["poke"]
        assert one is not two
        assert one.global_symbols is not two.global_symbols
        assert one.global_symbols != two.global_symbols
        # Everything else is the image's, by reference.
        for shared in ("kernel", "instructions", "param_index",
                       "shared_layout", "allocation", "allocation_o0",
                       "code"):
            assert getattr(one, shared) is getattr(two, shared)
        assert first.compiled.module is second.compiled.module
        # The image's own prototype never received an address.
        image = jit._IMAGES.get((POKE_PTX, SPEC))
        assert dict(image.kernels["poke"].global_symbols) == {"slot": None}

    def test_patch_reports_are_shared_as_tuples(self):
        server = GuardianServer(Device(SPEC), FencingMode.BITWISE)
        server.attach("alice", 1 << 20)
        server.attach("bob", 1 << 20)
        server.load_module_ptx("alice", saxpy_ptx())
        server.load_module_ptx("bob", saxpy_ptx())
        shared, _ = patch_shared(server.patcher, saxpy_ptx())
        assert isinstance(shared.reports, tuple)
        # Each tenant has its own list; clearing one leaves the other.
        assert server.patch_reports("alice") is not server.patch_reports("bob")
        server.patch_reports("alice").clear()
        assert len(server.patch_reports("bob")) == len(shared.reports) == 1


class TestCubinChargesNoJit:
    def test_cubin_load_does_not_zero_the_shared_charge(self):
        """The cuBIN branch used to write ``jit_cycles = 0`` into what
        ``jit_compile`` returned - now that is shared, a per-load value."""
        # CUDA 12 fatbins carry an ampere cuBIN - this device's arch.
        fatbin = build_fatbin(saxpy_module(), "lib", "12.0")
        native = DriverAPI(Device(SPEC))
        native.cuModuleLoadFatBinary(native.cuCtxCreate("a"), fatbin)
        assert native.stats.jit_cycles == 0
        assert native.stats.modules_from_cubin == 1

        forced = DriverAPI(Device(SPEC), force_ptx_jit=True)
        module = forced.cuModuleLoadFatBinary(
            forced.cuCtxCreate("b"), fatbin)
        kernels = len(module.compiled.kernels)
        assert forced.stats.jit_cycles == JIT_CYCLES_PER_KERNEL * kernels
        assert forced.stats.modules_from_cubin == 0
        assert forced.stats.modules_loaded == 1
        # Same text, same device model: the second load was a bind.
        assert (native.stats.images_built, forced.stats.images_shared) == (1, 1)


# --------------------------------------------------------------------------
# What is shared is never written
# --------------------------------------------------------------------------


class TestSharedAstIsNotWritten:
    @pytest.mark.parametrize("mode", SANDBOXING_MODES,
                             ids=lambda mode: mode.value)
    def test_fingerprint_survives_patch_and_launch(self, mode):
        """``Module``/``Kernel``/``Instruction`` are plain dataclasses;
        nothing stops a write but this pin. ``repr`` walks every field
        of every node."""
        server = GuardianServer(Device(SPEC), mode)
        alice, _ = make_guardian_tenant(server, "alice")
        bob, _ = make_guardian_tenant(server, "bob")
        text = saxpy_ptx()
        handles = alice.load_module_ptx(text)
        native_image = jit._IMAGES.get((text, SPEC))
        patched, _ = patch_shared(server.patcher, text)
        sandboxed_image = jit._IMAGES.get((patched.patched_text, SPEC))
        # One parse of the original fed the patcher and the image.
        assert patched.source is native_image.module
        before = (repr(native_image.module), repr(sandboxed_image.module),
                  repr(patched.reports))

        PTXPatcher(mode).patch_module(native_image.module)
        bob.load_module_ptx(text)
        buf = alice.malloc(512)
        alice.memcpy_h2d(buf + 256, np.ones(32, np.float32).tobytes())
        alice.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                            [buf, buf + 256, 2.0, 32])
        alice.synchronize()
        assert np.allclose(
            np.frombuffer(alice.memcpy_d2h(buf, 128), np.float32), 2.0)

        assert before == (repr(native_image.module),
                          repr(sandboxed_image.module),
                          repr(patched.reports))

    def test_compiled_fields_are_read_only(self):
        kernel = jit_compile(POKE_PTX, SPEC).kernels["poke"]
        with pytest.raises(TypeError):
            kernel.param_index["poke_value"] = 7
        with pytest.raises(TypeError):
            kernel.shared_layout["x"] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.instructions[0].op = "ret"
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.allocation.physical_slots = 0
        assert isinstance(kernel.instructions, tuple)
        compiled = jit_compile(POKE_PTX, SPEC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.jit_cycles = 0
        with pytest.raises(TypeError):
            compiled.global_arrays["slot"] = 1


# --------------------------------------------------------------------------
# The cache serves exactly the text it was asked for
# --------------------------------------------------------------------------


class TestKeyIsTheWholeText:
    def test_one_byte_difference_is_a_miss(self):
        text = saxpy_ptx()
        jit_compile(text, SPEC)
        assert jit_compile(text, SPEC).image_shared
        other = text.replace("sm_86", "sm_87")
        assert len(other) == len(text)
        assert not jit_compile(other, SPEC).image_shared
        assert not jit_compile(text + " ", SPEC).image_shared
        # A different device model is a different image too.
        assert not jit_compile(text, SMALL).image_shared

    def test_every_mutator_output_is_a_miss(self):
        text = saxpy_ptx()
        jit_compile(text, SPEC)
        patcher = PTXPatcher(FencingMode.BITWISE)
        patch_shared(patcher, text)
        mutants = set()
        for kind in (FaultKind.PTX_TRUNCATE, FaultKind.PTX_CORRUPT):
            for step in range(1, 40):
                fired = FiredFault(
                    spec=FaultSpec(kind=kind), tenant="t", op="load",
                    call_no=0, truncate_at=step / 40,
                    corrupt_byte=step * 7)
                mutants.add(mutate_ptx_text(text, fired))
        mutants.discard(text)
        assert len(mutants) > 60
        for mutant in mutants:
            assert (mutant, SPEC) not in jit._IMAGES
            try:
                compiled = jit_compile(mutant, SPEC)
            except ReproError:
                assert (mutant, SPEC) not in jit._IMAGES
            else:
                assert not compiled.image_shared
            try:
                _, shared = patch_shared(patcher, mutant)
            except ReproError:
                continue
            assert not shared

    @pytest.mark.parametrize("bad", [
        ".version 7.5\n.target sm_86\n.address_size 64\n",
        saxpy_ptx()[:400],
        saxpy_ptx().replace("fma.rn.f32", "fnord.f32"),
        saxpy_ptx().replace("%f4", "%q4"),
        saxpy_ptx().replace("%rd1", "%grd1"),
    ], ids=["no-kernels", "truncated", "bad-opcode", "undeclared-register",
            "reserved-prefix"])
    def test_malformed_text_raises_identically_twice(self, bad):
        server = GuardianServer(Device(SPEC), FencingMode.BITWISE)
        server.attach("alice", 1 << 20)
        failures = []
        for _ in range(2):
            with pytest.raises(ReproError) as caught:
                server.load_module_ptx("alice", bad)
            failures.append((type(caught.value), str(caught.value)))
        assert failures[0] == failures[1]
        assert (bad, SPEC) not in jit._IMAGES
        with pytest.raises(ReproError):
            jit_compile(bad, SPEC)
        assert (bad, SPEC) not in jit._IMAGES
        # A text the patcher itself rejects leaves no patch result. (One
        # it accepts and only the driver rejects - an empty module, an
        # undeclared register - has a patch result and no image.)
        try:
            patch_shared(server.patcher, bad)
        except ReproError:
            assert (bad, FencingMode.BITWISE) not in patcher_module._PATCHED


class TestByteBound:
    def test_hostile_stream_of_texts_evicts_never_grows(self):
        driver = DriverAPI(Device(SPEC))
        context = driver.cuCtxCreate("victim")
        first_text = saxpy_ptx()
        function = driver.cuModuleGetFunction(
            driver.cuModuleLoadData(context, first_text), "saxpy")

        total = 0
        for index in range(10_000):
            text = tiny_ptx(index, pad=360)
            total += len(text)
            jit_compile(text, SPEC)
            assert jit._IMAGES.bytes <= jit.IMAGE_CACHE_BYTES
        assert total > 2 * jit.IMAGE_CACHE_BYTES
        assert len(jit._IMAGES) < 10_000
        assert (first_text, SPEC) not in jit._IMAGES

        # The evicted image is still loaded, and still runs.
        buf = driver.cuMemAlloc(context, 512)
        stream = driver.cuStreamCreate(context)
        driver.cuMemcpyHtoD(stream, buf + 256,
                            np.ones(32, np.float32).tobytes())
        driver.cuLaunchKernel(function, (1, 1, 1), (32, 1, 1),
                              [buf, buf + 256, 3.0, 32], stream)
        out = np.frombuffer(driver.cuMemcpyDtoH(stream, buf, 128),
                            np.float32)
        assert np.allclose(out, 3.0)

    def test_patched_texts_are_bounded_the_same_way(self):
        patcher = PTXPatcher(FencingMode.BITWISE)
        for index in range(3_000):
            patch_shared(patcher, tiny_ptx(index, pad=900))
            assert patcher_module._PATCHED.bytes <= PATCHED_CACHE_BYTES
        assert len(patcher_module._PATCHED) < 3_000

    def test_text_heavier_than_the_bound_is_served_unkept(self):
        cache = TextCache(max_bytes=100)
        assert cache.put("big", "value", 101) == "value"
        assert "big" not in cache and cache.bytes == 0

    def test_racing_builders_converge_on_one_value(self):
        """More threads than cores, a short switch interval, a bound
        small enough to evict all the time: every ``get`` and ``put``
        hands back a whole value of the key asked for, and the byte
        count stays the sum of what is kept (a lost update would break
        it)."""
        cache = TextCache(max_bytes=64)
        keys = [f"text-{index}" for index in range(24)]
        torn = []
        deadline = time.monotonic() + 5.0

        def worker(seed: int) -> None:
            for step in range(4_000):
                if time.monotonic() > deadline:
                    torn.append("ran out of time")
                    return
                key = keys[(seed * 7 + step) % len(keys)]
                found = cache.get(key)
                if found is None:
                    found = cache.put(key, (key, seed), 8)
                if found[0] != key:
                    torn.append((key, found))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn
        assert cache.bytes == 8 * len(cache) <= 64


# --------------------------------------------------------------------------
# Sharing changes what the host computes, nothing the model reports
# --------------------------------------------------------------------------


def elastic_client(server, app_id: str, size: int) -> ElasticClient:
    client = ElasticClient(server, app_id, size)
    server.elastic.bind_client(app_id, client)
    return client


def churn_scenario(cold: bool, monkeypatch) -> dict:
    """Three tenants through every path that loads modules: deploy,
    compaction, swap-in, and migration onto a second server. ``cold``
    forgets everything cached before every single load and patch."""
    clear_images()
    clear_patched()
    with monkeypatch.context() as patch:
        if cold:
            def forgetful(function):
                def wrapper(*args, **kwargs):
                    clear_images()
                    clear_patched()
                    return function(*args, **kwargs)
                return wrapper

            patch.setattr(driver_api, "jit_compile",
                          forgetful(jit.jit_compile))
            patch.setattr(server_module, "patch_shared",
                          forgetful(patch_shared))

        device = Device(SMALL)
        server = GuardianServer(device, config=ServerConfig.elastic())
        pad = elastic_client(server, "pad", 1 << 20)
        mover = elastic_client(server, "mover", 1 << 20)
        sleeper = elastic_client(server, "sleeper", 2 << 20)
        read_back = []
        state = {}
        for client in (pad, mover, sleeper):
            handles = dict(client.load_module_ptx(saxpy_ptx()))
            handles.update(client.load_module_ptx(POKE_PTX))
            buf = client.malloc(512)
            client.memcpy_h2d(buf + 256,
                              np.arange(32, dtype=np.float32).tobytes())
            state[client.app_id] = (client, handles, buf)

        def work(value: int) -> None:
            for app_id, (client, handles, buf) in state.items():
                client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                                     [buf, buf + 256, 1.5, 32])
                client.synchronize()
                read_back.append(client.memcpy_d2h(buf, 128))
                seen, address = poke(client, handles["poke"], value)
                partition = server.allocator.partition(app_id)
                read_back.append((seen, address - partition.base))

        work(1)
        sleeper.shrink_partition()
        del state["pad"]
        pad.close()
        assert server.elastic.compact("mover") is not None
        server.elastic.swap_out("sleeper")
        assert server.elastic.ensure_resident("sleeper") is not None
        work(2)

        snapshot = server.snapshot_tenant("mover")
        target_device = Device(SMALL)
        target = GuardianServer(target_device,
                                config=ServerConfig.elastic())
        base = target.restore_tenant(snapshot)
        _, handles, buf = state["mover"]
        delta = base - snapshot.source_base
        physical = buf + state["mover"][0].delta + delta
        target.launch_kernel("mover", handles["saxpy"], (1, 1, 1),
                             (32, 1, 1), [physical, physical + 256, 1.5, 32])
        target.synchronize("mover")
        read_back.append(target.memcpy_d2h("mover", physical, 128)[0])

        assert server.stats.tenants_compacted == 1
        assert server.stats.swaps_in == 1
        return {
            "read_back": read_back,
            "server": (server.stats, server.driver.stats,
                       server.stats.cycles, device.clock_cycles),
            "target": (target.stats, target.driver.stats,
                       target.stats.cycles, target_device.clock_cycles),
            "host": (server.driver.stats.images_built,
                     server.driver.stats.images_shared,
                     target.driver.stats.images_built,
                     server.stats.patch_images_built),
        }


class TestSharingIsInvisibleToTheModel:
    def test_shared_and_always_cold_runs_agree(self, monkeypatch):
        shared = churn_scenario(cold=False, monkeypatch=monkeypatch)
        cold = churn_scenario(cold=True, monkeypatch=monkeypatch)
        assert shared["read_back"] == cold["read_back"]
        # Equality of the stats objects covers every modelled counter;
        # the host-side image counters are excluded from it by design.
        assert shared["server"] == cold["server"]
        assert shared["target"] == cold["target"]
        # ... and they are what tells the two runs apart: two texts,
        # original and patched, compiled once each and patched once
        # each, against every load and patch recomputed.
        loads = shared["server"][1].modules_loaded
        assert shared["host"] == (4, loads - 4, 0, 2)
        assert cold["host"][:3] == (loads, 0, cold["target"][1].modules_loaded)
        assert cold["host"][3] == 6

    def test_second_deploy_of_a_seen_text_recomputes_nothing(
            self, monkeypatch):
        """The count pin: no timing, just how often the four pure
        functions under the deploy path run."""
        calls = {"parse": 0, "validate": 0, "compile": 0, "patch": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        parse = counted("parse", jit.parse_module)
        monkeypatch.setattr(jit, "parse_module", parse)
        monkeypatch.setattr(patcher_module, "parse_module", parse)
        monkeypatch.setattr(jit, "validate_module",
                            counted("validate", jit.validate_module))
        monkeypatch.setattr(jit, "compile_kernel",
                            counted("compile", jit.compile_kernel))
        monkeypatch.setattr(PTXPatcher, "patch_text",
                            counted("patch", PTXPatcher.patch_text))

        server = GuardianServer(Device(SPEC), FencingMode.BITWISE)
        fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
        server.attach("alice", 1 << 20)
        server.register_fatbin("alice", fatbin)
        # Cold: each distinct text parsed once (the original once for
        # both the patcher and its native image, the patched text once
        # from what the emitter wrote), validated and compiled once.
        assert calls == {"parse": 2, "validate": 2, "compile": 2,
                         "patch": 1}

        server.attach("bob", 1 << 20)
        server.register_fatbin("bob", fatbin)
        other = GuardianServer(Device(SPEC), FencingMode.BITWISE)
        other.attach("carol", 1 << 20)
        other.register_fatbin("carol", fatbin)
        assert calls == {"parse": 2, "validate": 2, "compile": 2,
                         "patch": 1}
        # The model saw three full deployments all the same.
        assert server.stats.kernels_patched == 2
        assert server.stats.modules_loaded == 4
        assert other.driver.stats.jit_cycles == 2 * JIT_CYCLES_PER_KERNEL
        assert (server.stats.patch_images_built,
                server.stats.patch_images_shared) == (1, 1)
        assert (other.driver.stats.images_built,
                other.driver.stats.images_shared) == (0, 2)

    def test_telemetry_counts_binds_on_no_modelled_clock(self):
        plain = GuardianServer(Device(SPEC), FencingMode.BITWISE)
        observed = GuardianServer(Device(SPEC), FencingMode.BITWISE,
                                  config=ServerConfig(telemetry=True))
        for server in (plain, observed):
            for app_id in ("alice", "bob"):
                server.attach(app_id, 1 << 20)
                server.load_module_ptx(app_id, saxpy_ptx())
        assert observed.stats == plain.stats
        family = observed.telemetry.deploy_images
        assert family.value(kind="module", outcome="shared") == 4
        assert family.value(kind="patch", outcome="shared") == 2
        report = render_telemetry_report(observed.telemetry.snapshot())
        assert "Driver: deploy path" in report
        assert any(line.split()[:1] == ["module"] and "100.0%" in line
                   for line in report.splitlines())
