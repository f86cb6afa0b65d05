"""Shared fixtures: devices, stacks, and small reference kernels."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.builder import KernelBuilder, build_module
from repro.runtime.api import CudaRuntime
from repro.runtime.backend import NativeBackend
from repro.runtime.interpose import LIBCUDA, DynamicLoader


@pytest.fixture(autouse=True)
def cold_deploy_caches():
    """Every test starts with no module image and no shared patch
    result, so what a test computes never depends on which tests ran
    before it in the process."""
    from repro.core.patcher import clear_patched
    from repro.driver.jit import clear_images

    clear_images()
    clear_patched()


@pytest.fixture
def device():
    """A fresh Quadro RTX A4000-class simulated device."""
    return Device(QUADRO_RTX_A4000)


@pytest.fixture
def native_stack(device):
    """(device, backend, runtime) — the unprotected native path."""
    backend = NativeBackend(device, "test-app")
    loader = DynamicLoader()
    loader.register(LIBCUDA, backend)
    runtime = CudaRuntime(loader)
    return device, backend, runtime


@pytest.fixture
def guardian_system(device):
    """(device, server) with bitwise fencing."""
    server = GuardianServer(device, FencingMode.BITWISE)
    return device, server


def make_guardian_tenant(server, app_id: str, max_bytes: int = 1 << 20):
    """A preloaded tenant runtime attached to ``server``."""
    from repro.core.client import preload_guardian

    loader = DynamicLoader()
    client = preload_guardian(loader, server, app_id, max_bytes)
    return client, CudaRuntime(loader)


# --------------------------------------------------------------------------
# Execution engines
# --------------------------------------------------------------------------

#: The simulator's three engines (see repro.gpu.executor).
ENGINES = ("interpreter", "jit", "block")


@contextlib.contextmanager
def forced_engine(engine: str):
    """Yield a ``KernelExecutor`` factory pinned to one engine.

    ``"jit"`` keeps every block on the per-thread functions and
    ``"block"`` sends every block, however small, to the block engine,
    by moving the one constant that chooses between them; ``"stock"``
    leaves the choice to the executor."""
    from repro.gpu import executor

    threshold = {"block": 1,
                 "stock": executor.BLOCK_ENGINE_MIN_LANES}.get(engine, 1 << 30)

    def factory(spec, memory, **kwargs):
        return executor.KernelExecutor(
            spec, memory, use_codegen=engine != "interpreter", **kwargs)

    with mock.patch.object(executor, "BLOCK_ENGINE_MIN_LANES", threshold):
        yield factory


# --------------------------------------------------------------------------
# Reference kernels
# --------------------------------------------------------------------------


def saxpy_kernel():
    """y[i] = a * x[i] + y[i] — the vanilla reference kernel."""
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
    """out[idx/4] = value — writes a u32 at an arbitrary byte offset.

    The "malicious" kernel of the isolation tests: ``idx`` can point
    anywhere in the address space.
    """
    b = KernelBuilder("writer", params=[
        ("out", "u64"), ("idx", "u64"), ("value", "u32"),
    ])
    out = b.load_param_ptr("out")
    idx = b.load_param("idx", "u64")
    value = b.load_param("value", "u32")
    addr = b.add("s64", out, idx)
    b.st_global("u32", addr, value)
    return b.build()


def reader_kernel():
    """out[0] = *(in + idx) — arbitrary-offset read (data exfiltration)."""
    b = KernelBuilder("reader", params=[
        ("out", "u64"), ("base", "u64"), ("idx", "u64"),
    ])
    out = b.load_param_ptr("out")
    base = b.load_param_ptr("base")
    idx = b.load_param("idx", "u64")
    addr = b.add("s64", base, idx)
    value = b.ld_global("u32", addr)
    b.st_global("u32", out, value)
    return b.build()


def saxpy_module():
    return build_module([saxpy_kernel()])


def attack_module():
    return build_module([writer_kernel(), reader_kernel()])


def upload_array(runtime: CudaRuntime, values: np.ndarray) -> int:
    address = runtime.cudaMalloc(values.nbytes)
    runtime.cudaMemcpyH2D(address, np.ascontiguousarray(values).tobytes())
    return address


def download_array(runtime: CudaRuntime, address: int, count: int,
                   dtype=np.float32) -> np.ndarray:
    raw = runtime.cudaMemcpyD2H(address, count * np.dtype(dtype).itemsize)
    return np.frombuffer(raw, dtype=dtype).copy()
