"""Every on/off point of ``ServerConfig`` against the stock server.

The boolean fields are few enough to enumerate (2^7 at the time of
writing; a new boolean field joins the walk automatically). One small
two-tenant program runs at every point, and what tenants can observe -
the bytes they read back, the bytes a neighbour could not touch, the
rejection of an out-of-partition transfer - must equal the stock
server's. The switches may only move modelled cost, never bytes. This
is the first slice of ROADMAP item 4's differential oracle.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.client import GuardianClient
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.errors import BoundsViolation
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from tests.conftest import saxpy_module

BOOLEAN_FIELDS = tuple(
    field.name for field in dataclasses.fields(ServerConfig)
    if isinstance(field.default, bool)
)
TENANTS = ("t0", "t1")
COUNT = 16
BLOCKS = 4  # enough identical blocks for a trace to compile and replay


def run_program(config: ServerConfig):
    """Two tenants each deploy saxpy and run ``BLOCKS`` identical
    h2d / h2d / launch / sync blocks, then read y back; then t0 aims
    an h2d at t1's buffer. Returns what the tenants observed."""
    server = GuardianServer(Device(QUADRO_RTX_A4000), config=config)
    fatbin = build_fatbin(saxpy_module(), "libsaxpy", "11.7")
    ones = np.ones(COUNT, dtype=np.float32).tobytes()
    clients, buffers, readback = {}, {}, {}
    for scale, app_id in enumerate(TENANTS, start=2):
        client = clients[app_id] = GuardianClient(server, app_id, 1 << 20)
        saxpy = client.register_fatbin(fatbin)["saxpy"]
        buf = buffers[app_id] = client.malloc(4096)
        for _ in range(BLOCKS):
            client.memcpy_h2d(buf, ones)
            client.memcpy_h2d(buf + 2048, ones)
            client.launch_kernel(saxpy, (1, 1, 1), (COUNT, 1, 1),
                                 [buf, buf + 2048, float(scale), COUNT])
            client.synchronize()
        readback[app_id] = client.memcpy_d2h(buf, len(ones))
    with pytest.raises(BoundsViolation):
        clients["t0"].memcpy_h2d(buffers["t1"], b"\xff" * len(ones))
        clients["t0"].synchronize()
    victim = clients["t1"].memcpy_d2h(buffers["t1"], len(ones))
    return server, readback, victim


def test_every_boolean_point_reads_back_what_stock_does():
    stock, stock_readback, stock_victim = run_program(ServerConfig())
    assert stock_victim == stock_readback["t1"]  # the attack landed nowhere
    assert stock.stats.transfers_rejected == 1
    assert len(BOOLEAN_FIELDS) >= 7  # the field walk found the switches
    for bits in itertools.product((False, True), repeat=len(BOOLEAN_FIELDS)):
        knobs = dict(zip(BOOLEAN_FIELDS, bits))
        server, readback, victim = run_program(ServerConfig(**knobs))
        assert readback == stock_readback, knobs
        assert victim == stock_victim, knobs
        assert server.stats.transfers_rejected \
            == stock.stats.transfers_rejected, knobs
        if server.lanes():
            assert sum(lane.busy for lane in server.lanes()) \
                == pytest.approx(server.stats.cycles), knobs
