#!/usr/bin/env python3
"""The attack the paper's Fig. 2 / Fig. 5 describe, executed twice.

Scenario: Alice trains on the GPU; Mallory shares it spatially and
launches kernels with attacker-controlled pointers.

Act 1 — MPS-style unprotected sharing: the attack corrupts Alice's
model and reads her data.

Act 2 — the same binary under Guardian with bitwise fencing: the
malicious store wraps into Mallory's *own* partition (the Fig. 5
wrap-around, printed with real addresses); the read returns Mallory's
own bytes instead of the secret.

Act 3 — Mallory aims ``atom.shared.add`` at Alice's buffer. No fence
reaches a shared-space atomic, so Guardian refuses the kernel at load
(the routing table in ``repro/ptx/isa.py``) and Alice's bytes never
move.

Run:  python examples/malicious_tenant.py
"""

import numpy as np

from repro import GuardianSystem
from repro.core.masks import fence_address
from repro.driver.fatbin import build_fatbin
from repro.errors import PTXValidationError
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.ast import MemRef
from repro.ptx.builder import KernelBuilder, build_module
from repro.runtime.api import CudaRuntime
from repro.runtime.interpose import LIBCUDA, DynamicLoader
from repro.sharing.mps import MPSClient, MPSServer

SECRET = np.float32(1337.0)


def attack_binary():
    write = KernelBuilder("oob_write", params=[
        ("base", "u64"), ("offset", "u64"), ("value", "u32"),
    ])
    pointer = write.load_param_ptr("base")
    offset = write.load_param("offset", "u64")
    value = write.load_param("value", "u32")
    write.st_global("u32", write.add("s64", pointer, offset), value)

    read = KernelBuilder("oob_read", params=[
        ("out", "u64"), ("base", "u64"), ("offset", "u64"),
    ])
    out = read.load_param_ptr("out")
    pointer = read.load_param_ptr("base")
    offset = read.load_param("offset", "u64")
    loot = read.ld_global("u32", read.add("s64", pointer, offset))
    read.st_global("u32", out, loot)

    return build_fatbin(build_module([write.build(), read.build()]),
                        "mallory_app", "11.7")


def shared_atomic_binary():
    kernel = KernelBuilder("shared_atom", params=[
        ("target", "u64"), ("value", "u32"),
    ])
    target = kernel.load_param("target", "u64")
    value = kernel.load_param("value", "u32")
    kernel.emit("atom.shared.add.u32", kernel.reg("u32"), MemRef(target),
                value)
    return build_fatbin(build_module([kernel.build()]), "mallory_atom",
                        "11.7")


def attack(alice_runtime, mallory_runtime, label):
    print(f"\n=== {label} ===")
    alice_buf = alice_runtime.cudaMalloc(256)
    alice_runtime.cudaMemcpyH2D(
        alice_buf, np.full(64, SECRET, dtype=np.float32).tobytes())

    handles = mallory_runtime.registerFatBinary(attack_binary())
    mallory_buf = mallory_runtime.cudaMalloc(256)
    evil = alice_buf - mallory_buf

    # Read Alice's secret out first...
    mallory_runtime.cudaLaunchKernel(
        handles["oob_read"], (1, 1, 1), (1, 1, 1),
        [mallory_buf, mallory_buf, evil])
    loot = np.frombuffer(
        mallory_runtime.cudaMemcpyD2H(mallory_buf, 4),
        dtype=np.float32)[0]
    # ...then corrupt her buffer.
    mallory_runtime.cudaLaunchKernel(
        handles["oob_write"], (1, 1, 1), (1, 1, 1),
        [mallory_buf, evil, 0xBADC0DE])

    alice_data = np.frombuffer(
        alice_runtime.cudaMemcpyD2H(alice_buf, 256), dtype=np.float32)

    corrupted = not np.all(alice_data == SECRET)
    exfiltrated = loot == SECRET
    print(f"  alice's buffer corrupted:  {corrupted}")
    print(f"  secret exfiltrated:        {exfiltrated}")
    return alice_buf, mallory_buf


def main():
    # --- Act 1: unprotected spatial sharing (MPS) ----------------------
    device = Device(QUADRO_RTX_A4000)
    mps = MPSServer(device)

    def mps_tenant(app_id):
        loader = DynamicLoader()
        loader.register(LIBCUDA, MPSClient(mps, app_id))
        return CudaRuntime(loader)

    attack(mps_tenant("alice"), mps_tenant("mallory"),
           "MPS spatial sharing (unprotected)")

    # --- Act 2: Guardian with bitwise fencing ---------------------------
    system = GuardianSystem()
    alice = system.attach("alice", 1 << 20)
    mallory = system.attach("mallory", 1 << 20)
    alice_buf, mallory_buf = attack(
        alice.runtime, mallory.runtime,
        "Guardian spatial sharing (bitwise fencing)")

    # Show the Fig. 5 wrap-around with real addresses.
    record = system.server.allocator.bounds.lookup("mallory")
    evil_address = mallory_buf + (alice_buf - mallory_buf)
    fenced = fence_address(evil_address, record.base, record.mask)
    value = int.from_bytes(system.device.memory.read(fenced, 4),
                           "little")
    print(f"\n  Fig. 5 wrap-around:")
    print(f"    target address   {evil_address:#x} (alice's buffer)")
    print(f"    partition mask   {record.mask:#x}")
    print(f"    fenced address   {fenced:#x} (inside mallory's own "
          f"partition)")
    print(f"    byte landed as   {value:#x} (mallory corrupted only "
          f"herself)")

    # --- Act 3: a shared-space atomic aimed at alice --------------------
    print("\n=== Guardian: atom.shared aimed at alice's buffer ===")
    alice_data = alice.runtime.cudaMemcpyD2H(alice_buf, 256)
    try:
        handles = mallory.runtime.registerFatBinary(shared_atomic_binary())
        mallory.runtime.cudaLaunchKernel(
            handles["shared_atom"], (1, 1, 1), (1, 1, 1),
            [alice_buf, 0xBADC0DE])
        mallory.runtime.cudaDeviceSynchronize()
    except PTXValidationError as refusal:
        print(f"  load refused: {refusal}")
    corrupted = alice.runtime.cudaMemcpyD2H(alice_buf, 256) != alice_data
    print(f"  alice's buffer corrupted:  {corrupted}")


if __name__ == "__main__":
    main()
