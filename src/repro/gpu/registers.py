"""Physical register allocation and spill modelling.

The paper's Fig. 10 measures how many *extra physical registers* the
two fencing parameters (mask + base) cost after ``ptxas`` optimisation:
at ``-O0`` most kernels pay up to 4 extra registers, while at ``-O3``
the allocator reuses dead registers and 71% of kernels pay none.

This module reproduces that mechanism:

- ``-O0``: every virtual register gets its own physical register
  (no reuse), so added virtual registers always grow the count;
- ``-O3``: a linear-scan allocation over approximate live ranges
  (first definition to last use, straight-line approximation), so a
  virtual register added by the patcher can often fold into a register
  that is dead by then.

Register *slots* are 32-bit: 64-bit virtual registers occupy two slots,
matching NVIDIA hardware. Predicates live in a separate predicate file
and do not count against the 255-register budget. If the slot demand
exceeds ``spec.registers_per_thread`` the surplus spills to local
memory (tracked, and priced by the executor).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ptx import isa
from repro.ptx.ast import Instruction, Kernel, MemRef, RegDecl, Register

#: Hardware register-allocation granularity: SMs hand out registers to
#: warps in chunks, so a kernel's *allocated* count is its exact need
#: rounded up. This is why a couple of extra virtual registers often
#: costs zero allocated registers — the Fig. 10(b) effect.
ALLOCATION_GRANULARITY = 8

#: Slot width (in 32-bit units) per register-bank type.
_SLOTS_PER_TYPE = {
    "pred": 0,  # predicate file, not part of the 255 budget
    "b16": 1,
    "b32": 1, "f32": 1,
    "b64": 2, "f64": 2,
}


@dataclass(frozen=True)
class RegisterAllocation:
    """Result of allocating one kernel's virtual registers.

    Attributes:
        virtual_regs: number of declared virtual registers (non-pred).
        physical_slots: 32-bit register slots after allocation.
        predicate_regs: virtual predicate registers.
        spilled_slots: slots that exceed the hardware budget.
        opt_level: "O0" or "O3".
    """

    virtual_regs: int
    physical_slots: int
    predicate_regs: int
    spilled_slots: int
    opt_level: str
    constant_bytes: int = 0

    @property
    def spills(self) -> bool:
        return self.spilled_slots > 0

    @property
    def allocated_slots(self) -> int:
        """Slots after rounding to the hardware granularity — the
        number ``-Xptxas -v`` style accounting observes."""
        granularity = ALLOCATION_GRANULARITY
        return -(-self.physical_slots // granularity) * granularity


def allocate(kernel: Kernel, spec_regs_per_thread: int = 255,
             opt_level: str = "O3") -> RegisterAllocation:
    """Allocate physical registers for ``kernel``.

    ``opt_level`` selects the reuse strategy described in the module
    docstring. The returned ``constant_bytes`` is the size of the
    kernel parameter buffer, which lives in constant memory (the paper
    notes Guardian's two extra parameters add 16 bytes in 99% of
    kernels).
    """
    if opt_level not in ("O0", "O3"):
        raise ValueError(f"unknown optimisation level {opt_level!r}")

    reg_types = _declared_types(kernel)
    predicate_regs = sum(
        1 for reg_type in reg_types.values() if reg_type == "pred"
    )
    virtual_regs = len(reg_types) - predicate_regs

    if opt_level == "O0":
        physical_slots = sum(
            _SLOTS_PER_TYPE[reg_type] for reg_type in reg_types.values()
        )
    else:
        physical_slots = _linear_scan_slots(kernel, reg_types)

    spilled = max(0, physical_slots - spec_regs_per_thread)
    constant_bytes = sum(param.width for param in kernel.params)
    return RegisterAllocation(
        virtual_regs=virtual_regs,
        physical_slots=min(physical_slots, spec_regs_per_thread)
        + 0,  # reported count is capped at the hardware budget
        predicate_regs=predicate_regs,
        spilled_slots=spilled,
        opt_level=opt_level,
        constant_bytes=constant_bytes,
    )


def _declared_types(kernel: Kernel) -> dict[str, str]:
    """Map every declared virtual register name to its bank type."""
    types: dict[str, str] = {}
    for statement in kernel.body:
        if isinstance(statement, RegDecl):
            for name in statement.names():
                types[name] = statement.reg_type
    return types


def _live_ranges(kernel: Kernel) -> dict[str, tuple[int, int]]:
    """Approximate live range of each register as (first, last) index
    over the instruction sequence (straight-line approximation)."""
    ranges: dict[str, tuple[int, int]] = {}
    for index, instruction in enumerate(kernel.instructions()):
        for name in _registers_of(instruction):
            first, _ = ranges.get(name, (index, index))
            ranges[name] = (first, index)
    return ranges


def _registers_of(instruction: Instruction):
    if instruction.guard is not None:
        yield instruction.guard.register
    for operand in instruction.operands:
        if isinstance(operand, Register):
            yield operand.name
        elif isinstance(operand, MemRef) and isinstance(
            operand.base, Register
        ):
            yield operand.base.name


def _linear_scan_slots(kernel: Kernel,
                       reg_types: dict[str, str]) -> int:
    """Peak simultaneous slot demand under live-range reuse.

    Computes, for each instruction index, how many 32-bit slots are
    live, and returns the maximum — the register count a reusing
    allocator needs.
    """
    events: list[tuple[int, int]] = []  # (index, +slots/-slots)
    for name, (first, last) in _live_ranges(kernel).items():
        reg_type = reg_types.get(name)
        if reg_type is None:
            continue
        slots = _SLOTS_PER_TYPE[reg_type]
        if slots == 0:
            continue
        events.append((first, slots))
        events.append((last + 1, -slots))
    peak = 0
    live = 0
    for _, delta in sorted(events):
        live += delta
        peak = max(peak, live)
    return peak


def extra_registers(
    native: RegisterAllocation, sandboxed: RegisterAllocation
) -> int:
    """Extra physical registers the sandboxed kernel needs vs native.

    Fig. 10 plots the distribution of this value over all kernels. It
    can be negative when spilling reshuffles allocation — the paper
    notes "in some rare cases the number of registers is smaller".
    """
    return sandboxed.physical_slots - native.physical_slots
