"""Object model for parsed PTX modules.

The AST mirrors the PTX text format closely enough that
:func:`repro.ptx.emitter.emit_module` followed by
:func:`repro.ptx.parser.parse_module` round-trips. Guardian's PTX
patcher (:mod:`repro.core.patcher`) rewrites these objects directly —
exactly like the paper's patcher rewrites PTX text extracted by
``cuobjdump``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.ptx import isa

# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Register:
    """A virtual register operand, e.g. ``%rd4``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SpecialReg:
    """A read-only special register, e.g. ``%tid.x``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Immediate:
    """An integer or floating point literal operand.

    Float immediates render in PTX's hexadecimal form (``0f3F800000``
    for 1.0f, ``0d...`` for doubles) — the bit-exact encoding nvcc
    emits, which also guarantees parser round-trips.
    """

    value: Union[int, float]

    def __str__(self) -> str:
        if isinstance(self.value, float):
            import struct

            try:
                packed = struct.pack(">f", self.value)
                if struct.unpack(">f", packed)[0] == self.value or (
                    self.value != self.value  # NaN round-trips as NaN
                ):
                    return "0f" + packed.hex().upper()
            except OverflowError:  # a double beyond the f32 range
                pass
            return "0d" + struct.pack(">d", self.value).hex().upper()
        return str(self.value)


@dataclass(frozen=True)
class Symbol:
    """A named reference: label, device function, or parameter name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemRef:
    """A memory operand ``[base+offset]``.

    ``base`` is a :class:`Register` for the register addressing modes or
    a :class:`Symbol` for parameter/global addressing
    (``[kernel_param_0]``). ``offset`` is the immediate displacement of
    the *address+offset* addressing mode the paper's §4.3 discusses —
    the mode that forces the patcher to materialise the effective
    address in a temporary register before masking.
    """

    base: Union[Register, Symbol]
    offset: int = 0

    def __str__(self) -> str:
        if self.offset > 0:
            return f"[{self.base}+{self.offset}]"
        if self.offset < 0:
            return f"[{self.base}{self.offset}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class TargetList:
    """The inline label list of a ``brx.idx`` indirect branch."""

    labels: tuple[str, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


Operand = Union[Register, SpecialReg, Immediate, Symbol, MemRef, TargetList]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """An instruction predicate guard, e.g. ``@%p1`` or ``@!%p2``."""

    register: str
    negated: bool = False

    def __str__(self) -> str:
        bang = "!" if self.negated else ""
        return f"@{bang}{self.register}"


@dataclass
class Instruction:
    """One PTX instruction.

    ``opcode`` is the full dotted mnemonic (``"ld.global.u32"``);
    convenience properties expose its pieces. ``operands`` keeps the
    destination first when the opcode has one.
    """

    opcode: str
    operands: tuple[Operand, ...] = ()
    guard: Optional[Guard] = None

    @property
    def base_op(self) -> str:
        """Base mnemonic, e.g. ``"ld"`` for ``ld.global.u32``."""
        return self.opcode.split(".", 1)[0]

    @property
    def suffixes(self) -> tuple[str, ...]:
        """All dotted suffixes after the base mnemonic."""
        return tuple(self.opcode.split(".")[1:])

    @property
    def dtype(self) -> Optional[str]:
        """The operand scalar type — the last type-shaped suffix."""
        for suffix in reversed(self.suffixes):
            if suffix in isa.TYPE_WIDTHS:
                return suffix
        return None

    @property
    def space(self) -> Optional[str]:
        """The state space suffix of a memory instruction, if any."""
        for suffix in self.suffixes:
            if suffix in isa.STATE_SPACES:
                return suffix
        return None

    @property
    def is_load(self) -> bool:
        return self.base_op == "ld"

    @property
    def is_store(self) -> bool:
        return self.base_op == "st"

    @property
    def route(self) -> Optional[str]:
        """Where this memory access runs (:data:`isa.ROUTES`); None for
        a non-memory op and for a pair the table refuses."""
        return isa.ROUTES.get((self.base_op, self.space or "generic"))

    @property
    def is_memory_access(self) -> bool:
        """True for the loads, stores and atomics Guardian must fence:
        those that run on shared device memory (paper §2.3)."""
        return self.route == isa.DEVICE

    def __str__(self) -> str:
        text = self.opcode
        if self.operands:
            rendered = []
            for index, operand in enumerate(self.operands):
                rendered.append(str(operand))
            text = f"{text} " + ", ".join(rendered)
        if self.guard is not None:
            text = f"{self.guard} {text}"
        return f"{text};"


@dataclass(frozen=True)
class Label:
    """A branch target label definition (``$L__BB0_2:``)."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass
class RegDecl:
    """A register bank declaration: ``.reg .b64 %rd<5>;``.

    Declares virtual registers ``%rd1 .. %rd{count-1}`` (PTX counts the
    upper bound exclusively, matching ``nvcc`` output).
    """

    reg_type: str
    prefix: str
    count: int

    def names(self) -> Iterator[str]:
        """Yield every register name the declaration introduces."""
        for index in range(1, self.count):
            yield f"{self.prefix}{index}"

    def __str__(self) -> str:
        return f".reg .{self.reg_type} \t{self.prefix}<{self.count}>;"


@dataclass(frozen=True)
class SharedDecl:
    """A shared-memory array declaration inside a kernel body."""

    name: str
    elem_type: str
    size_bytes: int
    align: int = 4

    def __str__(self) -> str:
        elems = self.size_bytes // isa.type_width(self.elem_type)
        return (
            f".shared .align {self.align} .{self.elem_type} "
            f"{self.name}[{elems}];"
        )


Statement = Union[Instruction, Label, RegDecl, SharedDecl]


# --------------------------------------------------------------------------
# Kernels and modules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A kernel parameter: ``.param .u64 kernel_param_0``."""

    name: str
    param_type: str

    @property
    def width(self) -> int:
        return isa.type_width(self.param_type)

    def __str__(self) -> str:
        return f".param .{self.param_type} {self.name}"


@dataclass
class Kernel:
    """One ``.entry`` kernel or ``.func`` device function.

    The paper's patcher instruments ``.func`` bodies identically to
    ``.entry`` bodies (§4.3), so both share this representation.
    """

    name: str
    params: list[Param] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)
    is_entry: bool = True
    visible: bool = True

    def instructions(self) -> Iterator[Instruction]:
        """Yield only the executable instructions of the body."""
        for statement in self.body:
            if isinstance(statement, Instruction):
                yield statement

    def memory_accesses(self) -> Iterator[Instruction]:
        """Yield the loads/stores Guardian must fence."""
        for instruction in self.instructions():
            if instruction.is_memory_access:
                yield instruction

    def declared_registers(self) -> set[str]:
        """The set of virtual register names declared in the body."""
        names: set[str] = set()
        for statement in self.body:
            if isinstance(statement, RegDecl):
                names.update(statement.names())
        return names

    def labels(self) -> set[str]:
        return {
            statement.name
            for statement in self.body
            if isinstance(statement, Label)
        }


@dataclass(frozen=True)
class GlobalDecl:
    """A module-scope ``.global`` array (statically allocated memory)."""

    name: str
    elem_type: str
    num_elems: int
    align: int = 4

    @property
    def size_bytes(self) -> int:
        return self.num_elems * isa.type_width(self.elem_type)

    def __str__(self) -> str:
        return (
            f".global .align {self.align} .{self.elem_type} "
            f"{self.name}[{self.num_elems}];"
        )


@dataclass
class Module:
    """A PTX translation unit: one ``.ptx`` file.

    ``kernels`` preserves declaration order and maps name to
    :class:`Kernel` (covering both ``.entry`` and ``.func``).
    """

    version: str = "7.5"
    target: str = "sm_86"
    address_size: int = 64
    kernels: dict[str, Kernel] = field(default_factory=dict)
    globals: list[GlobalDecl] = field(default_factory=list)

    def add(self, kernel: Kernel) -> Kernel:
        """Register a kernel, rejecting duplicate names."""
        if kernel.name in self.kernels:
            raise ValueError(f"duplicate kernel {kernel.name!r}")
        self.kernels[kernel.name] = kernel
        return kernel

    @property
    def entries(self) -> list[Kernel]:
        """Only the ``.entry`` kernels (host-launchable)."""
        return [k for k in self.kernels.values() if k.is_entry]

    @property
    def funcs(self) -> list[Kernel]:
        """Only the ``.func`` device functions."""
        return [k for k in self.kernels.values() if not k.is_entry]
