"""PTX instruction-set tables.

The tables here describe the PTX subset the toolchain understands:
scalar types, state spaces, opcodes and — because the GPU simulator
charges cycles per instruction — the *latency class* of each opcode.

Latency classes follow the numbers the paper uses (its §4.4 and Fig. 6,
sourced from Arafa et al. [2] and Jia et al. [23]):

- simple ALU ops (bitwise, add, mov): ~4 cycles;
- multiply / mad: ~5 cycles;
- 32-bit modulo/division (inline): ~28 cycles;
- 64-bit modulo/division via function call: ~2x the 32-bit cost;
- conditional compare+branch through the Address Divergence Unit:
  ~80 cycles;
- loads/stores: variable, resolved by the cache model (L1 28, L2 193,
  global 220-350 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

# --------------------------------------------------------------------------
# Scalar types
# --------------------------------------------------------------------------

#: Width in bytes of every scalar PTX type the subset supports.
TYPE_WIDTHS: dict[str, int] = {
    "pred": 1,
    "b8": 1, "b16": 2, "b32": 4, "b64": 8,
    "u8": 1, "u16": 2, "u32": 4, "u64": 8,
    "s8": 1, "s16": 2, "s32": 4, "s64": 8,
    "f16": 2, "f32": 4, "f64": 8,
}

#: Types interpreted as signed two's complement integers.
SIGNED_TYPES = frozenset({"s8", "s16", "s32", "s64"})

#: Types interpreted as unsigned integers (bit types behave unsigned).
UNSIGNED_TYPES = frozenset({"u8", "u16", "u32", "u64", "b8", "b16", "b32", "b64"})

#: IEEE floating point types.
FLOAT_TYPES = frozenset({"f16", "f32", "f64"})


def type_width(type_name: str) -> int:
    """Return the width in bytes of a PTX scalar type (e.g. ``"u64"``)."""
    try:
        return TYPE_WIDTHS[type_name]
    except KeyError:
        raise KeyError(f"unknown PTX type {type_name!r}") from None


def is_signed(type_name: str) -> bool:
    """True when the type is a signed integer type."""
    return type_name in SIGNED_TYPES


def is_float(type_name: str) -> bool:
    """True when the type is a floating point type."""
    return type_name in FLOAT_TYPES


# --------------------------------------------------------------------------
# State spaces
# --------------------------------------------------------------------------

#: Memory state spaces. ``param`` is the read-only kernel parameter space;
#: ``global``/``shared``/``local`` are the off-chip/on-chip data spaces the
#: paper discusses in §2.3. ``generic`` addresses are produced by ``cvta``.
STATE_SPACES = frozenset(
    {"param", "global", "shared", "local", "const", "generic"}
)

#: Where a memory access runs, one of four routes. ``DEVICE`` is the
#: device memory co-running tenants share, the one route the patcher
#: fences (paper §2.3); ``SHARED`` is the block's on-chip buffer,
#: ``LOCAL`` the thread's buffer and ``PARAM`` the launch parameters.
DEVICE, SHARED, LOCAL, PARAM = "device", "shared", "local", "param"

#: ``(base op, state space) -> route``; an access with no space suffix
#: is generic. The validator refuses a pair missing here (``st.param``
#: and ``atom`` in shared, local and param space): no fence reaches it.
ROUTES: dict[tuple[str, str], str] = {
    **{(op, space): DEVICE
       for op in ("ld", "st", "atom")
       for space in ("generic", "global", "const")},
    ("ld", "shared"): SHARED,
    ("st", "shared"): SHARED,
    ("ld", "local"): LOCAL,
    ("st", "local"): LOCAL,
    ("ld", "param"): PARAM,
}


# --------------------------------------------------------------------------
# Opcodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode mnemonic.

    Attributes:
        name: base mnemonic (``"ld"``, ``"add"``, ...).
        latency_class: key into :data:`LATENCY_CLASSES`.
        is_control: changes control flow.
        address: for a memory op, the index of its address operand,
            the one slot that holds a ``MemRef``; None for every other
            op, where no slot may hold one.
        operands: how many operands the engines index, or None where
            they index none or a variable number.
    """

    name: str
    latency_class: str
    is_control: bool = False
    address: int | None = None
    operands: int | None = None


#: Cycle cost of each latency class. Memory classes are placeholders —
#: the executor defers loads/stores to the cache model.
LATENCY_CLASSES: dict[str, int] = {
    "alu": 4,          # bitwise / add / mov / shift / setp data path
    "mul": 5,          # integer multiply, mad, fma
    "sfu": 16,         # special function unit (sqrt, sin, ex2, rcp)
    "div32": 28,       # inline 32-bit div/rem
    "div64": 56,       # 64-bit div/rem via function call (2x the 32-bit)
    "branch": 8,       # direct branch
    "divergent": 80,   # predicated/conditional path through the ADU
    "memory": 0,       # resolved by the cache model
    "barrier": 20,     # bar.sync
    "nop": 1,
}


_OPS = [
    # memory
    OpInfo("ld", "memory", address=1, operands=2),
    OpInfo("st", "memory", address=0, operands=2),
    OpInfo("atom", "memory", address=1, operands=3),
    # data movement / conversion
    OpInfo("mov", "alu", operands=2),
    OpInfo("cvta", "alu", operands=2),
    OpInfo("cvt", "alu", operands=2),
    OpInfo("selp", "alu", operands=4),
    # integer & bitwise ALU
    OpInfo("add", "alu", operands=3),
    OpInfo("sub", "alu", operands=3),
    OpInfo("and", "alu", operands=3),
    OpInfo("or", "alu", operands=3),
    OpInfo("xor", "alu", operands=3),
    OpInfo("not", "alu", operands=2),
    OpInfo("shl", "alu", operands=3),
    OpInfo("shr", "alu", operands=3),
    OpInfo("min", "alu", operands=3),
    OpInfo("max", "alu", operands=3),
    OpInfo("neg", "alu", operands=2),
    OpInfo("abs", "alu", operands=2),
    OpInfo("mul", "mul", operands=3),
    OpInfo("mad", "mul", operands=4),
    OpInfo("fma", "mul", operands=4),
    OpInfo("div", "div32", operands=3),
    OpInfo("rem", "div32", operands=3),
    # special function unit
    OpInfo("sqrt", "sfu", operands=2),
    OpInfo("rsqrt", "sfu", operands=2),
    OpInfo("rcp", "sfu", operands=2),
    OpInfo("ex2", "sfu", operands=2),
    OpInfo("lg2", "sfu", operands=2),
    OpInfo("sin", "sfu", operands=2),
    OpInfo("cos", "sfu", operands=2),
    OpInfo("tanh", "sfu", operands=2),
    # predicates & control
    OpInfo("setp", "alu", operands=3),
    OpInfo("bra", "branch", is_control=True, operands=1),
    OpInfo("brx", "divergent", is_control=True, operands=2),
    OpInfo("call", "branch", is_control=True),
    OpInfo("ret", "branch", is_control=True),
    OpInfo("exit", "branch", is_control=True),
    OpInfo("bar", "barrier", is_control=True),
    OpInfo("nop", "nop"),
]

#: Opcode table keyed by base mnemonic.
OPCODES: dict[str, OpInfo] = {op.name: op for op in _OPS}


#: setp comparison operators the executor implements.
COMPARE_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

#: Special (read-only) registers, per thread.
SPECIAL_REGISTERS = frozenset(
    {
        "%tid.x", "%tid.y", "%tid.z",
        "%ntid.x", "%ntid.y", "%ntid.z",
        "%ctaid.x", "%ctaid.y", "%ctaid.z",
        "%nctaid.x", "%nctaid.y", "%nctaid.z",
        "%laneid", "%warpid", "%clock",
    }
)


def opcode_info(mnemonic: str) -> OpInfo:
    """Look up an opcode by its *base* mnemonic.

    The base mnemonic is the part before the first ``.`` of the full
    instruction name — ``"ld"`` for ``ld.global.u32``.
    """
    base = mnemonic.split(".", 1)[0]
    try:
        return OPCODES[base]
    except KeyError:
        raise KeyError(f"unknown PTX opcode {mnemonic!r}") from None
