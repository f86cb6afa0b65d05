"""Random *structured* kernels for the engine differential tests.

``random_straightline_kernel`` (tests/ptx) only draws straight-line
arithmetic. The block engine's risk is elsewhere: divergence nested in
loops, lanes retiring early, predicated instructions, barriers, signed
and 64-bit integer conventions, conversions between the register banks.
:func:`structured_kernel` draws from all of that, driven by any object
with the ``random.Random`` interface (hypothesis' ``st.randoms()``).

Conversions go every way between the banks: float to integer with
each rounding modifier on NaN, infinities and out-of-range values,
64-bit integers to f32 from 2**63 up, narrowing, and integers
converted to float meeting in one f32 op.

Counted loops that sum f32 values (``acc + x``, ``x + acc`` or an
``fma`` into the accumulator, 0-70 trips, a uniform or lane-varying
count) are the form the block engine runs along its trip axis. One
time in three their loads lie :data:`SET_STRIDE` apart, so that every
line they touch maps to one L1 set: a span touching more lines of a
set than it has ways is replayed access by access, the rest in bulk.

Every register is written before it is read on every path (values made
inside an ``if`` or loop body leave it only through the accumulators
declared up front), which is what the block engine admits. Now and then
a float operand is a non-finite immediate and a divisor may be zero, so
the IEEE results and the integer-division kill are compared too.
"""

import math
import struct

from repro.ptx.ast import Guard, Immediate, MemRef
from repro.ptx.builder import KernelBuilder

COMPARES = ["eq", "ne", "lt", "le", "gt", "ge"]
WIDE_IMMEDIATES = [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                   0x7FFFFFFFFFFFFFFF, 0xFFFFFFFF, 12345, 1]

#: u32 words each thread writes at ``out + 32 * gid``; the u64 mix goes
#: to ``out + 32 KiB + 32 * gid``.
WORDS_PER_THREAD = 8


#: Bytes between the lines of one L1 set (sets x line size of the
#: simulated GPUs' L1); strided loads index 60 elements of it, 960 KiB.
SET_STRIDE = 16 * 1024

#: f32 immediates no Python literal spells: -inf seeds nvcc's max
#: reductions, and a NaN keeps its sign bit through a store.
NON_FINITE = [math.inf, -math.inf, math.nan,
              struct.unpack("<f", bytes.fromhex("0000c0ff"))[0]]


def _f32(rng, low: float, high: float) -> Immediate:
    """A drawn ``.f32`` immediate that is an f32, as PTX's ``0f``
    literals are."""
    value = rng.uniform(low, high)
    return Immediate(struct.unpack("<f", struct.pack("<f", value))[0])


class _Draw:
    def __init__(self, rng, use_shared: bool):
        self.rng = rng
        b = self.b = KernelBuilder("fuzz", params=[
            ("out", "u64"), ("inp", "u64"), ("n", "u32"), ("s", "f32"),
            ("seed", "u64"),
        ])
        self.shared = (b.shared_array("buf", "f32", 256)
                       if use_shared else None)
        self.out = b.load_param_ptr("out")
        self.inp = b.load_param_ptr("inp")
        self.n = b.load_param("n", "u32")
        scale = b.load_param("s", "f32")
        self.tid = b.special("%tid.x")
        self.gid = b.global_thread_id()
        # Accumulators: the only registers a nested body may update.
        self.ints = [b.mov("u32", self.gid),
                     b.mov("u32", Immediate(rng.randrange(1, 100)))]
        self.floats = [b.mov("f32", scale),
                       b.mov("f32", _f32(rng, -2, 2))]
        self.signed = [b.mov("s32", Immediate(rng.randrange(-50, 50)))]
        self.wides = [b.cvt("u64", "u32", self.gid),
                      b.load_param("seed", "u64")]

    # -- operands -------------------------------------------------------------

    def divisor(self, dtype: str, value):
        """``value | 1``, or one time in eight ``value`` itself, which
        may be 0 in some lane: a counted kill on every engine."""
        if self.rng.random() < 0.125:
            return value
        return self.b.or_("b" + dtype[1:], value, Immediate(1))

    def float_operand(self, floats):
        """A float register or f32 immediate; one time in ten a
        non-finite immediate."""
        rng = self.rng
        if rng.random() < 0.1:
            return Immediate(rng.choice(NON_FINITE))
        return rng.choice([rng.choice(floats), _f32(rng, -3, 3)])

    # -- one instruction of each family --------------------------------------

    def int_op(self, ints, signed):
        b, rng = self.b, self.rng
        kind = rng.choice(["add", "sub", "mul", "and", "or", "xor", "shl",
                           "shr", "div", "rem", "min", "max", "mad", "not"])
        a = rng.choice(ints)
        c = rng.choice([
            rng.choice(ints),
            Immediate(rng.randrange(0, 1 << rng.choice([4, 16, 31]))),
        ])
        if kind in ("add", "sub", "min", "max"):
            return b._binary(f"{kind}.u32", "u32", a, c)
        if kind == "mul":
            return b.mul("u32", a, c)
        if kind in ("and", "or", "xor"):
            return b._binary(f"{kind}.b32", "b32", a, c)
        if kind in ("shl", "shr"):
            # Now and then an amount of the width or more, or one a
            # register holds (from an s32 op, maybe negative): read as
            # u32 and clamped.
            amount = rng.choice([
                Immediate(rng.randrange(0, 20)),
                Immediate(rng.randrange(0, 20)),
                Immediate(rng.choice([32, 33, 0xFFFFFFFF])),
                rng.choice(ints), rng.choice(signed)])
            if kind == "shl":
                return b.shl("b32", a, amount)
            return b.shr(rng.choice(["u32", "s32"]), a, amount)
        if kind in ("div", "rem"):
            if isinstance(c, Immediate):
                c = b.mov("u32", c)
            # Half the time an operand an s32 op wrote, maybe negative:
            # read as unsigned.
            if rng.random() < 0.5:
                a = rng.choice(signed)
            elif rng.random() < 0.5:
                c = rng.choice(signed)
            return b._binary(f"{kind}.u32", "u32", a,
                             self.divisor("u32", c))
        if kind == "mad":
            return b.mad_lo("u32", a, Immediate(rng.randrange(1, 9)),
                            rng.choice(ints))
        return b.unary("not", "b32", a)

    def signed_op(self, ints, signed):
        b, rng = self.b, self.rng
        kind = rng.choice(["sub", "neg", "mad", "shr", "abs", "div"])
        small = b.and_("b32", rng.choice(ints), Immediate(0x3FF))
        value = rng.choice(signed)
        if kind == "sub":
            return b.sub("s32", small, value)
        if kind in ("neg", "abs"):
            return b.unary(kind, "s32", value)
        if kind == "mad":
            return b.mad_lo("s32", small, Immediate(rng.randrange(-5, 5)),
                            value)
        if kind == "div":
            return b._binary("div.s32", "s32", value,
                             self.divisor("s32", small))
        return b.shr("s32", value, Immediate(rng.randrange(0, 5)))

    def float_op(self, floats, ints):
        b, rng = self.b, self.rng
        kind = rng.choice(["add", "sub", "mul", "fma", "min", "max", "abs",
                           "neg", "div", "sqrt", "sfu", "load", "cvt",
                           "selp"])
        a = rng.choice(floats)
        c = self.float_operand(floats)
        if kind in ("add", "sub", "mul"):
            return getattr(b, kind)("f32", a, c)
        if kind == "fma":
            return b.fma("f32", a, c, rng.choice(floats))
        if kind in ("min", "max"):
            return b._binary(f"{kind}.f32", "f32", a, c)
        if kind in ("abs", "neg"):
            return b.unary(kind, "f32", a)
        if kind == "div":
            return b.div("f32", a, Immediate(
                rng.choice([-4.0, 0.5, 3.0, 7.0, 0.0, -0.0])))
        if kind == "sqrt":
            return b.unary("sqrt", "f32", b.unary("abs", "f32", a))
        if kind == "sfu":
            clamped = b.max_("f32", b.min_("f32", a, Immediate(8.0)),
                             Immediate(-8.0))
            return b.unary(rng.choice(["sin", "cos", "tanh", "ex2"]),
                           "f32", clamped)
        if kind == "load":
            index = b.rem("u32", rng.choice(ints), Immediate(512))
            return b.ld_global("f32", b.element_addr(self.inp, index, 4))
        if kind == "cvt":
            low = b.and_("b32", rng.choice(ints), Immediate(0xFFFF))
            return b.mul("f32", b.cvt("f32", "u32", low), Immediate(0.001))
        pred = b.setp(rng.choice(COMPARES), "u32", rng.choice(ints),
                      rng.choice(ints))
        result = b.reg("f32")
        b.emit("selp.f32", result, a, rng.choice(floats), pred)
        return result

    def wide_op(self, wides, ints, floats):
        """One 64-bit instruction; returns the new 64-bit value (and
        may append a float derived from one to ``floats``)."""
        b, rng = self.b, self.rng
        kind = rng.choice(["add", "sub", "mul", "xor", "and", "or", "shr",
                           "sar", "shl", "wide", "madw", "cvt", "hi", "div",
                           "rem", "not", "neg", "selp", "tof"])
        a = rng.choice(wides)
        c = rng.choice([rng.choice(wides),
                        Immediate(rng.choice(WIDE_IMMEDIATES))])
        if kind in ("add", "sub"):
            return b._binary(f"{kind}.{rng.choice(['u64', 's64'])}", "u64",
                             a, c)
        if kind == "mul":
            return b.mul("u64", a, c)
        if kind in ("xor", "and", "or"):
            return b._binary(f"{kind}.b64", "b64", a, c)
        if kind in ("shr", "sar", "shl"):
            amount = Immediate(rng.choice([rng.randrange(0, 64), 64, 100]))
            if kind == "shl":  # a lane-varying amount too
                return b.shl("b64", a, rng.choice([amount, rng.choice(ints)]))
            return b.shr("u64" if kind == "shr" else "s64", a, amount)
        if kind == "wide":
            return b.mul_wide(
                rng.choice(["u32", "s32"]), rng.choice(ints),
                rng.choice([rng.choice(ints),
                            Immediate(rng.randrange(1, 1 << 20))]))
        if kind == "madw":
            dest = b.reg("u64")
            b.emit("mad.wide.u32", dest, rng.choice(ints),
                   Immediate(rng.randrange(1, 99)), a)
            return dest
        if kind == "cvt":
            return b.cvt("u64", "u32", rng.choice(ints))
        if kind == "hi":
            dest = b.reg("u64")
            b.emit("mul.hi.u64", dest, a, c)
            return dest
        if kind in ("div", "rem"):
            if isinstance(c, Immediate):
                c = b.mov("u64", c)
            return b._binary(f"{kind}.u64", "u64", a,
                             self.divisor("u64", c))
        if kind == "not":
            return b.unary("not", "b64", a)
        if kind == "neg":
            return b.unary("neg", "s64", a)
        if kind == "selp":
            pred = b.setp(rng.choice(COMPARES),
                          rng.choice(["u64", "s64"]), a, c)
            result = b.reg("u64")
            b.emit("selp.b64", result, a, rng.choice(wides), pred)
            return result
        # A 64-bit integer converted to float, used with a float.
        low = b.and_("b64", a, Immediate(0xFFFF))
        floats.append(b.mul("f32", b.cvt("f32", "u64", low),
                            Immediate(0.5)))
        return a

    def conversion(self, ints, floats, signed, wides):
        """One ``cvt`` between register banks; its result joins the
        values of its bank."""
        b, rng = self.b, self.rng
        kind = rng.choice(["f2i", "f2i", "narrow", "wide2f", "meet"])
        if kind == "f2i":
            # Every rounding modifier; now and then NaN or an infinity,
            # often beyond the destination's range.
            value = b.mul("f32", self.float_operand(floats), Immediate(
                rng.choice([1.0, 3e9, -3e9, 2.0 ** 40, -(2.0 ** 70)])))
            dest = rng.choice(["s32", "u32", "s64", "u64"])
            result = b.reg(dest)
            b.emit(f"cvt.{rng.choice(['rni', 'rzi', 'rmi', 'rpi'])}.{dest}"
                   ".f32", result, value)
            {"s32": signed, "u32": ints}.get(dest, wides).append(result)
        elif kind == "narrow":
            dest = rng.choice(["u32", "s32"])
            narrowed = b.cvt(dest, dest[0] + "64", rng.choice(wides))
            (ints if dest == "u32" else signed).append(narrowed)
        elif kind == "wide2f":
            high = b.or_("b64", rng.choice(wides), Immediate(1 << 63))
            value = b.cvt("f32", rng.choice(["s64", "u64"]), high)
            floats.append(b.mul("f32", value, Immediate(2.0 ** -62)))
        else:
            # Two integers converted to float meet in one f32 op.
            a = b.cvt("f32", "u32", rng.choice(ints))
            c = b.cvt("f32", "s32", rng.choice(signed))
            met = b._binary(f"{rng.choice(['add', 'sub', 'mul'])}.f32",
                            "f32", a, c)
            floats.append(b.mul("f32", met, Immediate(2.0 ** -32)))

    # -- structure --------------------------------------------------------------

    def body(self, depth, ints, floats, signed, wides, budget):
        b, rng = self.b, self.rng
        ints, floats = list(ints), list(floats)
        signed, wides = list(signed), list(wides)
        kinds = ["i", "i", "f", "f", "s", "w", "w", "acc", "pred", "cvt"]
        if depth < 2:
            kinds += ["if", "loop", "shared", "sum"]
        for _ in range(rng.randrange(1, budget)):
            kind = rng.choice(kinds)
            if kind == "i":
                ints.append(self.int_op(ints, signed))
            elif kind == "f":
                floats.append(self.float_op(floats, ints))
            elif kind == "s":
                signed.append(self.signed_op(ints, signed))
            elif kind == "w":
                wides.append(self.wide_op(wides, ints, floats))
            elif kind == "cvt":
                self.conversion(ints, floats, signed, wides)
            elif kind == "acc":
                which = rng.choice("ifsw")
                if which == "i":
                    b.emit("mov.u32", rng.choice(self.ints),
                           rng.choice(ints))
                elif which == "f":
                    b.emit("mov.f32", rng.choice(self.floats),
                           rng.choice(floats))
                elif which == "s":
                    b.emit("mov.s32", rng.choice(self.signed),
                           rng.choice(signed))
                else:
                    b.emit("mov.u64", rng.choice(self.wides),
                           rng.choice(wides))
            elif kind == "pred":
                self.predicated(ints, floats, wides)
            elif kind == "sum":
                floats.append(self.reduction(ints, floats))
            elif kind == "if":
                skip = b.fresh_label("fi")
                b.bra(skip, guard_reg=self.condition(ints, floats, signed),
                      negated=rng.random() < 0.5)
                self.body(depth + 1, ints, floats, signed, wides, 5)
                b.label(skip)
            elif kind == "loop":
                trips = b.add(
                    "u32", b.and_("b32", rng.choice(ints), Immediate(3)),
                    Immediate(rng.randrange(0, 3)))
                with b.loop(trips) as counter:
                    self.body(depth + 1, ints + [counter], floats, signed,
                              wides, 5)
            elif self.shared is not None and depth == 0:
                floats.append(self.exchange(rng.choice(floats)))

    def reduction(self, ints, floats):
        """A counted loop summing loaded f32 values, 0-70 trips, the
        count uniform or lane-varying; returns the sum."""
        b, rng = self.b, self.rng
        if rng.random() < 0.5:
            count = b.mov("u32", Immediate(rng.randrange(0, 71)))
        else:
            count = b.add("u32", b.and_("b32", rng.choice(ints),
                                        Immediate(7)),
                          Immediate(rng.randrange(0, 64)))
        total = b.mov("f32", _f32(rng, -2, 2))
        scale = rng.choice(floats)
        form = rng.choice(["add", "add_second", "fma"])
        stride, elements = rng.choice([(4, 512), (4, 512), (SET_STRIDE, 60)])
        with b.loop(count) as counter:
            index = b.rem("u32", b.add("u32", counter, rng.choice(ints)),
                          Immediate(elements))
            value = b.ld_global("f32", b.element_addr(self.inp, index,
                                                      stride))
            if form == "fma":
                summed = b.fma("f32", value, scale, total)
            elif form == "add":
                summed = b.add("f32", total, value)
            else:
                summed = b.add("f32", value, total)
            b.emit("mov.f32", total, summed)
        return total

    def condition(self, ints, floats, signed):
        b, rng = self.b, self.rng
        which = rng.choice("usf")
        if which == "u":
            return b.setp(rng.choice(COMPARES), "u32", rng.choice(ints),
                          rng.choice([rng.choice(ints),
                                      Immediate(rng.randrange(0, 64))]))
        if which == "s":
            return b.setp(rng.choice(COMPARES), "s32", rng.choice(signed),
                          Immediate(rng.randrange(-20, 20)))
        return b.setp(rng.choice(COMPARES), "f32", rng.choice(floats),
                      _f32(rng, -1, 1))

    def predicated(self, ints, floats, wides):
        """A guarded non-branch instruction."""
        b, rng = self.b, self.rng
        pred = b.setp(rng.choice(COMPARES), "u32", rng.choice(ints),
                      Immediate(rng.randrange(0, 64)))
        guard = Guard(pred.name, negated=rng.random() < 0.5)
        which = rng.choice(["i", "f", "w", "st"])
        if which == "i":
            b.emit("mov.u32", rng.choice(self.ints), rng.choice(ints),
                   guard=guard)
        elif which == "f":
            b.emit("add.f32", rng.choice(self.floats), rng.choice(floats),
                   Immediate(0.25), guard=guard)
        elif which == "w":
            b.emit("mov.u64", rng.choice(self.wides), rng.choice(wides),
                   guard=guard)
        else:
            slot = b.add("u32",
                         b.mul("u32", self.gid,
                               Immediate(WORDS_PER_THREAD)),
                         Immediate(7))
            b.emit("st.global.u32",
                   MemRef(b.element_addr(self.out, slot, 4)),
                   rng.choice(ints), guard=guard)

    def exchange(self, value):
        """Write a slot of shared memory, barrier, read a neighbour's."""
        b, rng = self.b, self.rng

        def slot(index):  # 256 slots: one per thread of any block
            offset = b.mul("u32", b.and_("b32", index, Immediate(255)),
                           Immediate(4))
            return b.add("u64", b.mov("u64", self.shared),
                         b.cvt("u64", "u32", offset))

        b.st_shared("f32", slot(self.tid), value)
        b.barrier()
        neighbour = b.add("u32", self.tid, Immediate(rng.randrange(1, 9)))
        loaded = b.ld_shared("f32", slot(neighbour))
        b.barrier()
        return loaded

    def finish(self):
        b = self.b
        with b.if_less_than(self.gid, self.n):
            self.body(0, self.ints, self.floats, self.signed, self.wides, 9)
            base = b.mul("u32", self.gid, Immediate(WORDS_PER_THREAD))
            values = ([("u32", r) for r in self.ints]
                      + [("f32", r) for r in self.floats]
                      + [("s32", self.signed[0])])
            for word, (dtype, register) in enumerate(values):
                address = b.element_addr(
                    self.out, b.add("u32", base, Immediate(word)), 4)
                b.st_global(dtype, address, register)
            mix = b.xor("b64", self.wides[0], self.wides[1])
            offset = b.add("u32", b.mul("u32", self.gid, Immediate(32)),
                           Immediate(32 * 1024))
            b.st_global("u64",
                        b.add("s64", self.out, b.cvt("u64", "u32", offset)),
                        mix)
        return b.build()


def may_go_non_finite(kernel) -> bool:
    """Whether ``kernel`` holds a non-finite immediate or divides by a
    zero one: numpy raises at the first inf or NaN, so the block engine
    hands such a block back even when what is stored is finite."""
    return any(
        isinstance(operand, Immediate) and isinstance(operand.value, float)
        and (not math.isfinite(operand.value)
             or ins.base_op == "div" and operand.value == 0)
        for ins in kernel.instructions() for operand in ins.operands)


def structured_kernel(rng, use_shared=None):
    """``fuzz(out, inp, n, s, seed)``: threads ``gid < n`` run a random
    structured body and store their accumulators. ``use_shared=False``
    draws no shared-memory exchange (and so no barrier)."""
    if use_shared is None:
        use_shared = rng.random() < 0.4
    return _Draw(rng, use_shared=use_shared).finish()
