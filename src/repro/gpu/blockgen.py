"""Source generation for the block engine.

:class:`BlockCodegen` compiles a kernel's decoded instructions into one
*block function* that executes a whole thread block - or a span of
them, which to the function is only more lanes and a ``%ctaid`` that
may vary - every register a numpy lane vector over the live threads
(or a Python scalar while its value is uniform). It reuses
:class:`repro.gpu.codegen.KernelCodegen`'s operand and expression
emission - an instruction's expression text is the same whether its
operands are scalars or lane vectors - and :mod:`repro.gpu.blockrt` is
what the generated code runs against.

The block function's results are not close to the per-thread JIT's,
they are the same. What it cannot reproduce exactly it refuses here,
statically (:class:`Unsupported`), or abandons at run time
(:class:`repro.gpu.blockrt.Bail`); either way the executor runs the
per-thread function instead.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError
from repro.gpu.codegen import (
    _SFU_OPS,
    MAX_BLOCK_STEPS,
    KernelCodegen,
    _Gen,
    _mangle,
    basic_blocks,
    cvt_source,
)
from repro.gpu.latency import SHARED_ACCESS_CYCLES, CostModel
from repro.ptx import isa
from repro.ptx.ast import Immediate, RegDecl, Register, SpecialReg, Symbol


#: Dispatch-loop steps one attempt (a block, or a span of them in
#: lockstep) may take. A step costs about ten times a per-thread step
#: (numpy calls against scalar bytecodes), and a runaway kernel is only
#: *reported* by the per-thread engine's own watchdog, so the attempt
#: before it is kept to a fraction of that watchdog's time. Twelve
#: times the longest block of the bench suite (10 312 steps); a longer
#: one simply runs per-thread.
ATTEMPT_STEPS = MAX_BLOCK_STEPS >> 4

#: Lane-trips one chunk of a counted loop runs at once (see
#: :meth:`BlockCodegen._emit_trip_arm`): a chunk's matrices have about
#: this many elements, whatever the loop's length. At 1 << 14
#: `mix_train` ran no faster and its peak RSS read 0.4 MB higher.
TRIP_CELLS = 1 << 12


class Unsupported(Exception):
    """The kernel stays on the per-thread engine (the message says
    which static property kept it there)."""


def _register_class(type_name: str) -> str:
    """Lane representation of a register bank (see blockrt)."""
    if type_name == "pred":
        return "p"
    if isa.is_float(type_name):
        return "f"
    return "l" if isa.type_width(type_name) == 8 else "i"


_INT32_RANGE = range(-(1 << 31), 1 << 32)
_INT64_RANGE = range(-(1 << 63), 1 << 64)

#: (op, value class) pairs whose one emitted expression is exact on
#: lanes; everything else keeps the kernel on the per-thread engine.
_PLAIN_OPS = {
    "mov": "ilf", "cvta": "il", "add": "ilf", "sub": "ilf",
    "and": "ilp", "or": "ilp", "xor": "ilp", "not": "il",
    "neg": "ilf", "abs": "if", "min": "if", "max": "if",
}


#: Ops a counted loop's body may hold and still run along the trip axis
#: (besides ``ld.global``): their helpers broadcast over a (trips x
#: lanes) matrix, where ``cvt`` and the SFU ops go lane by lane.
_TRIP_OPS = frozenset(_PLAIN_OPS) | {
    "mul", "mad", "fma", "div", "rem", "shl", "shr", "setp", "selp"}


class BlockCodegen(KernelCodegen):
    """Generates the block function of one kernel.

    Raises :class:`Unsupported` for kernels whose exact behaviour the
    lane representation cannot guarantee statically: ``atom``,
    ``brx``, ``.local``, ``%clock``, a guarded ``ret``/``exit``,
    operands whose register bank does not match the instruction type,
    and a register that may be read before it is written.
    """

    FLOAT = "_flt"

    def __init__(self, compiled, cost_model: CostModel):
        super().__init__(compiled, cost_model)
        self.classes: dict[str, str] = {}
        for statement in compiled.kernel.body:
            if isinstance(statement, RegDecl):
                cls = _register_class(statement.reg_type)
                for name in statement.names():
                    self.classes[name] = cls
        #: Lane mask the instruction being emitted runs under (source
        #: text; None for a full group) and its lane count.
        self._mask: Optional[str] = None
        self._count = "_n"
        #: 64-bit immediates are emitted two's complement while a
        #: 64-bit instruction is being generated (int64 lanes).
        self._wide = False
        #: The divisor operand of the div/rem being generated.
        self._divisor = None
        self.global_widths: set[int] = set()
        self.shared_widths: set[int] = set()
        #: Counted loops that run along the trip axis, by header block.
        self.trip_loops: dict[int, tuple] = {}

    # -- static admission --------------------------------------------------------

    def _signature(self, ins):
        """``(dest class, source classes)`` of a data instruction, or
        raise :class:`Unsupported`."""
        op = ins.op
        opcode = ins.opcode
        dtype = ins.dtype
        if dtype is None or dtype == "f16":
            raise Unsupported(f"{opcode}: no usable type")
        vc = _register_class(dtype)
        if op in _PLAIN_OPS:
            if vc not in _PLAIN_OPS[op]:
                raise Unsupported(f"{opcode}: not vectorised")
            return vc, [vc] * (len(ins.operands) - 1)
        if op in ("mul", "mad") and "wide" in opcode:
            if vc != "i":
                raise Unsupported(f"{opcode}: wide of a wide type")
            return "l", ["i", "i", "l"][:len(ins.operands) - 1]
        if op == "mul" and "hi" in opcode:
            if dtype != "u64":
                raise Unsupported(f"{opcode}: not vectorised")
            return "l", ["l", "l"]
        if op in ("mul", "mad"):
            if vc == "p":
                raise Unsupported(f"{opcode}: predicate arithmetic")
            return vc, [vc] * (len(ins.operands) - 1)
        if op == "fma" or op in _SFU_OPS:
            if vc != "f":
                raise Unsupported(f"{opcode}: not a float type")
            return "f", ["f"] * (len(ins.operands) - 1)
        if op in ("div", "rem"):
            if vc == "p" or (vc == "f" and op == "rem") or (
                    vc == "l" and isa.is_signed(dtype)):
                raise Unsupported(f"{opcode}: not vectorised")
            return vc, [vc, vc]
        if op in ("shl", "shr"):
            if vc not in "il" or (op == "shl" and isa.is_signed(dtype)):
                raise Unsupported(f"{opcode}: not vectorised")
            return vc, [vc, "i"]
        if op == "setp":
            if vc == "p":
                raise Unsupported(f"{opcode}: predicate compare")
            return "p", [vc, vc]
        if op == "selp":
            if vc == "p":
                raise Unsupported(f"{opcode}: predicate select")
            return vc, [vc, vc, "p"]
        if op == "cvt":
            source = _register_class(cvt_source(opcode)[0])
            if "p" in (vc, source):
                raise Unsupported(f"{opcode}: conversion not vectorised")
            return vc, [source]
        raise Unsupported(f"{opcode}: not vectorised")

    def _check_operand(self, ins, operand, cls: str) -> None:
        if isinstance(operand, Register):
            if self.classes.get(operand.name) != cls:
                raise Unsupported(
                    f"{ins.opcode}: register {operand.name} is not a "
                    f"{cls!r}-class register")
        elif isinstance(operand, Immediate):
            value = operand.value
            if cls == "f":
                if not isinstance(value, float):
                    raise Unsupported(
                        f"{ins.opcode}: integer immediate in a float slot")
            elif cls == "p" or not isinstance(value, int) or value not in (
                    _INT32_RANGE if cls == "i" else _INT64_RANGE):
                raise Unsupported(
                    f"{ins.opcode}: immediate {value!r} out of class")
        elif isinstance(operand, SpecialReg):
            if operand.name == "%clock" or cls != "i":
                raise Unsupported(f"{ins.opcode}: reads {operand.name}")
        elif isinstance(operand, Symbol):
            if cls not in "il":
                raise Unsupported(f"{ins.opcode}: symbol in a {cls!r} slot")
        else:
            raise Unsupported(f"{ins.opcode}: operand {operand!r}")

    def _check_memory(self, ins) -> tuple:
        """Validate a ld/st; returns (reads, written register)."""
        dtype = ins.dtype or "b32"
        route = ins.route
        if dtype == "f16" or dtype == "pred":
            raise Unsupported(f"{ins.opcode}: no usable type")
        vc = _register_class(dtype)
        if ins.op == "ld":
            value, memref = ins.operands
        else:
            memref, value = ins.operands
        self._check_operand(ins, value, vc)
        if ins.op == "ld" and not isinstance(value, Register):
            raise Unsupported(f"{ins.opcode}: destination")
        reads = []
        if route == isa.LOCAL:
            raise Unsupported(f"{ins.opcode}: local memory")
        if route != isa.PARAM and isinstance(memref.base, Register):
            cls = self.classes.get(memref.base.name)
            if cls != "l" and not (route == isa.SHARED and cls == "i"):
                raise Unsupported(
                    f"{ins.opcode}: address register {memref.base.name}")
            reads.append(memref.base.name)
        widths = (self.shared_widths if route == isa.SHARED
                  else self.global_widths)
        if route != isa.PARAM:
            widths.add(isa.type_width(dtype))
        if ins.op == "ld":
            return reads, value.name
        if isinstance(value, Register):
            reads.append(value.name)
        return reads, None

    def _admit(self, ordered, block_of) -> frozenset:
        """Static admission; returns the exit-only basic blocks."""
        instructions = self.ck.instructions
        last = instructions[-1] if instructions else None
        if last is None or last.guard_reg is not None or last.op not in (
                "ret", "exit", "bra"):
            raise Unsupported("body does not end in ret")
        effects = []  # per instruction: (reads, definitely written)
        for ins in instructions:
            reads: list = []
            written = None
            if ins.guard_reg is not None:
                if self.classes.get(ins.guard_reg) != "p":
                    raise Unsupported(f"{ins.opcode}: guard is not a "
                                      "predicate register")
                reads.append(ins.guard_reg)
            if ins.op in ("brx", "atom", "call"):
                raise Unsupported(f"{ins.opcode}: not vectorised")
            if ins.op in ("ret", "exit") and ins.guard_reg is not None:
                raise Unsupported(f"{ins.opcode}: guarded exit")
            if ins.op in ("ld", "st"):
                more, written = self._check_memory(ins)
                reads += more
            elif ins.op not in ("bra", "ret", "exit", "bar", "nop"):
                dest_cls, source_classes = self._signature(ins)
                dest, *sources = ins.operands
                if not isinstance(dest, Register):
                    raise Unsupported(f"{ins.opcode}: destination")
                self._check_operand(ins, dest, dest_cls)
                if len(sources) != len(source_classes):
                    raise Unsupported(f"{ins.opcode}: operand count")
                for operand, cls in zip(sources, source_classes):
                    self._check_operand(ins, operand, cls)
                    if isinstance(operand, Register):
                        reads.append(operand.name)
                written = dest.name
            effects.append(
                (reads, written if ins.guard_reg is None else None))
        self._effects = effects
        self._check_assigned(ordered, block_of, effects)
        exits = set()
        for block_id, leader in enumerate(ordered[:-1]):
            ins = instructions[leader]
            if (ordered[block_id + 1] == leader + 1
                    and ins.op in ("ret", "exit")):
                exits.add(block_id)
        return frozenset(exits)

    def _check_assigned(self, ordered, block_of, effects) -> None:
        """Every register read is dominated by an unguarded write: a
        forward must-analysis over the basic blocks. (Both engines
        read an unwritten register as the integer 0, whatever its
        bank; admitting only definitely-assigned reads is what lets
        each bank keep one lane dtype.)"""
        instructions = self.ck.instructions
        count = len(ordered) - 1
        successors: list[list[int]] = []
        for block_id in range(count):
            last = instructions[ordered[block_id + 1] - 1]
            after = []
            if last.op == "bra":
                after.append(block_of[last.branch_target])
            if last.op not in ("ret", "exit") and not (
                    last.op == "bra" and last.guard_reg is None):
                if ordered[block_id + 1] < len(instructions):
                    after.append(block_id + 1)
            successors.append(after)
        written = [
            {effects[i][1] for i in range(ordered[b], ordered[b + 1])
             if effects[i][1] is not None}
            for b in range(count)
        ]
        entry: list = [None] * count  # None = not reached yet (top)
        entry[0] = frozenset()
        work = [0]
        while work:
            block_id = work.pop()
            leaving = entry[block_id] | written[block_id]
            for nxt in successors[block_id]:
                merged = (leaving if entry[nxt] is None
                          else entry[nxt] & leaving)
                if merged != entry[nxt]:
                    entry[nxt] = frozenset(merged)
                    work.append(nxt)
        for block_id in range(count):
            if entry[block_id] is None:
                continue  # unreachable
            assigned = set(entry[block_id])
            for index in range(ordered[block_id], ordered[block_id + 1]):
                reads, wrote = effects[index]
                for name in reads:
                    if name not in assigned:
                        raise Unsupported(
                            f"register {name} may be read before it is "
                            "written")
                if wrote is not None:
                    assigned.add(wrote)

    # -- operands and results -------------------------------------------------------

    def _expr(self, operand) -> str:
        if (self._wide and isinstance(operand, Immediate)
                and isinstance(operand.value, int)
                and operand.value >= 1 << 63):
            return repr(operand.value - (1 << 64))
        text = super()._expr(operand)
        if operand is self._divisor and self._mask is not None:
            # Lanes outside the mask hold stale values; a stale zero
            # divisor would trap the whole vector operation.
            return f"_live({self._mask}, {text})"
        return text

    def _wrap_int(self, expr: str, dtype: str) -> str:
        if dtype in ("u64", "b64", "s64"):
            return f"_w64({expr})"
        if isa.is_signed(dtype):
            return f"_n32({expr})"
        return super()._wrap_int(expr, dtype)

    def _set(self, dest, expr: str) -> None:
        name = self._expr(dest)
        if self._mask is None:
            self.gen.emit(f"{name} = {expr}")
            return
        merge = "_msetp" if self.classes[dest.name] == "p" else "_mset"
        self.gen.emit(f"{name} = {merge}({self._mask}, {expr}, {name})")

    def _assign(self, dest, expr: str, dtype: str) -> None:
        if dtype == "pred":
            expr = f"_asp({expr})"
        super()._assign(dest, expr, dtype)

    def _emit_body(self, ins) -> None:
        self._wide = bool(ins.dtype) and _register_class(ins.dtype) == "l"
        super()._emit_body(ins)
        self._wide = False

    def _int_view(self, expr: str, dtype: str) -> str:
        if isa.is_signed(dtype):  # int64 lanes, not setp's narrow view
            return f"_sx{isa.type_width(dtype) * 8}({expr})"
        return super()._int_view(expr, dtype)

    def _emit_mul_hi(self, ins, a: str, b: str) -> None:
        self._set(ins.operands[0], f"_mulhi64({a}, {b})")

    def _emit_div(self, ins) -> None:
        self._divide(ins, "_udiv64", super()._emit_div)

    def _emit_rem(self, ins) -> None:
        self._divide(ins, "_urem64", super()._emit_rem)

    def _divide(self, ins, unsigned64: str, emit_narrow) -> None:
        self._divisor = ins.operands[2]
        if ins.dtype in ("u64", "b64"):
            e = self._expr
            self._set(
                ins.operands[0],
                f"{unsigned64}({e(ins.operands[1])}, {e(ins.operands[2])})")
        else:
            emit_narrow(ins)
        self._divisor = None

    def _shift_amount(self, ins) -> str:
        return f"_sh({self._expr(ins.operands[2])})"

    def _emit_shr(self, ins) -> None:
        dtype = ins.dtype
        a, b = self._expr(ins.operands[1]), self._shift_amount(ins)
        if dtype in ("u64", "b64"):
            self._set(ins.operands[0], f"_shr64({a}, {b})")
        elif dtype == "s64":
            self._set(ins.operands[0], f"_sv64({a}) >> {b}")
        elif isa.is_signed(dtype):
            bits = isa.type_width(dtype) * 8
            self._assign(ins.operands[0], f"_sx{bits}({a}) >> {b}", dtype)
        else:
            self._assign(ins.operands[0],
                         f"({self._wrap_int(a, dtype)}) >> {b}", dtype)

    def _compare_view(self, expr: str, dtype: str) -> str:
        if dtype in ("u64", "b64"):
            return f"_uv64({expr})"
        return super()._compare_view(expr, dtype)

    def _emit_selp(self, ins) -> None:
        e = self._expr
        operands = ins.operands
        self._assign(
            operands[0],
            f"_sel({e(operands[1])}, {e(operands[2])}, {e(operands[3])})",
            ins.dtype)

    def _emit_sfu(self, ins) -> None:
        self._set(ins.operands[0],
                  f"_sfu_{ins.op}({self._expr(ins.operands[1])})")

    # -- predication, cycles, memory ---------------------------------------------

    def _emit_instruction(self, ins) -> None:
        if ins.guard_reg is None:
            self._emit_body(ins)
            return
        gen = self.gen
        guard = _mangle(ins.guard_reg)
        self._declared.add(guard)
        gen.emit(f"_g = _R.guard({guard}, {ins.guard_negated}, "
                 f"{self._mask}, _w)")
        gen.emit("if _g is not None:")
        gen.indent += 1
        gen.emit("_gn = _cnz(_g)")
        saved = self._mask, self._count
        self._mask, self._count = "_g", "_gn"
        self._emit_body(ins)
        self._mask, self._count = saved
        gen.indent -= 1

    def _charge(self, cycles: int) -> None:
        if self._mask is None:
            self.gen.emit(f"_cu += {cycles}")
        else:
            self.gen.emit(f"_cv[{self._mask}] += {cycles}")

    def _flush_static(self, cycles: int, count: int) -> None:
        if count:
            self._charge(cycles)
            self.gen.emit(f"_instr += {count} * _n")

    def _emit_load(self, ins) -> None:
        dest, memref = ins.operands
        dtype = ins.dtype or "b32"
        route = ins.route
        gen = self.gen
        gen.emit(f"_loads += {self._count}")
        if route == isa.PARAM:
            index = self.ck.param_index.get(memref.base.name)
            if index is None:
                raise ExecutionError(
                    f"unknown parameter {memref.base.name!r}"
                )
            self._charge(self.cost_model.memory_cost("param"))
            expr = f"params[{index}]"
            if isa.is_float(dtype):
                expr = f"float({expr})"
            self._assign(dest, expr, dtype)
            return
        name = self._expr(dest)
        helper = "_vlds" if route == isa.SHARED else "_vldg"
        if route == isa.SHARED:
            self._charge(SHARED_ACCESS_CYCLES)
        # The helper merges under the mask itself and returns lanes
        # already in their register convention.
        gen.emit(f"{name} = {helper}_{dtype}(_R, {self._address(memref)}, "
                 f"_lanes, {self._mask}, {name})")

    def _emit_store(self, ins) -> None:
        memref, source = ins.operands
        dtype = ins.dtype or "b32"
        shared = ins.route == isa.SHARED
        self.gen.emit(f"_stores += {self._count}")
        helper = "_vsts" if shared else "_vstg"
        if shared:
            self._charge(SHARED_ACCESS_CYCLES)
        self.gen.emit(
            f"{helper}_{dtype}(_R, {self._address(memref)}, "
            f"{self._expr(source)}, _lanes, {self._mask})")

    # -- control flow ------------------------------------------------------------------

    def _emit_branch(self, ins, target: int) -> None:
        gen = self.gen
        if ins.guard_reg is None:
            gen.emit(f"_pc = {target}; continue")
            return
        guard = _mangle(ins.guard_reg)
        self._declared.add(guard)
        fall = self._fall_through
        gen.emit(f"if type({guard}) is _nd:")
        gen.indent += 1
        taken = f"~{guard}" if ins.guard_negated else guard
        gen.emit(f"_pc, _m, _n = _R.branch({taken}, {target}, {fall}, "
                 "_m, _n)")
        gen.emit("continue")
        gen.indent -= 1
        gen.emit(f"if {'not ' if ins.guard_negated else ''}{guard}:")
        gen.indent += 1
        gen.emit(f"_pc = {target}; continue")
        gen.indent -= 1

    def _emit_barrier(self, next_block: int) -> None:
        gen = self.gen
        if self._mask is None:
            gen.emit(f"_R.phase(); _pc = {next_block}; continue")
        else:
            gen.emit(f"_R.park({next_block}, _m, _n); _n = 0; continue")

    def _emit_exit(self, ins) -> None:
        self._emit_return()  # unguarded: admission refuses the rest

    def _emit_return(self) -> None:
        gen = self.gen
        if self._mask is None:
            gen.emit("_R.retire(_lanes, None, _cu, _cv); break")
        else:
            gen.emit("_R.retire(_lanes, _m, _cu, _cv); _keep = ~_m; "
                     "continue")

    # -- counted loops along the trip axis -------------------------------------------

    def _trip_loop(self, instructions, ordered, block_id: int):
        """The loop headed by ``block_id`` if it can run along the trip
        axis: ``setp.ge p, i, N; @p bra``, then one straight-line body
        of global loads and arithmetic ending ``add t, i, 1; mov i, t;
        bra header``, in which only ``i`` and float sums (see
        :meth:`_reduction`) carry from one trip to the next."""
        if block_id + 2 >= len(ordered):
            return None
        start, end, stop = ordered[block_id:block_id + 3]
        test, leave, *body = instructions[start:stop]
        dtype = test.dtype
        if (end - start != 2 or len(body) < 3 or test.op != "setp"
                or test.compare != "ge" or test.guard_reg is not None
                or dtype not in ("u32", "s32", "u64", "s64")
                or len(test.operands) != 3 or leave.op != "bra"
                or leave.guard_negated
                or leave.guard_reg != test.operands[0].name):
            return None
        *work, step, move, back = body
        counter, bound = test.operands[1:]
        if (back.op != "bra" or back.branch_target != start
                or step.opcode != f"add.{dtype}"
                or step.operands[1:] != (counter, Immediate(1))
                or move.opcode != f"mov.{dtype}"
                or move.operands != (counter, step.operands[0])
                or step.operands[0] == counter
                or any(ins.guard_reg is not None for ins in body)
                or not all(ins.op in _TRIP_OPS or ins.op == "ld"
                           and ins.route == isa.DEVICE for ins in work)):
            return None
        effects = self._effects[start:stop - 1]
        writes: dict = {}
        readers: dict = {}
        carried = set()
        for ins, (reads, written) in zip(instructions[start:stop], effects):
            for name in reads:
                readers.setdefault(name, []).append(ins)
                if name not in writes:
                    carried.add(name)  # read before this trip writes it
            writes[written] = writes.get(written, 0) + 1
        reductions = [self._reduction(name, writes, readers)
                      for name in sorted(carried & set(writes))
                      if name != counter.name]
        # The arm runs before the header's test: the body may neither
        # read its predicate nor advance the counter itself.
        if (None in reductions or writes[counter.name] != 1
                or len(readers[test.operands[0].name]) != 1):
            return None
        return (counter, bound, dtype, body[:-1], reductions,
                sum(ins.compute_cycles for ins in instructions[start:stop]),
                stop - start, sum(ins.op == "ld" for ins in work),
                sorted({written for _, written in effects[2:]} - {None}))

    def _reduction(self, acc: str, writes: dict, readers: dict):
        """``(accumulator, register the sum goes to, whether the
        accumulator is the first addend)`` when ``acc`` carries a float
        sum, ``a = x + a`` (either order) or ``a = x*y + a``, written
        to ``a`` itself or through one ``mov``; else None."""
        if self.classes.get(acc) != "f" or len(readers[acc]) != 1:
            return None
        (ins,) = readers[acc]
        names = [getattr(operand, "name", None) for operand in ins.operands]
        if not (ins.op == "add" or ins.op == "fma" and names[3] == acc):
            return None
        total = names[0]
        moves = readers.get(total, [])
        if writes[acc] != 1 or total != acc and (
                writes[total] != 1 or len(moves) != 1
                or moves[0].op != "mov" or moves[0].operands[0].name != acc):
            return None
        return acc, total, names[1] == acc

    def _emit_trip_arm(self, loop) -> None:
        """Run the loop's remaining trips a chunk at a time when the
        whole group reaches the header with a uniform counter (already
        in its type's view) and bound and at least 4 trips to go; the
        header then runs as usual and leaves the loop. Trips beyond the
        step budget give up at once, as the per-trip path would later.
        The counter is a (trips x 1) column; a sum's addends are
        computed with the accumulator read as -0.0 (``x + -0.0`` is
        ``x``, bit for bit) and folded trip by trip; every other
        register leaves with its last trip's value."""
        (counter, bound, dtype, body, reductions, cycles, count, loads,
         written) = loop
        gen = self.gen
        i = self._expr(counter)
        limit = self._expr(bound)
        uniform = [f"type({i}) is not _nd"]
        if not isinstance(bound, Immediate):  # %ctaid varies in a span
            uniform.append(f"type({limit}) is not _nd")
        gen.emit(f"if {' and '.join(uniform)} and "
                 f"{i} == {self._compare_view(i, dtype)}:")
        gen.indent += 1
        gen.emit(f"_k = {self._compare_view(limit, dtype)} - {i}")
        gen.emit("if _k >= 4:")
        gen.indent += 1
        gen.emit(f"_steps += 2 * _k; _cu += {cycles} * _k; "
                 f"_instr += {count} * _k * _n; _loads += {loads} * _k * _n")
        gen.emit(f"if _steps > {ATTEMPT_STEPS}: raise _Bail('step budget "
                 "spent')")
        gen.emit(f"_tc = max(1, {TRIP_CELLS} // _w)")
        gen.emit("while _k:")
        gen.indent += 1
        gen.emit("_c = min(_k, _tc); _k -= _c")
        gen.emit(f"{i} = {i} + _tcol(_c)")
        for index, (acc, _, _) in enumerate(reductions):
            name = _mangle(acc)
            gen.emit(f"_a{index} = {name}; {name} = -0.0")
        addresses = []
        for ins in body:
            if ins.op != "ld":
                self._emit_body(ins)
                continue
            address = f"_ta{len(addresses)}"
            addresses.append(address)
            gen.emit(f"{address} = {self._address(ins.operands[1])}")
            gen.emit(f"{self._expr(ins.operands[0])} = "
                     f"_tldg_{ins.dtype or 'b32'}(_R, {address})")
        if addresses:
            gen.emit(f"_tlog(_R, _lanes, _c, {', '.join(addresses)})")
        folded = set()
        for index, (acc, total, first) in enumerate(reductions):
            acc, total = _mangle(acc), _mangle(total)
            gen.emit(f"{acc} = _fold(_a{index}, {total}, {first}, _c)")
            if total != acc:
                gen.emit(f"{total} = {acc}")
            folded.update((acc, total))
        for name in map(_mangle, written):
            if name not in folded:
                gen.emit(f"{name} = _last({name})")
        gen.indent -= 3

    # -- whole-kernel generation -------------------------------------------------------

    def generate(self) -> tuple[str, frozenset]:
        """Source of the block function and its exit-only blocks."""
        instructions = self.ck.instructions
        ordered, block_of = basic_blocks(instructions)
        exits = self._admit(ordered, block_of)

        arms = []
        for block_id, leader in enumerate(ordered[:-1]):
            end = ordered[block_id + 1]
            self._fall_through = block_of[end] if end < len(
                instructions) else -1
            loop = self._trip_loop(instructions, ordered, block_id)
            if loop is not None:
                self.trip_loops[block_id] = loop
            variants = []
            for mask in (None, "_m"):
                self._mask = mask
                self.gen = _Gen()
                self.gen.indent = 4
                if loop is not None and mask is None:
                    self._emit_trip_arm(loop)
                self._emit_block(instructions, leader, end, block_of)
                variants.append(self.gen.lines)
            arms.append(variants)
        self._mask = None

        gen = self.gen = _Gen()
        # %ctaid is a lane value where the blocks of a span differ.
        specials = ("_tid0", "_tid1", "_tid2", "_lane", "_warp",
                    "_ctaid0", "_ctaid1", "_ctaid2")
        registers = sorted(self._declared)
        gen.emit("def _block(_R, params, _gsyms):")
        gen.indent += 1
        gen.emit("_tid0 = _R.tid0; _tid1 = _R.tid1; _tid2 = _R.tid2")
        gen.emit("_lane = _R.lane; _warp = _R.warp")
        gen.emit("_ntid0, _ntid1, _ntid2 = _R.ntid")
        gen.emit("_ctaid0, _ctaid1, _ctaid2 = _R.ctaid")
        gen.emit("_nctaid0, _nctaid1, _nctaid2 = _R.nctaid")
        gen.emit("_lanes = _R.lanes; _w = _n = _R.width; _m = None")
        gen.emit("_pend = _R.pend; _keep = None")
        gen.emit("_cu = 0; _cv = _zeros(_w)")
        gen.emit("_instr = 0; _loads = 0; _stores = 0; _steps = 0")
        if registers:
            gen.emit("; ".join(f"{name} = 0" for name in registers))
        gen.emit("_pc = 0")
        gen.emit("while True:")
        gen.indent += 1
        gen.emit("_steps += 1")
        gen.emit(f"if _steps > {ATTEMPT_STEPS}:")
        gen.indent += 1
        gen.emit("raise _Bail('step budget spent')")
        gen.indent -= 1
        # Lanes retired under a mask: compact every lane vector.
        gen.emit("if _keep is not None:")
        gen.indent += 1
        gen.emit("_w = _R.compact(_keep)")
        gen.emit("_lanes = _lanes[_keep]; _cv = _cv[_keep]")
        packed = ", ".join(specials + tuple(registers))
        gen.emit(f"{packed}, = _compact(_keep, {packed})")
        gen.emit("_keep = None; _n = 0")
        gen.indent -= 1
        # Other groups wait (or the current one just ended): park the
        # current group and run the lowest waiting block.
        gen.emit("if _pend or not _n:")
        gen.indent += 1
        gen.emit("if not _pend and not _R.release():")
        gen.indent += 1
        gen.emit("break")
        gen.indent -= 1
        gen.emit("_pc, _m, _n = _R.resched(_pc, _m, _n)")
        gen.indent -= 1
        for block_id, (full, masked) in enumerate(arms):
            gen.emit(f"{'elif' if block_id else 'if'} _pc == {block_id}:")
            gen.indent += 1
            if full == masked:
                gen.lines += [line[4:] for line in full]
            else:
                gen.emit("if _m is None:")
                gen.lines += full
                gen.emit("else:")
                gen.lines += masked
            gen.indent -= 1
        gen.emit("else:" if arms else "if True:")
        gen.indent += 1
        gen.emit("break")
        gen.indent -= 1
        gen.indent -= 1
        gen.emit("return _instr, _loads, _stores")
        return gen.source(), exits

    @property
    def access_shifts(self) -> tuple[int, int]:
        """Granularity of the cross-thread conflict check, (global,
        shared): exact addresses when every access has one width,
        else cells of the widest access (conservative)."""
        def shift(widths: set) -> int:
            return 0 if len(widths) <= 1 else max(widths).bit_length() - 1

        return shift(self.global_widths), shift(self.shared_widths)
