"""Functional PTX interpreter with cycle accounting.

This is the simulator's "SASS level": kernels execute instruction by
instruction against real simulated memory, so the protection semantics
of Guardian's sandboxed kernels are *observable* — an out-of-bounds
store genuinely corrupts bytes (inside the offender's own partition
once fenced), and the added masking instructions genuinely cost cycles.

Execution model
---------------
Threads of a block run as cooperating generators (suspending at
``bar.sync``); warps are groups of 32 consecutive threads; a warp's
cycle count is the maximum over its threads (lockstep). Kernel device
time is::

    duration = launch_overhead + sum(warp_cycles) / parallelism
    parallelism = min(num_warps, num_sms * EFFECTIVE_WARPS_PER_SM)

a latency-style model: absolute times are approximate, but the *added*
cycles of Guardian's instrumentation — the paper's target metric — are
exact under the cost model of :mod:`repro.gpu.latency`.

Engines
-------
Three engines produce the same memory effects and the same cycle
accounting: the reference interpreter in this module (the oracle;
``use_codegen=False``), the per-thread JIT of
:mod:`repro.gpu.codegen` (one generated generator per thread) and the
block engine (one generated function per kernel that runs a *span* of
thread blocks at once, registers as numpy lane vectors;
:mod:`repro.gpu.blockrt`). With ``use_codegen`` the executor cuts a
launch's blocks into spans - ``SPAN_LANES`` lanes of consecutive
blocks for a kernel without ``.shared`` and ``bar``, else one block -
and runs them on the block engine when a pass is wide enough to pay
for it and the kernel is admitted, on the per-thread JIT otherwise. A
span the block engine gives up is re-run block by block, and a single
block it gives up on the per-thread JIT: the exact fallback.

Sampled mode
------------
Large grids can be executed in sampled mode (``max_blocks``): only a
subset of blocks run functionally and cycle totals are scaled by the
sampled fraction. Tests and examples use full mode; the big benchmark
sweeps use sampling, mirroring how architecture studies sample
simulation.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from repro.errors import ExecutionError, LaunchError, MemoryFault
from repro.gpu import codegen
from repro.gpu.cache import MemoryHierarchy
from repro.gpu.latency import SHARED_ACCESS_CYCLES, CostModel
from repro.gpu.memory import GlobalMemory, wrap_int
from repro.gpu.registers import RegisterAllocation, allocate
from repro.gpu.specs import DeviceSpec
from repro.ptx import isa
from repro.ptx.ast import (
    Immediate,
    Instruction,
    Kernel,
    Label,
    MemRef,
    Register,
    SharedDecl,
    SpecialReg,
    Symbol,
    TargetList,
)

#: Warps an SM keeps effectively in flight — the throughput knob that
#: converts summed warp latency into device time.
EFFECTIVE_WARPS_PER_SM = 8

#: Fixed device-side cost of dispatching one grid.
LAUNCH_OVERHEAD_CYCLES = 500

#: Default per-thread local-memory (spill space) size in bytes.
LOCAL_MEMORY_BYTES = 4096

#: Fewest lanes the block engine takes in one pass. A lane-vector
#: operation costs about what five scalar ones do, whatever its width,
#: so below one warp the per-thread functions win (measured in
#: DESIGN.md section 9).
BLOCK_ENGINE_MIN_LANES = 32

#: Lanes one pass of the block engine covers: a launch's blocks run
#: ``SPAN_LANES // threads per block`` at a time when the kernel keeps
#: no per-block state. A pass costs ~130 us plus ~1 us per vector
#: instruction whatever its width, so wider is cheaper per lane until
#: the vectors leave the cache (table in DESIGN.md section 9). Lane ids
#: are uint16, so at most 65 536. Constants, not knobs.
SPAN_LANES = 2048


# --------------------------------------------------------------------------
# Compilation (decode) — used by the driver JIT
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodedInstr:
    """One pre-decoded instruction (labels resolved to indices)."""

    op: str
    opcode: str
    dtype: Optional[str]
    space: Optional[str]
    operands: tuple
    guard_reg: Optional[str]
    guard_negated: bool
    compute_cycles: int
    branch_target: Optional[int] = None
    brx_targets: Optional[tuple[int, ...]] = None
    compare: Optional[str] = None


@dataclass
class CompiledKernel:
    """A kernel after 'JIT': decoded body plus register allocation.

    Everything but ``global_symbols`` is a function of the kernel's
    text and is read-only, so the loads of every tenant share it by
    reference (:class:`repro.driver.jit.ModuleImage`); the symbol
    addresses are the one thing a load owns.
    """

    kernel: Kernel
    instructions: tuple[DecodedInstr, ...]
    param_index: Mapping[str, int]
    shared_layout: Mapping[str, int]
    shared_bytes: int
    allocation: RegisterAllocation
    allocation_o0: RegisterAllocation
    #: Filled by the module loader with module-scope .global addresses.
    global_symbols: Mapping[str, int] = field(default_factory=dict)
    #: The generated code of this kernel's content, shared with every
    #: equal kernel (set by :func:`repro.gpu.codegen.kernel_code`).
    code: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def num_params(self) -> int:
        return len(self.kernel.params)


def compile_kernel(kernel: Kernel, spec: DeviceSpec,
                   cost_model: Optional[CostModel] = None) -> CompiledKernel:
    """Decode a kernel body into executable form.

    Mirrors ``ptxas``: resolves labels, lays out shared memory, runs
    register allocation (both O0 and O3, so Fig. 10 can compare).
    """
    cost_model = cost_model or CostModel(spec)

    # First pass: index labels by the position of the next instruction.
    label_index: dict[str, int] = {}
    instruction_count = 0
    for statement in kernel.body:
        if isinstance(statement, Label):
            label_index[statement.name] = instruction_count
        elif isinstance(statement, Instruction):
            instruction_count += 1

    shared_layout: dict[str, int] = {}
    shared_bytes = 0
    for statement in kernel.body:
        if isinstance(statement, SharedDecl):
            align = max(statement.align, 1)
            shared_bytes = (shared_bytes + align - 1) // align * align
            shared_layout[statement.name] = shared_bytes
            shared_bytes += statement.size_bytes

    decoded = tuple(
        _decode(statement, label_index, cost_model)
        for statement in kernel.body
        if isinstance(statement, Instruction)
    )

    return CompiledKernel(
        kernel=kernel,
        instructions=decoded,
        param_index=MappingProxyType(
            {p.name: i for i, p in enumerate(kernel.params)}),
        shared_layout=MappingProxyType(shared_layout),
        shared_bytes=shared_bytes,
        allocation=allocate(kernel, spec.registers_per_thread, "O3"),
        allocation_o0=allocate(kernel, spec.registers_per_thread, "O0"),
    )


def _decode(instruction: Instruction, label_index: dict[str, int],
            cost_model: CostModel) -> DecodedInstr:
    guarded = instruction.guard is not None
    op = instruction.base_op
    branch_target = None
    brx_targets = None
    compare = None
    if op == "bra":
        target = instruction.operands[0]
        if not isinstance(target, Symbol) or target.name not in label_index:
            raise ExecutionError(f"branch to unknown label {target!s}")
        branch_target = label_index[target.name]
    elif op == "brx":
        targets = instruction.operands[-1]
        if not isinstance(targets, TargetList):
            raise ExecutionError("brx.idx without a target list")
        try:
            brx_targets = tuple(
                label_index[name] for name in targets.labels
            )
        except KeyError as exc:
            raise ExecutionError(f"brx.idx to unknown label {exc}") from exc
    elif op == "setp":
        compare = instruction.suffixes[0]
        if compare not in isa.COMPARE_OPS:
            raise ExecutionError(f"unknown comparison {compare!r}")

    return DecodedInstr(
        op=op,
        opcode=instruction.opcode,
        dtype=instruction.dtype,
        space=instruction.space,
        operands=instruction.operands,
        guard_reg=instruction.guard.register if guarded else None,
        guard_negated=instruction.guard.negated if guarded else False,
        compute_cycles=cost_model.compute_cost(instruction.opcode, guarded),
        branch_target=branch_target,
        brx_targets=brx_targets,
        compare=compare,
    )


# --------------------------------------------------------------------------
# Launch results
# --------------------------------------------------------------------------


@dataclass
class LaunchResult:
    """Metrics of one kernel execution."""

    kernel_name: str
    duration_cycles: float
    total_warp_cycles: float
    threads: int
    warps: int
    instructions: int
    loads: int
    stores: int
    level_counts: dict[str, int]
    sampled_fraction: float = 1.0

    @property
    def l1_hit_ratio(self) -> float:
        data = self.level_counts
        total = data["l1"] + data["l2"] + data["global"]
        return data["l1"] / total if total else 0.0


class _Barrier(Exception):
    """Internal control-flow marker — never escapes the executor."""


@dataclass
class _Thread:
    regs: dict
    tid: tuple[int, int, int]
    ctaid: tuple[int, int, int]
    ntid: tuple[int, int, int]
    nctaid: tuple[int, int, int]
    shared: bytearray
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    local: Optional[bytearray] = None
    lane: int = 0
    warp: int = 0


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------


class _Engines:
    """One executor's functions for one kernel content, each built
    when a launch first needs it."""

    __slots__ = ("thread", "block")

    def __init__(self):
        self.thread = None
        #: False until asked for; then None (kernel not admitted) or
        #: ``(block function, exit-only blocks, access shifts)``.
        self.block = False


class KernelExecutor:
    """Executes compiled kernels on one device's memory system.

    ``use_codegen=False`` forces the reference interpreter; otherwise
    blocks run on generated code (block engine or per-thread JIT, see
    the module docstring). The differential tests run all three and
    assert equal results.
    """

    def __init__(self, spec: DeviceSpec, memory: GlobalMemory,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 use_codegen: bool = True):
        self.spec = spec
        self.memory = memory
        self.hierarchy = hierarchy or MemoryHierarchy.for_spec(spec)
        self.cost_model = CostModel(spec)
        self.use_codegen = use_codegen
        #: Blocks run per engine, and blocks the block engine started
        #: but handed to the per-thread JIT ("fallback", also counted
        #: under "thread").
        self.engine_blocks = {"block": 0, "thread": 0, "fallback": 0}
        #: Block-function invocations (a pass runs a span of one or
        #: more blocks), and spans of several blocks that were rolled
        #: back and re-run block by block. Host-side facts like
        #: ``engine_blocks``: no launch result depends on them.
        self.engine_passes = 0
        self.span_bails = 0
        self._thread_env: Optional[dict] = None
        #: repro.gpu.blockrt.BlockRuntime, built (and the block engine
        #: imported) with the first block function.
        self._block_runtime = None
        #: KernelCode -> _Engines; an entry lives as long as some
        #: kernel with that content does.
        self._engines: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())

    # -- public API -----------------------------------------------------------

    def launch(
        self,
        compiled: CompiledKernel,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: list,
        max_blocks: Optional[int] = None,
    ) -> LaunchResult:
        """Run a grid and return its metrics.

        ``params`` are the kernel arguments in declaration order
        (integers for pointer/integer params, floats for f32/f64).
        """
        if len(params) != compiled.num_params:
            raise LaunchError(
                f"kernel {compiled.name!r} takes {compiled.num_params} "
                f"parameter(s), got {len(params)}"
            )
        gx, gy, gz = grid
        bx, by, bz = block
        if min(grid) < 1 or min(block) < 1:
            raise LaunchError(f"bad launch configuration {grid}x{block}")
        threads_per_block = bx * by * bz
        if threads_per_block > 1024:
            raise LaunchError(
                f"{threads_per_block} threads per block exceeds 1024"
            )

        self.hierarchy.new_kernel()
        level_before = dict(self.hierarchy.level_counts)

        total_blocks = gx * gy * gz
        block_ids = _select_blocks(total_blocks, max_blocks)
        scale = total_blocks / len(block_ids)

        engines = self._engines_for(compiled)
        block_engine = None
        span = 1  # blocks per pass
        if engines is not None:
            if len(block_ids) > 1 and compiled.code.spannable:
                span = min(max(1, SPAN_LANES // threads_per_block),
                           len(block_ids))
            if span * threads_per_block >= BLOCK_ENGINE_MIN_LANES:
                block_engine = self._block_engine(compiled, engines)
            if block_engine is None:
                span = 1
        total_warp_cycles = 0.0
        instructions = 0
        loads = 0
        stores = 0
        done = 0
        while done < len(block_ids):
            ids = block_ids[done:done + span]
            metrics = self._run_span(compiled, ids, grid, block, params,
                                     engines, block_engine)
            if metrics is None:
                # The span was rolled back whole; its blocks and the
                # rest of the launch run one at a time.
                span = 1
                continue
            done += len(ids)
            total_warp_cycles += metrics[0]
            instructions += metrics[1]
            loads += metrics[2]
            stores += metrics[3]

        total_warp_cycles *= scale
        instructions = int(instructions * scale)
        loads = int(loads * scale)
        stores = int(stores * scale)

        warps_per_block = math.ceil(threads_per_block / self.spec.warp_size)
        num_warps = warps_per_block * total_blocks
        parallelism = min(
            num_warps, self.spec.num_sms * EFFECTIVE_WARPS_PER_SM
        )
        duration = (
            LAUNCH_OVERHEAD_CYCLES + total_warp_cycles / max(parallelism, 1)
        )

        level_counts = {
            key: self.hierarchy.level_counts[key] - level_before[key]
            for key in level_before
        }
        return LaunchResult(
            kernel_name=compiled.name,
            duration_cycles=duration,
            total_warp_cycles=total_warp_cycles,
            threads=threads_per_block * total_blocks,
            warps=num_warps,
            instructions=instructions,
            loads=loads,
            stores=stores,
            level_counts=level_counts,
            sampled_fraction=1.0 / scale,
        )

    # -- block / thread execution -------------------------------------------

    def _run_span(
        self,
        compiled: CompiledKernel,
        block_ids: list[int],
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: list,
        engines: Optional[_Engines],
        block_engine: Optional[tuple],
    ) -> Optional[tuple[float, int, int, int]]:
        """Run the blocks ``block_ids`` in one pass and return their
        summed metrics. None when a span of several blocks was given
        up: memory and caches are then as before it."""
        if block_engine is not None:
            self.engine_passes += 1
            metrics = self._block_runtime.run(
                block_engine, compiled, block_ids, grid, block, params)
            if metrics is not None:
                self.engine_blocks["block"] += len(block_ids)
                return metrics
            if len(block_ids) > 1:
                self.span_bails += 1
                return None
            self.engine_blocks["fallback"] += 1
        self.engine_blocks["thread"] += 1

        ctaid = _unlinearise(block_ids[0], grid)
        bx, by, bz = block
        shared = bytearray(max(compiled.shared_bytes, 1))
        threads: list[_Thread] = []
        for tz in range(bz):
            for ty in range(by):
                for tx in range(bx):
                    linear = tx + ty * bx + tz * bx * by
                    threads.append(
                        _Thread(
                            regs={},
                            tid=(tx, ty, tz),
                            ctaid=ctaid,
                            ntid=block,
                            nctaid=grid,
                            shared=shared,
                            lane=linear % self.spec.warp_size,
                            warp=linear // self.spec.warp_size,
                        )
                    )

        if engines is not None:
            thread_fn = self._thread_function(compiled, engines)
            symbols = compiled.global_symbols
            runners = [
                thread_fn(thread, params, shared, symbols)
                for thread in threads
            ]
        else:
            runners = [
                self._run_thread(compiled, thread, params)
                for thread in threads
            ]
        active = list(range(len(runners)))
        while active:
            still_waiting: list[int] = []
            for index in active:
                try:
                    next(runners[index])
                except StopIteration:
                    continue
                still_waiting.append(index)
            # Every generator that yielded reached bar.sync; resume all.
            active = still_waiting

        warp_cycles: dict[int, int] = {}
        instructions = 0
        loads = 0
        stores = 0
        for thread in threads:
            warp_cycles[thread.warp] = max(
                warp_cycles.get(thread.warp, 0), thread.cycles
            )
            instructions += thread.instructions
            loads += thread.loads
            stores += thread.stores
        return (
            float(sum(warp_cycles.values())),
            instructions,
            loads,
            stores,
        )

    def _engines_for(self, compiled: CompiledKernel) -> Optional[_Engines]:
        """The generated functions of ``compiled`` on this executor
        (None when the interpreter is forced). Keyed by the kernel's
        shared :class:`~repro.gpu.codegen.KernelCode`, so equal
        kernels of any module share them and an entry goes when the
        last such kernel does."""
        if not self.use_codegen:
            return None
        code = compiled.code or codegen.kernel_code(compiled,
                                                    self.cost_model)
        engines = self._engines.get(code)
        if engines is None:
            engines = self._engines[code] = _Engines()
        return engines

    def _memory_env(self) -> dict:
        if self._thread_env is None:
            self._thread_env = codegen.thread_env(
                codegen.make_memory_helpers(
                    self.memory, self.hierarchy, self.cost_model),
                _local)
        return self._thread_env

    def _thread_function(self, compiled: CompiledKernel,
                         engines: _Engines):
        if engines.thread is None:
            engines.thread = compiled.code.bind_thread(
                compiled, self.cost_model, self._memory_env())
        return engines.thread

    def _block_engine(self, compiled: CompiledKernel, engines: _Engines):
        if engines.block is False:
            if self._block_runtime is None:
                from repro.gpu import blockrt

                self._block_runtime = blockrt.BlockRuntime(
                    self.memory, self.hierarchy,
                    self._memory_env()["_resolve"],
                    self.cost_model.memory_cost("l1"), self.spec.warp_size)
            engines.block = compiled.code.bind_block(
                compiled, self.cost_model, self._block_runtime.env)
        return engines.block

    def _run_thread(self, compiled: CompiledKernel, thread: _Thread,
                    params: list) -> Iterator[None]:
        instructions = compiled.instructions
        count = len(instructions)
        pc = 0
        guard_limit = count * 64 + 1_000_000  # runaway-kernel watchdog
        executed = 0
        while pc < count:
            ins = instructions[pc]
            pc += 1
            executed += 1
            if executed > guard_limit:
                raise ExecutionError(
                    f"kernel {compiled.name!r}: runaway execution "
                    f"(> {guard_limit} instructions in one thread)"
                )
            thread.cycles += ins.compute_cycles
            thread.instructions += 1
            if ins.guard_reg is not None:
                predicate = bool(thread.regs.get(ins.guard_reg, 0))
                if predicate == ins.guard_negated:
                    continue  # predicated off; cost already charged
            op = ins.op
            if op == "bra":
                pc = ins.branch_target
            elif op in ("ret", "exit"):
                return
            elif op == "bar":
                yield
            elif op == "brx":
                index = int(self._value(thread, ins.operands[0], params,
                                        compiled))
                targets = ins.brx_targets
                if not 0 <= index < len(targets):
                    raise ExecutionError(
                        f"brx.idx index {index} outside target table of "
                        f"{len(targets)} entries"
                    )
                pc = targets[index]
            elif op == "call":
                raise ExecutionError(
                    "device-function calls are not executed by the "
                    "simulator (library kernels are fully inlined)"
                )
            else:
                self._execute_data(compiled, ins, thread, params)

    # -- operand evaluation ----------------------------------------------------

    def _value(self, thread: _Thread, operand, params: list,
               compiled: CompiledKernel):
        if isinstance(operand, Register):
            try:
                return thread.regs[operand.name]
            except KeyError:
                raise ExecutionError(
                    f"read of uninitialised register {operand.name}"
                ) from None
        if isinstance(operand, Immediate):
            return operand.value
        if isinstance(operand, SpecialReg):
            return self._special(thread, operand.name)
        if isinstance(operand, Symbol):
            name = operand.name
            if name in compiled.shared_layout:
                return compiled.shared_layout[name]
            if name in compiled.global_symbols:
                return compiled.global_symbols[name]
            raise ExecutionError(f"unresolved symbol {name!r}")
        raise ExecutionError(f"cannot evaluate operand {operand!r}")

    @staticmethod
    def _special(thread: _Thread, name: str) -> int:
        axis = "xyz".index(name[-1]) if name[-1] in "xyz" else 0
        if name.startswith("%tid"):
            return thread.tid[axis]
        if name.startswith("%ntid"):
            return thread.ntid[axis]
        if name.startswith("%ctaid"):
            return thread.ctaid[axis]
        if name.startswith("%nctaid"):
            return thread.nctaid[axis]
        if name == "%laneid":
            return thread.lane
        if name == "%warpid":
            return thread.warp
        if name == "%clock":
            return thread.cycles
        raise ExecutionError(f"unknown special register {name!r}")

    def _set_reg(self, thread: _Thread, operand, dtype: Optional[str],
                 value) -> None:
        if not isinstance(operand, Register):
            raise ExecutionError(f"destination {operand!r} is not a register")
        if dtype and not isa.is_float(dtype) and dtype != "pred":
            # Register-value convention (shared by both engines):
            # - every 64-bit integer type wraps to the unsigned 64-bit
            #   range, so address arithmetic behaves like hardware
            #   two's complement (base + "negative" u64 offset lands
            #   where it would on a GPU); signed *comparisons* restore
            #   the signed view;
            # - narrower unsigned/bit types wrap at their width;
            # - narrower signed types stay natural Python ints (index
            #   arithmetic never overflows them, and boundary checks
            #   like the conv kernels' rely on natural negatives).
            width = isa.type_width(dtype)
            if width == 8 or not isa.is_signed(dtype):
                value = wrap_int(int(value), width, False)
            else:
                value = int(value)
        elif dtype == "f32":
            value = struct.unpack("<f", struct.pack("<f", value))[0]
        thread.regs[operand.name] = value

    # -- data instructions -----------------------------------------------------

    def _execute_data(self, compiled: CompiledKernel, ins: DecodedInstr,
                      thread: _Thread, params: list) -> None:
        op = ins.op
        operands = ins.operands
        value = lambda operand: self._value(thread, operand, params, compiled)

        if op == "ld":
            self._load(compiled, ins, thread, params)
        elif op == "st":
            self._store(compiled, ins, thread, params)
        elif op == "mov":
            self._set_reg(thread, operands[0], ins.dtype, value(operands[1]))
        elif op in ("cvta", "cvt"):
            # cvta is an address-space no-op in the flat simulator; cvt
            # converts via the destination type's wrap/round.
            result = value(operands[1])
            if ins.op == "cvt" and ins.dtype and isa.is_float(ins.dtype):
                result = float(result)
            elif ins.op == "cvt" and ins.dtype:
                result = int(result)
            self._set_reg(thread, operands[0], ins.dtype, result)
        elif op == "add":
            self._set_reg(thread, operands[0], ins.dtype,
                          value(operands[1]) + value(operands[2]))
        elif op == "sub":
            self._set_reg(thread, operands[0], ins.dtype,
                          value(operands[1]) - value(operands[2]))
        elif op == "mul":
            self._mul(ins, thread, value)
        elif op in ("mad", "fma"):
            self._mad(ins, thread, value)
        elif op == "div":
            denominator = value(operands[2])
            if denominator == 0 and not isa.is_float(ins.dtype or "u32"):
                raise ExecutionError("integer division by zero")
            numerator = value(operands[1])
            if isa.is_float(ins.dtype or ""):
                result = numerator / denominator if denominator else (
                    math.inf if numerator > 0 else -math.inf
                )
            else:
                result = int(numerator / denominator)  # trunc toward zero
            self._set_reg(thread, operands[0], ins.dtype, result)
        elif op == "rem":
            denominator = value(operands[2])
            if denominator == 0:
                raise ExecutionError("integer remainder by zero")
            numerator = value(operands[1])
            result = numerator - int(numerator / denominator) * denominator
            self._set_reg(thread, operands[0], ins.dtype, result)
        elif op == "and":
            self._set_reg(thread, operands[0], ins.dtype,
                          int(value(operands[1])) & int(value(operands[2])))
        elif op == "or":
            self._set_reg(thread, operands[0], ins.dtype,
                          int(value(operands[1])) | int(value(operands[2])))
        elif op == "xor":
            self._set_reg(thread, operands[0], ins.dtype,
                          int(value(operands[1])) ^ int(value(operands[2])))
        elif op == "not":
            self._set_reg(thread, operands[0], ins.dtype,
                          ~int(value(operands[1])))
        elif op == "shl":
            self._set_reg(thread, operands[0], ins.dtype,
                          int(value(operands[1])) << int(value(operands[2])))
        elif op == "shr":
            width = isa.type_width(ins.dtype or "u32") * 8
            raw = wrap_int(int(value(operands[1])), width // 8,
                           isa.is_signed(ins.dtype or "u32"))
            self._set_reg(thread, operands[0], ins.dtype,
                          raw >> int(value(operands[2])))
        elif op == "min":
            self._set_reg(thread, operands[0], ins.dtype,
                          min(value(operands[1]), value(operands[2])))
        elif op == "max":
            self._set_reg(thread, operands[0], ins.dtype,
                          max(value(operands[1]), value(operands[2])))
        elif op == "neg":
            self._set_reg(thread, operands[0], ins.dtype,
                          -value(operands[1]))
        elif op == "abs":
            self._set_reg(thread, operands[0], ins.dtype,
                          abs(value(operands[1])))
        elif op == "setp":
            self._setp(ins, thread, value)
        elif op == "selp":
            predicate = bool(value(operands[3]))
            chosen = value(operands[1]) if predicate else value(operands[2])
            self._set_reg(thread, operands[0], ins.dtype, chosen)
        elif op in ("sqrt", "rsqrt", "rcp", "ex2", "lg2", "sin", "cos",
                    "tanh"):
            self._sfu(ins, thread, value)
        elif op == "atom":
            self._atomic(compiled, ins, thread, params)
        elif op == "nop":
            pass
        else:
            raise ExecutionError(f"unimplemented opcode {ins.opcode!r}")

    def _mul(self, ins: DecodedInstr, thread: _Thread, value) -> None:
        a = value(ins.operands[1])
        b = value(ins.operands[2])
        if "wide" in ins.opcode:
            narrow = ins.opcode.rsplit(".", 1)[-1]
            wide = "s64" if isa.is_signed(narrow) else "u64"
            self._set_reg(thread, ins.operands[0], wide, int(a) * int(b))
            return
        if "hi" in ins.opcode:
            width = isa.type_width(ins.dtype or "u32") * 8
            product = int(a) * int(b)
            self._set_reg(thread, ins.operands[0], ins.dtype,
                          product >> width)
            return
        self._set_reg(thread, ins.operands[0], ins.dtype, a * b)

    def _mad(self, ins: DecodedInstr, thread: _Thread, value) -> None:
        a = value(ins.operands[1])
        b = value(ins.operands[2])
        c = value(ins.operands[3])
        if "wide" in ins.opcode:
            narrow = ins.opcode.rsplit(".", 1)[-1]
            wide = "s64" if isa.is_signed(narrow) else "u64"
            self._set_reg(thread, ins.operands[0], wide,
                          int(a) * int(b) + int(c))
            return
        self._set_reg(thread, ins.operands[0], ins.dtype, a * b + c)

    def _setp(self, ins: DecodedInstr, thread: _Thread, value) -> None:
        a = value(ins.operands[1])
        b = value(ins.operands[2])
        dtype = ins.dtype or "u32"
        if not isa.is_float(dtype):
            # Restore the dtype's view: unsigned wrap, or the signed
            # two's-complement reading of a (possibly wrapped) value.
            width = isa.type_width(dtype)
            a = wrap_int(int(a), width, isa.is_signed(dtype))
            b = wrap_int(int(b), width, isa.is_signed(dtype))
        compare = ins.compare
        result = {
            "eq": a == b, "ne": a != b,
            "lt": a < b, "le": a <= b,
            "gt": a > b, "ge": a >= b,
        }[compare]
        thread.regs[ins.operands[0].name] = 1 if result else 0

    def _sfu(self, ins: DecodedInstr, thread: _Thread, value) -> None:
        operand = float(value(ins.operands[1]))
        op = ins.op
        try:
            if op == "sqrt":
                result = math.sqrt(operand)
            elif op == "rsqrt":
                result = 1.0 / math.sqrt(operand)
            elif op == "rcp":
                result = 1.0 / operand
            elif op == "ex2":
                result = 2.0 ** operand
            elif op == "lg2":
                result = math.log2(operand)
            elif op == "sin":
                result = math.sin(operand)
            elif op == "cos":
                result = math.cos(operand)
            else:  # tanh
                result = math.tanh(operand)
        except (ValueError, ZeroDivisionError, OverflowError):
            result = math.nan
        self._set_reg(thread, ins.operands[0], ins.dtype, result)

    # -- memory operations ------------------------------------------------------

    def _effective_address(self, compiled: CompiledKernel, thread: _Thread,
                           memref: MemRef, params: list) -> int:
        base = memref.base
        if isinstance(base, Register):
            base_value = thread.regs.get(base.name)
            if base_value is None:
                raise ExecutionError(
                    f"address register {base.name} is uninitialised"
                )
            return int(base_value) + memref.offset
        # Symbol base: shared array or module global.
        name = base.name
        if name in compiled.shared_layout:
            return compiled.shared_layout[name] + memref.offset
        if name in compiled.global_symbols:
            return compiled.global_symbols[name] + memref.offset
        raise ExecutionError(f"cannot address symbol {name!r}")

    def _load(self, compiled: CompiledKernel, ins: DecodedInstr,
              thread: _Thread, params: list) -> None:
        dest, memref = ins.operands
        dtype = ins.dtype or "b32"
        space = ins.space or "generic"
        thread.loads += 1
        if space == "param":
            name = memref.base.name
            index = compiled.param_index.get(name)
            if index is None:
                raise ExecutionError(f"unknown parameter {name!r}")
            thread.cycles += self.cost_model.memory_cost("param")
            self._set_reg(thread, dest, dtype, params[index])
            return
        address = self._effective_address(compiled, thread, memref, params)
        if space == "shared":
            thread.cycles += SHARED_ACCESS_CYCLES
            value = _buffer_load(thread.shared, address, dtype)
        elif space == "local":
            thread.cycles += self.cost_model.memory_cost("local")
            value = _buffer_load(_local(thread), address, dtype)
        else:  # global / generic / const
            _check_alignment(address, dtype)
            level = self.hierarchy.access(address)
            thread.cycles += self.cost_model.memory_cost(level)
            value = self.memory.load_scalar(address, dtype)
        self._set_reg(thread, dest, dtype, value)

    def _store(self, compiled: CompiledKernel, ins: DecodedInstr,
               thread: _Thread, params: list) -> None:
        memref, source = ins.operands
        dtype = ins.dtype or "b32"
        space = ins.space or "generic"
        thread.stores += 1
        value = self._value(thread, source, params, compiled)
        address = self._effective_address(compiled, thread, memref, params)
        if space == "shared":
            thread.cycles += SHARED_ACCESS_CYCLES
            _buffer_store(thread.shared, address, dtype, value)
        elif space == "local":
            thread.cycles += self.cost_model.memory_cost("local")
            _buffer_store(_local(thread), address, dtype, value)
        else:
            _check_alignment(address, dtype)
            level = self.hierarchy.access(address)
            thread.cycles += self.cost_model.memory_cost(level)
            self.memory.store_scalar(address, dtype, value)

    def _atomic(self, compiled: CompiledKernel, ins: DecodedInstr,
                thread: _Thread, params: list) -> None:
        dest, memref, operand = ins.operands
        dtype = ins.dtype or "u32"
        address = self._effective_address(compiled, thread, memref, params)
        level = self.hierarchy.access(address)
        thread.cycles += self.cost_model.memory_cost(level) * 2  # RMW
        thread.loads += 1
        thread.stores += 1
        old = self.memory.load_scalar(address, dtype)
        update = self._value(thread, operand, params, compiled)
        opcode = ins.opcode
        if ".add." in opcode:
            new = old + update
        elif ".max." in opcode:
            new = max(old, update)
        elif ".min." in opcode:
            new = min(old, update)
        elif ".exch." in opcode:
            new = update
        else:
            raise ExecutionError(f"unimplemented atomic {opcode!r}")
        self.memory.store_scalar(address, dtype, new)
        self._set_reg(thread, dest, dtype, old)


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _select_blocks(total: int, max_blocks: Optional[int]) -> list[int]:
    if max_blocks is None or total <= max_blocks:
        return list(range(total))
    stride = total / max_blocks
    return [int(i * stride) for i in range(max_blocks)]


def _unlinearise(linear: int, grid: tuple[int, int, int]
                 ) -> tuple[int, int, int]:
    gx, gy, _ = grid
    x = linear % gx
    y = (linear // gx) % gy
    z = linear // (gx * gy)
    return (x, y, z)


def _check_alignment(address: int, dtype: str) -> None:
    """NVIDIA GPUs require naturally aligned global accesses; this is
    also what makes bitwise fencing airtight at partition edges — an
    aligned address inside a partition can never spill a partial word
    past the boundary."""
    width = isa.type_width(dtype)
    if address % width:
        raise MemoryFault(address, width, f"misaligned {dtype}")


def _local(thread: _Thread) -> bytearray:
    if thread.local is None:
        thread.local = bytearray(LOCAL_MEMORY_BYTES)
    return thread.local


_BUFFER_FORMATS = {
    "f32": "<f", "f64": "<d",
    "u8": "<B", "s8": "<b", "b8": "<B",
    "u16": "<H", "s16": "<h", "b16": "<H",
    "u32": "<I", "s32": "<i", "b32": "<I",
    "u64": "<Q", "s64": "<q", "b64": "<Q",
}


def _buffer_load(buffer: bytearray, offset: int, dtype: str):
    width = isa.type_width(dtype)
    if offset < 0 or offset + width > len(buffer):
        raise ExecutionError(
            f"shared/local access at {offset} outside buffer of "
            f"{len(buffer)} bytes"
        )
    return struct.unpack_from(_BUFFER_FORMATS[dtype], buffer, offset)[0]


def _buffer_store(buffer: bytearray, offset: int, dtype: str, value) -> None:
    width = isa.type_width(dtype)
    if offset < 0 or offset + width > len(buffer):
        raise ExecutionError(
            f"shared/local access at {offset} outside buffer of "
            f"{len(buffer)} bytes"
        )
    if isa.is_float(dtype):
        struct.pack_into(_BUFFER_FORMATS[dtype], buffer, offset, float(value))
    else:
        struct.pack_into(
            _BUFFER_FORMATS[dtype], buffer, offset,
            wrap_int(int(value), width, isa.is_signed(dtype)),
        )
