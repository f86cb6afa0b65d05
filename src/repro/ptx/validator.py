"""Structural validation of PTX modules.

The driver JIT (:mod:`repro.driver.jit`) validates every module before
accepting it — mirroring ``ptxas``, which rejects malformed PTX. The
paper's threat model leans on this: *direct* branches are safe because
the assembler verifies their labels exist (§3), while ``brx.idx`` index
registers cannot be checked statically and stay unsafe. A memory op
must have a route in :data:`isa.ROUTES`, and a memory reference may
stand in its address slot (:attr:`isa.OpInfo.address`) and nowhere
else: those are the facts the patcher and the engines act on.
"""

from __future__ import annotations

from repro.errors import PTXValidationError
from repro.ptx import isa
from repro.ptx.ast import (
    Instruction,
    Kernel,
    MemRef,
    Module,
    Register,
    SharedDecl,
    Symbol,
    TargetList,
)


def validate_module(module: Module) -> None:
    """Validate every kernel of a module.

    Raises:
        PTXValidationError: naming the kernel and the first defect found.
    """
    names = set(module.kernels)
    global_names = {decl.name for decl in module.globals}
    for kernel in module.kernels.values():
        try:
            _validate_kernel(kernel, callable_names=names,
                             global_names=global_names)
        except PTXValidationError as exc:
            raise PTXValidationError(f"kernel {kernel.name!r}: {exc}") from exc


def _validate_kernel(
    kernel: Kernel,
    callable_names: set[str],
    global_names: set[str],
) -> None:
    declared = kernel.declared_registers()
    labels = kernel.labels()
    param_names = {param.name for param in kernel.params}
    shared_names = {
        statement.name
        for statement in kernel.body
        if isinstance(statement, SharedDecl)
    }
    known_symbols = param_names | shared_names | global_names | callable_names

    for statement in kernel.body:
        if not isinstance(statement, Instruction):
            continue
        _validate_instruction(
            statement, declared, labels, known_symbols
        )


def _validate_instruction(
    instruction: Instruction,
    declared: set[str],
    labels: set[str],
    known_symbols: set[str],
) -> None:
    # Opcode must exist (parser enforces too; builders may not), with
    # as many operands as the engines will index.
    info = isa.opcode_info(instruction.opcode)
    expected = info.operands
    if expected is not None and len(instruction.operands) != expected:
        raise PTXValidationError(
            f"{instruction.opcode} takes {expected} operands, got "
            f"{len(instruction.operands)}"
        )

    if info.address is not None and instruction.route is None:
        raise PTXValidationError(
            f"{instruction.opcode} is refused: the routing table has no "
            f"entry for it, so no fence would reach it"
        )
    for index, operand in enumerate(instruction.operands):
        if isinstance(operand, MemRef) != (index == info.address):
            raise PTXValidationError(
                f"{instruction.opcode}: operand {index + 1} "
                + ("must" if index == info.address else "may not")
                + " be a memory reference"
            )

    if instruction.guard is not None:
        if instruction.guard.register not in declared:
            raise PTXValidationError(
                f"guard uses undeclared predicate "
                f"{instruction.guard.register!r}"
            )

    if instruction.base_op == "bra":
        target = instruction.operands[0]
        if not isinstance(target, Symbol) or target.name not in labels:
            raise PTXValidationError(
                f"direct branch to unknown label {target!s}"
            )
        return

    if instruction.base_op == "brx":
        targets = instruction.operands[-1]
        if not isinstance(targets, TargetList):
            raise PTXValidationError("brx.idx requires a target list")
        missing = [name for name in targets.labels if name not in labels]
        if missing:
            raise PTXValidationError(
                f"brx.idx targets unknown labels {missing}"
            )
        return

    for operand in instruction.operands:
        if isinstance(operand, Register):
            if operand.name not in declared:
                raise PTXValidationError(
                    f"{instruction.opcode} uses undeclared register "
                    f"{operand.name!r}"
                )
        elif isinstance(operand, MemRef):
            base = operand.base
            if isinstance(base, Register):
                if base.name not in declared:
                    raise PTXValidationError(
                        f"{instruction.opcode} addresses through "
                        f"undeclared register {base.name!r}"
                    )
            elif base.name not in known_symbols:
                raise PTXValidationError(
                    f"{instruction.opcode} references unknown symbol "
                    f"{base.name!r}"
                )
        elif isinstance(operand, Symbol):
            if instruction.base_op == "call":
                if operand.name not in known_symbols:
                    raise PTXValidationError(
                        f"call to unknown function {operand.name!r}"
                    )
            elif instruction.base_op == "mov":
                # mov may materialise the address of a shared/global
                # symbol into a register.
                if operand.name not in known_symbols:
                    raise PTXValidationError(
                        f"mov of unknown symbol {operand.name!r}"
                    )
