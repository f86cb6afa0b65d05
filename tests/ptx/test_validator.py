"""Validator tests — the ptxas-reject behaviour the threat model leans
on (direct branches are safe *because* the assembler verifies labels)."""

import random

import pytest

from repro.errors import PTXValidationError
from repro.ptx import isa, parse_module, validate_module
from repro.ptx.builder import build_module

from tests.gpu.kernel_fuzz import structured_kernel

_HEADER = ".version 7.5\n.target sm_86\n.address_size 64\n"


def _module(body: str, params: str = ""):
    return parse_module(
        f"{_HEADER}.visible .entry k({params})\n{{\n{body}\n}}"
    )


class TestRegisterValidation:
    def test_undeclared_register_rejected(self):
        module = _module("mov.u32 %r1, 1;\nret;")
        with pytest.raises(PTXValidationError, match="undeclared"):
            validate_module(module)

    def test_declared_register_accepted(self):
        module = _module(".reg .b32 %r<2>;\nmov.u32 %r1, 1;\nret;")
        validate_module(module)

    def test_register_count_is_exclusive_bound(self):
        # .reg .b32 %r<2> declares only %r1.
        module = _module(".reg .b32 %r<2>;\nmov.u32 %r2, 1;\nret;")
        with pytest.raises(PTXValidationError):
            validate_module(module)

    def test_undeclared_guard_rejected(self):
        module = _module(
            ".reg .b32 %r<2>;\n@%p1 mov.u32 %r1, 1;\nret;"
        )
        with pytest.raises(PTXValidationError, match="predicate"):
            validate_module(module)

    def test_undeclared_address_register_rejected(self):
        module = _module(
            ".reg .b32 %r<2>;\nld.global.u32 %r1, [%rd9];\nret;"
        )
        with pytest.raises(PTXValidationError):
            validate_module(module)


class TestBranchValidation:
    def test_direct_branch_to_known_label(self):
        module = _module("bra DONE;\nDONE:\nret;")
        validate_module(module)

    def test_direct_branch_to_unknown_label_rejected(self):
        # The assembler-reports-errors property of the threat model.
        module = _module("bra NOWHERE;\nret;")
        with pytest.raises(PTXValidationError, match="unknown label"):
            validate_module(module)

    def test_brx_targets_must_exist(self):
        module = _module(
            ".reg .b32 %r<2>;\nA:\nbrx.idx %r1, {A, MISSING};\nret;"
        )
        with pytest.raises(PTXValidationError, match="unknown labels"):
            validate_module(module)

    def test_brx_with_valid_targets(self):
        module = _module(
            ".reg .b32 %r<2>;\nmov.u32 %r1, 0;\nA:\nB:\n"
            "brx.idx %r1, {A, B};\nret;"
        )
        validate_module(module)


class TestSymbolValidation:
    def test_param_reference_accepted(self):
        module = _module(
            ".reg .b64 %rd<2>;\nld.param.u64 %rd1, [k_p0];\nret;",
            params=".param .u64 k_p0",
        )
        validate_module(module)

    def test_unknown_symbol_rejected(self):
        module = _module(
            ".reg .b64 %rd<2>;\nld.param.u64 %rd1, [ghost];\nret;"
        )
        with pytest.raises(PTXValidationError, match="unknown symbol"):
            validate_module(module)

    def test_global_symbol_accepted(self):
        module = parse_module(
            _HEADER
            + ".global .align 4 .f32 table[8];\n"
            + ".visible .entry k()\n{\n.reg .b64 %rd<2>;\n"
            + "mov.u64 %rd1, table;\nret;\n}"
        )
        validate_module(module)

    def test_shared_symbol_accepted(self):
        module = _module(
            ".shared .align 4 .f32 tile[16];\n.reg .b64 %rd<2>;\n"
            "mov.u64 %rd1, tile;\nret;"
        )
        validate_module(module)

    def test_error_names_kernel(self):
        module = _module("mov.u32 %r1, 1;\nret;")
        with pytest.raises(PTXValidationError, match="'k'"):
            validate_module(module)


class TestOperandCounts:
    def test_too_few_operands_rejected(self):
        module = _module(".reg .b64 %rd<3>;\nand.b64 %rd2, %rd1;\nret;")
        with pytest.raises(PTXValidationError,
                           match=r"and\.b64 takes 3 operands, got 2"):
            validate_module(module)

    def test_too_many_operands_rejected(self):
        module = _module(".reg .b32 %r<4>;\nneg.s32 %r1, %r2, %r3;\nret;")
        with pytest.raises(PTXValidationError, match=r"neg\.s32 takes 2"):
            validate_module(module)

    def test_fuzzed_kernels_still_validate(self):
        for seed in range(50):
            validate_module(build_module(
                [structured_kernel(random.Random(seed))]))


def _access(op: str, space) -> str:
    """One u32 ``op`` in ``space`` (None: no suffix) through ``%rd1``."""
    opcode = f"{op}.{space}" if space else op
    if op == "st":
        return f"{opcode}.u32 [%rd1], %r1;"
    if op == "ld":
        return f"{opcode}.u32 %r2, [%rd1];"
    return f"{opcode}.add.u32 %r2, [%rd1], %r1;"


#: ``statement -> routed?`` for every memory op in every state space.
_ACCESSES = {
    _access(op, space): (op, space or "generic") in isa.ROUTES
    for op, info in isa.OPCODES.items()
    if info.address is not None
    for space in (None, *sorted(isa.STATE_SPACES))
}


class TestUnfencedSpaces:
    """A memory op in a space :data:`isa.ROUTES` does not route is
    refused, naming the instruction; every routed one loads."""

    _REGS = ".reg .b64 %rd<2>;\n.reg .b32 %r<3>;\n"

    @pytest.mark.parametrize(
        "statement", [text for text, routed in _ACCESSES.items()
                      if not routed])
    def test_refused_naming_the_instruction(self, statement):
        module = _module(self._REGS + statement + "\nret;")
        opcode = statement.split()[0]
        with pytest.raises(PTXValidationError, match=opcode.replace(".",
                                                                   r"\.")):
            validate_module(module)

    @pytest.mark.parametrize(
        "statement", [text for text, routed in _ACCESSES.items() if routed])
    def test_fenced_or_buffered_forms_accepted(self, statement):
        validate_module(_module(self._REGS + statement + "\nret;"))
