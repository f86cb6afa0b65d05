"""Emitter/parser round-trip, including property-based kernels.

Round-tripping matters operationally: Guardian extracts PTX *text*
with cuobjdump, patches the AST, emits text for the driver JIT — any
loss in either direction would corrupt tenant kernels.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.libs.kernels import blas, dnn, fft, rand
from repro.ptx import emit_module, parse_module, validate_module
from repro.ptx.ast import Immediate
from repro.ptx.builder import KernelBuilder, build_module


def assert_roundtrips(module):
    text = emit_module(module)
    reparsed = parse_module(text)
    assert emit_module(reparsed) == text
    validate_module(reparsed)
    return reparsed


class TestLibraryKernelRoundtrip:
    """Every library kernel must round-trip (they are what Guardian
    extracts and patches in production)."""

    @pytest.mark.parametrize("kernel_set", [
        blas.all_kernels, dnn.all_kernels, fft.all_kernels,
        rand.all_kernels,
    ])
    def test_roundtrip(self, kernel_set):
        module = build_module(kernel_set())
        reparsed = assert_roundtrips(module)
        assert set(reparsed.kernels) == set(module.kernels)

    def test_instruction_counts_preserved(self):
        module = build_module(blas.all_kernels())
        reparsed = assert_roundtrips(module)
        for name, kernel in module.kernels.items():
            original = len(list(kernel.instructions()))
            parsed = len(list(reparsed.kernels[name].instructions()))
            assert original == parsed


_SCALAR_TYPES = st.sampled_from(["u32", "s32", "u64", "s64", "f32"])


@st.composite
def random_straightline_kernel(draw):
    """A random but *valid* straight-line kernel via the builder."""
    b = KernelBuilder(
        "rk", params=[("out", "u64"), ("n", "u32"), ("s", "f32")]
    )
    out = b.load_param_ptr("out")
    n = b.load_param("n", "u32")
    scalar = b.load_param("s", "f32")
    gid = b.global_thread_id()
    ivals = [gid, n]
    fvals = [scalar]
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["iadd", "imul", "iand", "ishl",
                                     "fadd", "fmul", "ffma", "setp_sel"]))
        if kind == "iadd":
            ivals.append(b.add("u32", draw(st.sampled_from(ivals)),
                               draw(st.integers(0, 1000))))
        elif kind == "imul":
            ivals.append(b.mul("u32", draw(st.sampled_from(ivals)),
                               draw(st.integers(1, 65537))))
        elif kind == "iand":
            ivals.append(b.and_("b32", draw(st.sampled_from(ivals)),
                                draw(st.integers(0, 2**32 - 1))))
        elif kind == "ishl":
            ivals.append(b.shl("b32", draw(st.sampled_from(ivals)),
                               draw(st.integers(0, 15))))
        elif kind == "fadd":
            fvals.append(b.add("f32", draw(st.sampled_from(fvals)),
                               Immediate(draw(st.floats(
                                   -100, 100, allow_nan=False)))))
        elif kind == "fmul":
            fvals.append(b.mul("f32", draw(st.sampled_from(fvals)),
                               draw(st.sampled_from(fvals))))
        elif kind == "ffma":
            fvals.append(b.fma("f32", draw(st.sampled_from(fvals)),
                               draw(st.sampled_from(fvals)),
                               draw(st.sampled_from(fvals))))
        else:
            pred = b.setp(draw(st.sampled_from(
                ["eq", "ne", "lt", "le", "gt", "ge"])),
                "u32", draw(st.sampled_from(ivals)),
                draw(st.sampled_from(ivals)))
            result = b.reg("f32")
            b.emit("selp.f32", result, draw(st.sampled_from(fvals)),
                   draw(st.sampled_from(fvals)), pred)
            fvals.append(result)
    with b.if_less_than(gid, n):
        addr = b.element_addr(out, gid, 4)
        b.st_global("f32", addr, fvals[-1])
    return build_module([b.build()])


class TestPropertyRoundtrip:
    @given(random_straightline_kernel())
    @settings(max_examples=40, deadline=None)
    def test_random_kernels_roundtrip(self, module):
        assert_roundtrips(module)

    @given(st.floats(allow_nan=False, allow_infinity=True, width=32))
    def test_float_immediates_roundtrip(self, value):
        b = KernelBuilder("fk", params=[("out", "u64")])
        out = b.load_param("out", "u64")
        constant = b.mov("f32", Immediate(float(value)))
        b.st_global("f32", out, constant)
        module = build_module([b.build()])
        reparsed = assert_roundtrips(module)
        mov = [i for i in reparsed.kernels["fk"].instructions()
               if i.base_op == "mov"][0]
        parsed_value = mov.operands[1].value
        assert parsed_value == float(value) or (
            math.isnan(parsed_value) and math.isnan(value)
        )

    @pytest.mark.parametrize("text", ["0d4800000000000000",
                                      "0dFE6FFFFFFFFFFFFF",
                                      "0d47EFFFFFF0000000"])
    def test_f64_immediates_beyond_f32_roundtrip(self, text):
        """A double too large for f32 is emitted as ``0d``: parse ->
        emit -> parse keeps the text and the value."""
        source = (".version 7.5\n.target sm_86\n.address_size 64\n\n"
                  ".visible .entry dk()\n{\n\t.reg .f64 \t%fd<2>;\n"
                  f"\tmov.f64 %fd1, {text};\n\tret;\n}}\n")
        module = parse_module(source)
        reparsed = assert_roundtrips(module)
        assert f"mov.f64 %fd1, {text};" in emit_module(reparsed)
        mov, = [i for i in reparsed.kernels["dk"].instructions()
                if i.base_op == "mov"]
        assert mov.operands[1].value == struct.unpack(
            ">d", bytes.fromhex(text[2:]))[0]

    @given(st.integers(min_value=-(2**63), max_value=2**64 - 1))
    def test_int_immediates_roundtrip(self, value):
        b = KernelBuilder("ik", params=[("out", "u64")])
        out = b.load_param("out", "u64")
        constant = b.mov("u64", Immediate(value))
        b.st_global("u64", out, constant)
        reparsed = assert_roundtrips(build_module([b.build()]))
        mov = [i for i in reparsed.kernels["ik"].instructions()
               if i.base_op == "mov"][0]
        assert mov.operands[1].value == value
