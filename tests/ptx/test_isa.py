"""ISA table tests."""

import pytest

from repro.ptx import isa


class TestTypeWidths:
    def test_basic_widths(self):
        assert isa.type_width("u8") == 1
        assert isa.type_width("b16") == 2
        assert isa.type_width("f32") == 4
        assert isa.type_width("u64") == 8
        assert isa.type_width("f64") == 8

    def test_pred_is_one_byte(self):
        assert isa.type_width("pred") == 1

    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            isa.type_width("q128")

    def test_signedness_partition(self):
        # Every non-float, non-pred type is either signed or unsigned.
        for name in isa.TYPE_WIDTHS:
            if name == "pred" or isa.is_float(name):
                continue
            assert (name in isa.SIGNED_TYPES) != (
                name in isa.UNSIGNED_TYPES
            )

    def test_float_types(self):
        assert isa.is_float("f32")
        assert isa.is_float("f64")
        assert not isa.is_float("u32")


class TestOpcodes:
    def test_lookup_by_full_mnemonic(self):
        assert isa.opcode_info("ld.global.u32").name == "ld"
        assert isa.opcode_info("mad.lo.s32").name == "mad"
        assert isa.opcode_info("brx.idx").name == "brx"

    def test_unknown_opcode_raises(self):
        with pytest.raises(KeyError):
            isa.opcode_info("frobnicate.u32")

    def test_memory_ops_flagged(self):
        assert isa.opcode_info("ld").address == 1
        assert isa.opcode_info("atom").address == 1
        assert isa.opcode_info("add").address is None

    def test_control_ops_flagged(self):
        for mnemonic in ("bra", "brx", "ret", "exit", "bar", "call"):
            assert isa.opcode_info(mnemonic).is_control

    def test_store_has_no_dest(self):
        # So its address comes first; ld's follows its destination.
        assert isa.opcode_info("st").address == 0

    def test_every_latency_class_defined(self):
        for op in isa.OPCODES.values():
            assert op.latency_class in isa.LATENCY_CLASSES

    def test_bitwise_cost_is_four_cycles(self):
        # The paper's central constant: AND/OR cost ~4 cycles each,
        # so the two-instruction fence costs ~8 (Fig. 6).
        assert isa.LATENCY_CLASSES["alu"] == 4

    def test_divergent_class_expensive(self):
        # Conditional checks run through the Address Divergence Unit.
        assert isa.LATENCY_CLASSES["divergent"] == 80


class TestStateSpaces:
    def test_off_chip_spaces(self):
        # Only device memory is shared between tenants and fenced.
        assert isa.ROUTES[("ld", "global")] == isa.DEVICE
        assert isa.ROUTES[("st", "shared")] == isa.SHARED
        assert isa.ROUTES[("ld", "param")] == isa.PARAM
        assert ("st", "param") not in isa.ROUTES

    def test_special_registers_contain_thread_ids(self):
        assert "%tid.x" in isa.SPECIAL_REGISTERS
        assert "%ctaid.z" in isa.SPECIAL_REGISTERS
