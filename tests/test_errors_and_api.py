"""Exception hierarchy and top-level package API tests."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaves = [
            errors.PTXParseError("x"), errors.PTXValidationError("x"),
            errors.MemoryFault(0x100), errors.ExecutionError("x"),
            errors.LaunchError("x"), errors.DriverError("x"),
            errors.RuntimeAPIError("x"), errors.PartitionError("x"),
            errors.AllocationError("x"),
            errors.BoundsViolation("app", 0, 4), errors.PatcherError("x"),
            errors.IPCError("x"),
        ]
        for error in leaves:
            assert isinstance(error, errors.ReproError)

    def test_guardian_errors_grouped(self):
        for cls in (errors.PartitionError, errors.AllocationError,
                    errors.BoundsViolation, errors.PatcherError,
                    errors.IPCError):
            assert issubclass(cls, errors.GuardianError)

    def test_parse_error_carries_line(self):
        error = errors.PTXParseError("bad token", line=42)
        assert error.line == 42
        assert "line 42" in str(error)

    def test_memory_fault_fields(self):
        fault = errors.MemoryFault(0xDEAD0000, 8, "write")
        assert fault.address == 0xDEAD0000
        assert fault.size == 8
        assert "0xdead0000" in str(fault)

    def test_bounds_violation_message(self):
        violation = errors.BoundsViolation("mallory", 0x1000, 256,
                                           detail="H2D destination")
        assert "mallory" in str(violation)
        assert "H2D destination" in str(violation)


class TestPackageAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_roundtrip(self):
        system = repro.GuardianSystem()
        tenant = system.attach("t", 1 << 20)
        assert tenant.runtime.backend is tenant.client
        system.detach("t")
        system.detach("t")  # idempotent

    def test_both_device_specs_exported(self):
        assert repro.QUADRO_RTX_A4000.name == "Quadro RTX A4000"
        assert repro.GEFORCE_RTX_3080TI.name == "GeForce RTX 3080 Ti"

    def test_python_dash_m_repro_self_check(self, capsys):
        """``python -m repro``: one library call and one contained
        attack through the whole stack, kernels on the JIT."""
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "library intercepted, attack contained" in out
