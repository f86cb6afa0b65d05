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


class TestServerConfigValidation:
    """``ServerConfig`` refuses at construction what would otherwise be
    silently dead or fail at first use, all offenders in one error."""

    @pytest.mark.parametrize("knobs, named", [
        (dict(lane_policy="round-robin"), "lane_policy"),
        (dict(defrag_policy="typo"), "defrag_policy"),
        (dict(ipc_shed_overflow=True), "ipc_queue_limit"),
        (dict(oversubscription_ratio=0.5), "oversubscription_ratio=0.5"),
        (dict(trace_hot_threshold=0), "trace_hot_threshold=0"),
        (dict(min_partition_bytes=0), "min_partition_bytes=0"),
    ])
    def test_each_offender_alone(self, knobs, named):
        with pytest.raises(ValueError, match=named):
            repro.ServerConfig(**knobs)

    def test_policy_names_are_checked_with_the_subsystem_off(self):
        """No elastic knob is on, so nothing would ever resolve the
        name; the error still lists what it could have been."""
        with pytest.raises(ValueError, match="'typo'.*never.*threshold"):
            repro.ServerConfig(defrag_policy="typo")

    def test_offenders_are_reported_together(self):
        with pytest.raises(ValueError) as failure:
            repro.ServerConfig.elastic(
                defrag_policy="typo",
                ipc_shed_overflow=True,
                oversubscription_ratio=0.5,
            )
        message = str(failure.value)
        for named in ("defrag_policy", "'typo'", "ipc_shed_overflow=True",
                      "ipc_queue_limit", "oversubscription_ratio=0.5"):
            assert named in message

    def test_defaults_and_presets_are_valid(self):
        for build in (repro.ServerConfig, repro.ServerConfig.hotpath,
                      repro.ServerConfig.concurrent,
                      repro.ServerConfig.traced,
                      repro.ServerConfig.elastic):
            build()
        repro.ServerConfig(ipc_queue_limit=1, ipc_shed_overflow=True)
