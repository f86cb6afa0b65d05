"""PTX virtual-assembly toolchain.

PTX (Parallel Thread eXecution) is NVIDIA's virtual ISA. It is the one
code representation guaranteed to be present even in closed-source CUDA
libraries (the paper's Table 1), which is why Guardian instruments
kernels at this level.

This package implements a faithful subset of the PTX 7.x text format:

- :mod:`repro.ptx.isa` — opcode, type and state-space tables plus the
  latency class of each opcode (consumed by the GPU cost model);
- :mod:`repro.ptx.ast` — the module/kernel/instruction object model;
- :mod:`repro.ptx.parser` — text to AST;
- :mod:`repro.ptx.emitter` — AST back to text (round-trips with the
  parser);
- :mod:`repro.ptx.validator` — structural validation (declared
  registers, resolvable labels, parameter consistency);
- :mod:`repro.ptx.builder` — a programmatic construction helper used by
  the simulated accelerated libraries to author their kernels;
- :mod:`repro.ptx.textcache` — the byte-bounded, whole-text-keyed cache
  under which the driver JIT and the patch front end keep what a text
  compiles and patches to.
"""

from repro.ptx.ast import (
    Immediate,
    Instruction,
    Kernel,
    Label,
    MemRef,
    Module,
    Param,
    RegDecl,
    Register,
    SpecialReg,
    Symbol,
)
from repro.ptx.emitter import emit_module
from repro.ptx.parser import parse_module
from repro.ptx.validator import validate_module

__all__ = [
    "Immediate",
    "Instruction",
    "Kernel",
    "Label",
    "MemRef",
    "Module",
    "Param",
    "RegDecl",
    "Register",
    "SpecialReg",
    "Symbol",
    "emit_module",
    "parse_module",
    "validate_module",
]
