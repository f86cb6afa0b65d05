"""PTX just-in-time compilation.

The CUDA driver JIT-compiles PTX for the installed GPU when no matching
cuBIN exists (or when ``CUDA_FORCE_PTX_JIT`` forces it — the switch
Guardian depends on so its *patched* PTX, not the stale embedded cuBIN,
is what runs). Our JIT is the simulator's ``ptxas``: parse, validate,
register-allocate and decode every kernel into executable form.

JIT compilation is not free; the paper cites it as the reason the
GuardianServer compiles all sandboxed PTX **at initialisation** rather
than per launch (§4.4). The cost model here charges a per-kernel
compilation cost so that design choice is measurable
(`benchmarks/test_ablation_param_passing.py`).

That cost is what the model *charges*. What this process *computes* is
less: the result of compiling a text depends on the text and the device
model and on nothing about the tenant loading it (base and mask travel
as kernel parameters, module-scope addresses are bound at load), so it
is kept once per process as a :class:`ModuleImage` and every load is a
bind of it - see DESIGN.md section 9, "Deploy front end".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Union

from repro.errors import PTXError
from repro.gpu.codegen import kernel_code
from repro.gpu.executor import CompiledKernel, compile_kernel
from repro.gpu.latency import CostModel
from repro.gpu.specs import DeviceSpec
from repro.ptx.ast import Module
from repro.ptx.parser import parse_module
from repro.ptx.textcache import TextCache
from repro.ptx.validator import validate_module

#: Host-side cost of JIT-compiling one kernel, in CPU cycles. Real
#: ptxas takes milliseconds per kernel; at 3 GHz this is a conservative
#: stand-in used by the ablation benchmarks.
JIT_CYCLES_PER_KERNEL = 3_000_000

#: PTX source bytes whose module images stay cached. An image weighs
#: about 25 times its text, so this is ~50 MB at worst; the largest
#: deployment in the repository (two LeNet trainers, three libraries,
#: original and patched) is 92 KB of distinct text.
IMAGE_CACHE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class CompiledModule:
    """One load's view of a module image, ready to go into a context.

    Shares everything with the image but the kernels' ``global_symbols``
    and the fields below, which belong to this load.
    """

    module: Module
    kernels: dict[str, CompiledKernel]
    #: What this load is charged for JIT (0 when it came from a cuBIN).
    jit_cycles: int
    #: module-scope .global arrays (name -> size bytes), allocated when
    #: the module is loaded into a context.
    global_arrays: Mapping[str, int]
    #: Whether the image was found already built (host-side fact; the
    #: charge above does not depend on it).
    image_shared: bool

    def bind_globals(self, addresses: dict[str, int]) -> None:
        """Resolve .global symbols to device addresses (at load time)."""
        for compiled in self.kernels.values():
            compiled.global_symbols.update(addresses)


@dataclass(frozen=True)
class ModuleImage:
    """What one PTX text compiles to for one device model.

    Immutable and tenant-independent: the parsed and validated module,
    each kernel's decoded instructions, parameter index, shared-memory
    layout, O0 and O3 register allocations and generated code, the
    module's ``.global`` array sizes and its JIT charge. The kernels
    here are prototypes - never launched, never handed out.
    """

    module: Module
    kernels: Mapping[str, CompiledKernel]
    global_arrays: Mapping[str, int]
    jit_cycles: int

    def bind(self, shared: bool) -> CompiledModule:
        """A fresh load of this image: per kernel one new object that
        shares every field but its own, empty, ``global_symbols``."""
        return CompiledModule(
            module=self.module,
            kernels={
                name: dataclasses.replace(prototype, global_symbols={})
                for name, prototype in self.kernels.items()
            },
            jit_cycles=self.jit_cycles,
            global_arrays=self.global_arrays,
            image_shared=shared,
        )


_IMAGES = TextCache(IMAGE_CACHE_BYTES)


def clear_images() -> None:
    """Forget every cached image (tests that want a cold compile)."""
    _IMAGES.clear()


def _build_image(module: Module, spec: DeviceSpec) -> ModuleImage:
    validate_module(module)
    global_arrays = MappingProxyType({
        decl.name: decl.size_bytes for decl in module.globals
    })
    # Generated code is keyed by which symbols a load will bind, not
    # by where: the prototypes carry the names with no addresses.
    unbound = MappingProxyType(dict.fromkeys(global_arrays))
    cost_model = CostModel(spec)
    kernels = {}
    for kernel in module.kernels.values():
        prototype = compile_kernel(kernel, spec, cost_model)
        prototype.global_symbols = unbound
        kernel_code(prototype, cost_model)
        kernels[kernel.name] = prototype
    if not kernels:
        raise PTXError("module contains no kernels")
    return ModuleImage(
        module=module,
        kernels=MappingProxyType(kernels),
        global_arrays=global_arrays,
        jit_cycles=JIT_CYCLES_PER_KERNEL * len(kernels),
    )


def jit_compile(source: Union[str, Module], spec: DeviceSpec,
                parsed: Optional[Module] = None) -> CompiledModule:
    """Compile PTX text (or an already-parsed module) for ``spec``.

    A text is compiled the first time it is seen and bound after that;
    a module object has no content to be found by and is compiled
    every time. ``parsed``, when given, must be ``parse_module(source)``
    - the deploy front end passes the parse it already made for the
    patcher, so a text is parsed once.

    Raises:
        PTXError: on parse or validation failure (what ptxas rejecting
            a malformed module looks like). A failure is not cached:
            the same text raises the same error every time.
    """
    if not isinstance(source, str):
        return _build_image(source, spec).bind(shared=False)
    key = (source, spec)
    image = _IMAGES.get(key)
    if image is not None:
        return image.bind(shared=True)
    if parsed is None:
        parsed = parse_module(source)
    image = _IMAGES.put(key, _build_image(parsed, spec), len(source))
    return image.bind(shared=False)
