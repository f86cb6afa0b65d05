"""External span wrappers: the per-layer ledger, from outside the program.

The tracer wraps the public entry points of each layer (table below),
from this file, with ``perf_counter_ns`` brackets. It keeps one stack
of open spans; a span's *self time* is its duration minus the time its
wrapped children took, so self times never overlap and, summed over
the layers, account for every nanosecond spent under a root span. The
remainder of a timed round (wall minus root spans) is the harness's
own loop, reported as ``bench.unattributed_share``.

Totals accumulate always; :meth:`Tracer.begin_timed` /
:meth:`Tracer.end_timed` fold the deltas of timed rounds into the
ledger, so warm-up rounds and output checks never count. Every span
(name, start, end, parent) is kept in flat arrays and written out at
exit by :meth:`Tracer.dump`; wrappers observe and never perturb -- the
exact-repeat guard pins that a traced pass reproduces the untraced
pass's modelled cycles and read-back bytes.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

#: Layer = module of the program. Order is the order of the report.
LAYERS = (
    "client", "ipc", "server", "bounds", "allocator", "elastic",
    "tracecache", "telemetry", "patcher", "ptx", "driver",
    "gpu.submit", "gpu.execute", "gpu.timeline", "app",
)

#: Spans written by :meth:`Tracer.dump`, counted from the first timed
#: round (a full storm pass records millions).
SPAN_DUMP_LIMIT = 200_000

_CLIENT_METHODS = (
    "malloc", "free", "memcpy_h2d", "memcpy_d2h", "memcpy_d2d", "memset",
    "register_fatbin", "load_module_ptx", "launch_kernel", "create_stream",
    "synchronize", "device_spec", "get_export_table", "flush",
    "grow_partition", "shrink_partition", "close",
)

#: Every IPC-reachable handler plus the migration endpoints the
#: elastic engine drives.
_SERVER_METHODS = (
    "attach", "detach", "malloc", "free", "memcpy_h2d", "memcpy_d2h",
    "memcpy_d2d", "memset", "launch_kernel", "synchronize",
    "register_fatbin", "load_module_ptx", "create_stream", "get_spec",
    "grow_partition", "shrink_partition", "snapshot_tenant",
    "restore_tenant", "evacuate",
)


def _targets():
    """``(layer, owner, attribute names)`` for methods and
    ``(layer, function)`` for free functions. Imports the program
    here, so importing this module stays free of side effects."""
    from repro.core import (
        allocator, bounds_table, client, elastic, ipc, patcher, server,
        tracecache,
    )
    from repro.driver import api, fatbin, jit
    from repro.gpu import device, executor
    from repro.ptx import emitter, parser, validator
    from repro.telemetry import registry, trace

    driver_calls = tuple(
        name for name, value in vars(api.DriverAPI).items()
        if name.startswith("cu") and callable(value)
    )
    submits = tuple(
        name for name in vars(device.Device) if name.startswith("submit_")
    ) + ("stream_pending",)
    methods = [
        ("client", client.GuardianClient, _CLIENT_METHODS),
        ("client", elastic.ElasticClient, _CLIENT_METHODS),
        ("ipc", ipc.IPCChannel, ("call", "flush")),
        ("server", server.GuardianServer, _SERVER_METHODS),
        ("bounds", bounds_table.PartitionBoundsTable,
         ("register", "remove", "lookup", "read")),
        ("allocator", allocator.GuardianAllocator,
         ("create_partition", "release_partition", "grow_partition",
          "shrink_partition", "malloc", "free", "best_relocation")),
        ("elastic", elastic.ElasticMemoryEngine,
         ("make_room", "ensure_resident", "shrink", "compact", "swap_out")),
        ("tracecache", tracecache.TraceEngine,
         ("offer", "block_boundary", "active_signature", "invalidate")),
        ("telemetry", trace.SpanTracer, ("begin", "end", "emit")),
        ("telemetry", registry.Counter, ("inc",)),
        ("telemetry", registry.Gauge, ("set",)),
        ("telemetry", registry.Histogram, ("observe",)),
        ("patcher", patcher.PTXPatcher, ("patch_text",)),
        ("patcher", patcher.PatchCache, ("get", "put")),
        ("driver", api.DriverAPI, driver_calls),
        ("gpu.submit", device.Device, submits),
        ("gpu.execute", executor.KernelExecutor, ("launch",)),
        ("gpu.timeline", device.Device, ("synchronize",)),
    ]
    functions = [
        ("ptx", parser.parse_module),
        ("ptx", emitter.emit_module),
        ("ptx", validator.validate_module),
        ("driver", fatbin.cuobjdump),
        ("driver", jit.jit_compile),
        ("gpu.execute", executor.compile_kernel),
    ]
    return methods, functions


class Tracer:
    def __init__(self):
        layers = len(LAYERS)
        # Running totals, and the part of them inside timed rounds.
        self.self_ns = [0] * layers
        self.calls = [0] * layers
        self.root_ns = [0]
        self.timed_self_ns = [0] * layers
        self.timed_calls = [0] * layers
        self.timed_root_ns = 0
        self.timed_wall_ns = 0
        #: Work counts the program keeps no public counter for,
        #: observed on the way through a wrapper.
        self.counts = {"ptx.bytes_parsed": 0, "patcher.sites_patched": 0,
                       "gpu.timeline.tasks": 0}
        self.timed_timeline_tasks = 0
        self.pending_max = 0
        self._mark = None
        # The open-span stack: child time so far, and span index.
        self._children: list[int] = []
        self._open: list[int] = []
        # Every span, as columns.
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.windows: list[tuple[int, int]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def spanned(self, layer: str, name: str, function):
        """``function`` bracketed as one span of ``layer``."""
        layer_index = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append(f"{layer}:{name}")
        self.name_layer.append(layer_index)
        self_ns = self.self_ns
        calls = self.calls
        root_ns = self.root_ns
        children = self._children
        open_spans = self._open
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(span_end)
            span_name.append(name_id)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0)
            open_spans.append(index)
            children.append(0)
            start = now()
            span_start.append(start)
            try:
                return function(*args, **kwargs)
            finally:
                end = now()
                span_end[index] = end
                took = end - start
                open_spans.pop()
                self_ns[layer_index] += took - children.pop()
                calls[layer_index] += 1
                if children:
                    children[-1] += took
                else:
                    root_ns[0] += took

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def _counting(self, function, observe):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            observe(args, result)
            return result

        wrapper.__name__ = function.__name__
        return wrapper

    def _observers(self):
        counts = self.counts

        def parsed(args, module):
            counts["ptx.bytes_parsed"] += len(args[0])

        def patched(args, result):
            counts["patcher.sites_patched"] += sum(
                report.sites for report in result[1])

        def resolved(args, result):
            tasks = len(result.task_finish)
            counts["gpu.timeline.tasks"] += tasks
            if tasks > self.pending_max:
                self.pending_max = tasks

        return {"parse_module": parsed, "PTXPatcher.patch_text": patched,
                "Device.synchronize": resolved}

    def install(self) -> None:
        methods, functions = _targets()
        observers = self._observers()

        def wrapped(layer, label, function):
            if label in observers:
                function = self._counting(function, observers[label])
            return self.spanned(layer, label, function)

        for layer, owner, names in methods:
            for name in names:
                original = vars(owner)[name]
                self._replace(owner, name, original, wrapped(
                    layer, f"{owner.__name__}.{name}", original))
        modules = [module for name, module in sys.modules.items()
                   if name.startswith("repro") and module is not None]
        for layer, function in functions:
            wrapper = wrapped(layer, function.__name__, function)
            # ``from x import f`` copies the reference: rebind it in
            # every namespace that holds it.
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is function:
                        self._replace(module, attribute, function, wrapper)

    def _replace(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- timed windows -----------------------------------------------------

    def begin_timed(self) -> None:
        self._mark = (list(self.self_ns), list(self.calls),
                      self.root_ns[0], self.counts["gpu.timeline.tasks"])

    def end_timed(self, wall0: int, wall1: int) -> None:
        self_ns, calls, root_ns, tasks = self._mark
        for index in range(len(LAYERS)):
            self.timed_self_ns[index] += self.self_ns[index] - self_ns[index]
            self.timed_calls[index] += self.calls[index] - calls[index]
        self.timed_root_ns += self.root_ns[0] - root_ns
        self.timed_timeline_tasks += (
            self.counts["gpu.timeline.tasks"] - tasks)
        self.timed_wall_ns += wall1 - wall0
        self.windows.append((wall0, wall1))

    # -- results -----------------------------------------------------------

    def ledger(self) -> dict:
        """Timed self time and wrapped calls per layer, in host us."""
        return {
            "timed_wall_us": self.timed_wall_ns / 1e3,
            "attributed_us": self.timed_root_ns / 1e3,
            "layers": {
                layer: {"calls": self.timed_calls[index],
                        "self_us": self.timed_self_ns[index] / 1e3}
                for index, layer in enumerate(LAYERS)
            },
            "ptx.bytes_parsed": self.counts["ptx.bytes_parsed"],
            "patcher.sites_patched": self.counts["patcher.sites_patched"],
            "gpu.timeline.tasks": self.timed_timeline_tasks,
            "gpu.submit.pending_max": self.pending_max,
            "spans": len(self.span_end),
        }

    def dump(self, path: Path) -> None:
        """Write the spans of the timed rounds (README.md, "Reading
        the span dump"). Times are ns from the first timed round."""
        total = len(self.span_end)
        origin = self.windows[0][0] if self.windows else 0
        first = 0
        while first < total and self.span_start[first] < origin:
            first += 1
        last = min(total, first + SPAN_DUMP_LIMIT)
        # One id per client call: the ordinal of the span's root.
        call = array("i")
        roots = 0
        for index in range(first, last):
            parent = self.span_parent[index]
            if parent < first:
                roots += 1
                call.append(roots)
            else:
                call.append(call[parent - first])
        path.write_text(json.dumps({
            "names": self.names,
            "layers": [LAYERS[index] for index in self.name_layer],
            "spans_total": total,
            "spans_written": last - first,
            "windows_ns": [[start - origin, end - origin]
                           for start, end in self.windows],
            "name": list(self.span_name[first:last]),
            "start_ns": [value - origin
                         for value in self.span_start[first:last]],
            "end_ns": [value - origin for value in self.span_end[first:last]],
            "parent": [max(-1, value - first)
                       for value in self.span_parent[first:last]],
            "call": list(call),
        }))
