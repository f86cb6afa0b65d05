"""DESIGN.md §15's knob census, executable.

Every option of the system's config classes, public constructors and
entry points below must be set by some call in ``src/ benchmarks/
examples/`` (tests are not callers: a value only tests set is a module
constant), or be a reasoned keep on the short list below. A call sets
an option by passing it by keyword or by position:

- a config class's classmethod preset called outside the class body
  sets the keywords its own body passes, plus the caller's;
- a subclass's ``super().__init__(...)`` is a call to its base;
- an argument that is the enclosing census target's own optional
  parameter passed through by name (``mode=mode``) sets the option
  only if some call sets the enclosing one, and so does a
  ``**kwargs`` pass-through for each keyword the enclosing target's
  callers put in it.

Out of scope, by design: workload-generator parameters (DESIGN.md §8
makes scale factors explicit constructor parameters) and the cost
tables (``ServerCostModel``, ``IPCCostModel``, ``DriverCostModel``,
``HostCostModel``, ``CostModel``), which are the model itself.
"""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro import GuardianSystem
from repro.cluster import ClusterConfig, PlacementPolicy
from repro.cluster.client import ClusterClient
from repro.core.client import GuardianClient, preload_guardian
from repro.core.elastic import ElasticClient
from repro.core.ipc import IPCChannel
from repro.core.patcher import DiskPatchCache, PatchCache
from repro.core.server import GuardianServer, ServerConfig
from repro.gpu.executor import KernelExecutor
from repro.loadgen.driver import LoadgenConfig
from repro.runtime.backend import NativeBackend
from repro.sharing.deployments import run_deployment
from repro.sharing.mps import MPSClient
from repro.telemetry import Telemetry

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
CONFIGS = (ServerConfig, ClusterConfig, PlacementPolicy, LoadgenConfig)
TARGETS = CONFIGS + (
    GuardianServer, GuardianServer.evacuate, GuardianClient,
    ElasticClient, ClusterClient, preload_guardian, IPCChannel,
    PatchCache, DiskPatchCache, Telemetry, NativeBackend, MPSClient,
    GuardianSystem, run_deployment, KernelExecutor,
)

#: Options nothing outside tests sets, kept with their reason.
REASONED_KEEPS = {
    "ServerConfig.max_resident_tenants":
        "a deployment's capacity; loadgen/driver.py handles the "
        "AdmissionRejected it raises",
    "ClusterConfig.server_config":
        "what every node's server runs; the default is the stock server",
    "ClusterConfig.mode":
        "the fence a fleet runs, which also decides whether it migrates",
    "GuardianSystem.config":
        "the facade's server switches, the same ServerConfig every "
        "benchmark passes to GuardianServer(config=)",
    "GuardianSystem.fault_plan":
        "the facade's fault plan, which brings the supervisor "
        "(DESIGN.md section 6); the cluster builds the same pair",
    "GuardianServer.standalone_native":
        "the paper's native path for a lone tenant (section 4.2.3), "
        "pinned by tests/core/test_server.py",
    "KernelExecutor.use_codegen":
        "selects the reference interpreter the differential tests "
        "compare both engines against",
}


@dataclasses.dataclass
class Target:
    """One census target's call shape."""

    key: str  # "Class", "Class.method" or "function"
    call: str  # the name a call spells
    method: bool  # only ``obj.call(...)`` reaches it
    options: tuple  # what the census counts
    positional: tuple  # names in positional order
    varkw: str | None  # the ``**`` parameter's name

    @classmethod
    def of(cls, obj) -> "Target":
        if dataclasses.is_dataclass(obj):
            names = tuple(field.name for field in dataclasses.fields(obj))
            return cls(obj.__name__, obj.__name__, False, names, names,
                       None)
        function = obj.__init__ if inspect.isclass(obj) else obj
        params = list(inspect.signature(function).parameters.values())
        if inspect.isclass(obj) or "." in obj.__qualname__:
            params = params[1:]  # self
        return cls(
            obj.__qualname__, obj.__name__,
            not inspect.isclass(obj) and "." in obj.__qualname__,
            tuple(p.name for p in params
                  if p.default is not p.empty and p.kind in (
                      p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)),
            tuple(p.name for p in params
                  if p.kind is p.POSITIONAL_OR_KEYWORD),
            next((p.name for p in params if p.kind is p.VAR_KEYWORD),
                 None))

    def option(self, name: str) -> str:
        """The census key a keyword ``name`` sets on this target:
        ``Target.name``, or ``Target.**name`` for one its ``**``
        parameter collects."""
        if name in self.options or self.varkw is None:
            return f"{self.key}.{name}"
        return f"{self.key}.**{name}"


def _parents(tree) -> dict:
    return {id(child): node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _enclosing(node, parents):
    """``(function, class)`` defs innermost around ``node``."""
    function = owner = None
    node = parents.get(id(node))
    while node is not None:
        if function is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        elif function is not None and isinstance(node, ast.ClassDef):
            owner = node
            break
        node = parents.get(id(node))
    return function, owner


def _keywords(call) -> set:
    return {keyword.arg for keyword in call.keywords if keyword.arg}


def _setters(root: Path, targets: list):
    """Every setting call in the caller trees, as ``(option, condition,
    forward)`` rows: ``option`` is set if ``condition`` (an option
    key, or None) is; a ``forward`` of ``(outer, inner)`` instead sets
    ``inner.k`` for every ``outer.**k`` some call sets."""
    by_call = {}
    for target in targets:
        by_call.setdefault(target.call, []).append(target)
    by_key = {target.key: target for target in targets}
    configs = {cls.__name__ for cls in CONFIGS} & set(by_key)
    trees = [ast.parse(path.read_text(), filename=str(path))
             for folder in CALLERS
             for path in sorted((root / folder).rglob("*.py"))]
    presets = {}  # (config class, preset) -> keywords its body passes
    inside = set()  # ids of the nodes within the config class bodies
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in configs:
                inside.update(id(child) for child in ast.walk(node))
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        presets[node.name, method.name] = set().union(*(
                            _keywords(call) for call in ast.walk(method)
                            if isinstance(call, ast.Call)))
    rows = []
    for tree in trees:
        parents = _parents(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in inside:
                continue
            function, owner = _enclosing(call, parents)
            func = call.func
            extra = set()
            if isinstance(func, ast.Name):
                found = [t for t in by_call.get(func.id, ())
                         if not t.method]
            elif (isinstance(func, ast.Attribute)
                  and func.attr == "__init__"
                  and isinstance(func.value, ast.Call)
                  and isinstance(func.value.func, ast.Name)
                  and func.value.func.id == "super" and owner is not None):
                found = [by_key[base.id] for base in owner.bases
                         if isinstance(base, ast.Name)
                         and base.id in by_key]
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and (func.value.id, func.attr) in presets):
                found = [by_key[func.value.id]]
                extra = presets[func.value.id, func.attr]
                call = ast.Call(func=func, args=[], keywords=call.keywords)
            elif isinstance(func, ast.Attribute):
                found = by_call.get(func.attr, [])
            else:
                found = []
            if len(found) != 1:
                continue
            target = found[0]
            rows.extend(_call_rows(target, call, extra, function, owner,
                                   by_key))
    return rows


def _enclosing_target(function, owner, by_key):
    if function is None:
        return None
    if owner is None:
        return by_key.get(function.name)
    if function.name == "__init__":
        return by_key.get(owner.name)
    return by_key.get(f"{owner.name}.{function.name}")


def _call_rows(target, call, extra, function, owner, by_key):
    outer = _enclosing_target(function, owner, by_key)

    def condition(value):
        if (outer is not None and isinstance(value, ast.Name)
                and value.id in outer.options):
            return f"{outer.key}.{value.id}"
        return None

    rows = [(target.option(name), None, None) for name in extra]
    for position, value in enumerate(call.args):
        if isinstance(value, ast.Starred) or position >= len(
                target.positional):
            break
        name = target.positional[position]
        if name in target.options:
            rows.append((target.option(name), condition(value), None))
    for keyword in call.keywords:
        if keyword.arg is not None:
            rows.append((target.option(keyword.arg),
                         condition(keyword.value), None))
        elif (outer is not None and isinstance(keyword.value, ast.Name)
              and keyword.value.id == outer.varkw):
            rows.append((None, None, (outer.key, target)))
    return rows


def census(root: Path = ROOT, objects=TARGETS) -> Counter:
    """``{"Target.option": setting calls}`` for every option some call
    sets, pass-throughs resolved to a fixed point."""
    targets = [Target.of(obj) for obj in objects]
    rows = _setters(root, targets)
    counts = Counter()
    while True:
        found = Counter()
        for option, condition, forward in rows:
            if forward is None:
                if condition is None or counts[condition]:
                    found[option] += 1
                continue
            outer, inner = forward
            prefix = f"{outer}.**"
            for key in list(counts):
                if key.startswith(prefix) and counts[key]:
                    found[inner.option(key[len(prefix):])] += 1
        if found == counts:
            return counts
        counts = found


def options(objects=TARGETS) -> list:
    return [f"{target.key}.{name}" for target in map(Target.of, objects)
            for name in target.options]


@pytest.fixture(scope="module")
def set_by_callers():
    return census()


@pytest.mark.parametrize("obj", TARGETS, ids=lambda obj: obj.__qualname__)
def test_every_field_has_a_caller(obj, set_by_callers):
    unset = [option for option in options([obj])
             if not set_by_callers[option]
             and option not in REASONED_KEEPS]
    assert not unset, (
        f"{obj.__qualname__} options only tests set (make each a "
        f"module constant or derive it, or keep it with a reason): "
        f"{unset}")


def test_deployment_settings_are_current(set_by_callers):
    """Each entry names an option that still exists and still has no
    caller (one that gained a caller leaves the list)."""
    assert set(REASONED_KEEPS) <= set(options())
    assert not {key for key in REASONED_KEEPS if set_by_callers[key]}


def entry(device, mode=None, spec=None, **rest):
    """A stand-in entry point for the test below."""


class Shim:
    """A stand-in constructor for the test below."""

    def __init__(self, device, mode=None, spec=None, attach=True):
        pass


def test_pass_throughs_count_only_when_set(tmp_path):
    """The rules the census counts by, on a tree of its own: a
    positional setter counts, a named or ``**`` pass-through counts
    only when its outer option is set."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "calls.py").write_text(
        "def entry(device, mode=None, spec=None, **rest):\n"
        "    Shim(device, mode, spec=spec, **rest)\n"
        "entry(device, None, attach=False)\n"
        "Shim(device).close()\n")
    assert census(tmp_path, (entry, Shim)) == {
        "entry.mode": 1, "entry.**attach": 1,
        "Shim.mode": 1, "Shim.attach": 1,
    }
