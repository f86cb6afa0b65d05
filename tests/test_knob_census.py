"""DESIGN.md §15's knob census, executable.

Every field of the config classes below must be set by some caller in
``src/ benchmarks/ examples/`` (tests are not callers: a value only
tests set is a module constant), or be a deployment setting on the
short list below, with its reason. A caller sets a field by passing it
as a keyword to the class or to one of its classmethod presets outside
the class body; a preset's own keywords count where the preset is
called.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, PlacementPolicy
from repro.core.server import ServerConfig

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
CLASSES = (ServerConfig, ClusterConfig, PlacementPolicy)

#: Fields nothing outside tests sets, kept as what a deployment chooses.
DEPLOYMENT_SETTINGS = {
    "ServerConfig.max_resident_tenants":
        "a deployment's capacity; loadgen/driver.py handles the "
        "AdmissionRejected it raises",
    "ClusterConfig.server_config":
        "what every node's server runs; the default is the stock server",
    "ClusterConfig.mode":
        "the fence a fleet runs, which also decides whether it migrates",
}


def _trees():
    for root in CALLERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield ast.parse(path.read_text(), filename=str(path))


def _keywords(call) -> set:
    return {keyword.arg for keyword in call.keywords if keyword.arg}


def census() -> dict:
    """``{"Class.field", ...}`` of every field some caller sets."""
    trees = list(_trees())
    names = {cls.__name__ for cls in CLASSES}
    presets = {}  # (class, method) -> keywords its body passes
    inside = set()  # ids of the nodes within the class bodies
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in names:
                inside.update(id(child) for child in ast.walk(node))
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        presets[node.name, method.name] = set().union(*(
                            _keywords(call) for call in ast.walk(method)
                            if isinstance(call, ast.Call)))
    found = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in inside:
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in names:
                owner, keywords = func.id, _keywords(call)
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in names):
                owner = func.value.id
                keywords = _keywords(call) | presets.get(
                    (owner, func.attr), set())
            else:
                continue
            found.update(f"{owner}.{keyword}" for keyword in keywords)
    return found


@pytest.fixture(scope="module")
def set_by_callers():
    return census()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_has_a_caller(cls, set_by_callers):
    unset = [
        field.name for field in dataclasses.fields(cls)
        if f"{cls.__name__}.{field.name}" not in set_by_callers
        and f"{cls.__name__}.{field.name}" not in DEPLOYMENT_SETTINGS
    ]
    assert not unset, (
        f"{cls.__name__} fields only tests set (make each a module "
        f"constant, or a deployment setting with a reason): {unset}")


def test_deployment_settings_are_current(set_by_callers):
    """Each entry names a field that still exists and still has no
    caller (one that gained a caller leaves the list)."""
    fields = {f"{cls.__name__}.{field.name}" for cls in CLASSES
              for field in dataclasses.fields(cls)}
    assert set(DEPLOYMENT_SETTINGS) <= fields
    assert not set(DEPLOYMENT_SETTINGS) & set_by_callers
