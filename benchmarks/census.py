"""Execution census: which ``src/repro`` functions only tier-1 enters.

    python -m benchmarks.census OUT [--report]

Runs the production set (the bench suite, the five ledger workloads,
the six examples, the fault and cluster gauntlets; the load gauntlet
``test_load_slo.py`` is in the bench suite) and then tier-1 under a
``sys.settrace`` call-event collector, and prints every function
tier-1 enters and production does not (*test-only*), every function
neither enters (*never entered*), and the source lines each owns (the
innermost function around a line owns it). ``--report`` re-reads OUT.

A generated ``OUT/<set>/sitecustomize.py``, first on ``PYTHONPATH``,
arms the collector in every process, subprocesses included; each
writes what it entered to ``OUT/<set>/<pid>.txt`` at exit. Pytest runs
load this module as a plugin that re-arms it before each test phase.
The bench suite runs with ``--benchmark-disable``: pytest-benchmark
unsets ``sys.settrace`` inside every timed call.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "benchmarks.census"]
SETS = {
    "production": [
        PYTEST + ["benchmarks", "--ignore=benchmarks/ledger",
                  "--benchmark-disable"],
        [sys.executable, "-m", "benchmarks.ledger", "--seconds", "1",
         "--no-trace"],
        *([sys.executable, str(example)]
          for example in sorted((ROOT / "examples").glob("*.py"))),
        PYTEST + ["tests/faults/test_gauntlet.py",
                  "tests/cluster/test_cluster_gauntlet.py"],
    ],
    "tier1": [PYTEST],
}

_entered: set = set()


def _on_call(frame, event, arg) -> None:
    _entered.add(frame.f_code)


def arm() -> None:
    if sys.gettrace() is not _on_call:
        sys.settrace(_on_call)


pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = arm


def install(out: str) -> None:
    def dump() -> None:
        sys.settrace(None)
        keys = {_key(code) for code in _entered
                if code.co_filename.startswith(str(SRC))}
        Path(out, f"{os.getpid()}.txt").write_text("\n".join(sorted(keys)))

    atexit.register(dump)
    arm()


def _key(code) -> str:
    return (f"{Path(code.co_filename).relative_to(ROOT)}:"
            f"{code.co_firstlineno}:{code.co_qualname}")


def run(out: Path) -> None:
    for name, commands in SETS.items():
        (out / name).mkdir(parents=True, exist_ok=True)
        (out / name / "sitecustomize.py").write_text(
            "import benchmarks.census\n"
            f"benchmarks.census.install({str(out / name)!r})\n")
        path = os.pathsep.join(map(str, (out / name, ROOT / "src", ROOT)))
        for command in commands:
            print(f"census {name}: {' '.join(command)}", flush=True)
            done = subprocess.run(command, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  env=dict(os.environ, PYTHONPATH=path))
            if done.returncode:
                print(f"  exited {done.returncode}", flush=True)


def owned_lines() -> dict[str, int]:
    """Every function, in file and line order -> the lines it owns."""
    spans = []

    def walk(path: str, code) -> int:
        last = max((line for *_, line in code.co_lines() if line),
                   default=code.co_firstlineno)
        for const in code.co_consts:
            if isinstance(const, type(code)):
                last = max(last, walk(path, const))
        if code.co_name != "<module>":
            spans.append((path, code.co_firstlineno, -last, _key(code)))
        return last

    for path in sorted(SRC.rglob("*.py")):
        walk(str(path), compile(path.read_text(), str(path), "exec"))
    spans.sort()  # outer functions first: an inner one takes its lines
    owner = {(path, line): key for path, first, minus_last, key in spans
             for line in range(first, 1 - minus_last)}
    counts = dict.fromkeys((key for *_, key in spans), 0)
    for key in owner.values():
        counts[key] += 1
    return counts


def report(out: Path) -> None:
    entered = {name: {key for dump in (out / name).glob("*.txt")
                      for key in dump.read_text().split()}
               for name in SETS}
    verdicts = {"test-only": [], "never entered": []}
    for key, lines in owned_lines().items():
        if key not in entered["production"]:
            verdict = ("test-only" if key in entered["tier1"]
                       else "never entered")
            verdicts[verdict].append((key, lines))
    for verdict, rows in verdicts.items():
        print(f"{verdict}: {len(rows)} functions, "
              f"{sum(lines for _, lines in rows)} lines")
    for verdict, rows in verdicts.items():
        print(f"\n{verdict}")
        for key, lines in rows:
            print(f"  {key}  {lines}")


if __name__ == "__main__":
    out = Path(sys.argv[1]).resolve()
    if "--report" not in sys.argv:
        run(out)
    report(out)
