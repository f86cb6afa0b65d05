"""``python -m benchmarks.interleave``: a change against its parent in
one process, round by round.

    python -m benchmarks.interleave --parent REV --workload W
                                    [--rounds N] [--seed S]

Exports ``git archive REV`` and the working tree as
:mod:`benchmarks.pairs` does, then imports each tree's ``repro`` and
``benchmarks`` packages under a module table of its own (swapped into
``sys.modules`` while that tree runs, so a lazy import finds its own
tree) and builds the workload once per tree with the ledger worker's
``build``. The two then alternate - ``prepare``, the timed ``round``,
``verify`` - with the parent first on even rounds and the change first
on odd ones, so both see the same drift of the box's clock. Prints the
lower quartile (the ledger's ``host_us_per_call`` estimator) and the
median of each tree's per-call round times and change/parent for both.
Exits 1 unless both trees read back the same bytes (sha256), simulate
the same work (every ``SimTally`` field) and fail no check.

Absolute times read higher than the ledger's (two workloads live in
one process); the ratio is what this is for: it resolves differences
of a few percent that separate processes on a drifting box do not.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger.metrics import lower_quartile
from benchmarks.pairs import export_parent, export_working_tree

#: Top-level packages each tree brings its own copy of.
PACKAGES = ("repro", "benchmarks")


def _owned(name: str) -> bool:
    return name.partition(".")[0] in PACKAGES


class Tree:
    """One source tree's modules, in ``sys.modules`` only while
    :meth:`active`."""

    def __init__(self, root: Path):
        self.paths = [str(root / "src"), str(root)]
        self.modules: dict = {}

    @contextlib.contextmanager
    def active(self):
        outside = {name: module for name, module in sys.modules.items()
                   if _owned(name)}
        for name in outside:
            del sys.modules[name]
        sys.modules.update(self.modules)
        sys.path[:0] = self.paths
        try:
            yield
        finally:
            del sys.path[:len(self.paths)]
            self.modules = {name: module
                            for name, module in sys.modules.items()
                            if _owned(name)}
            for name in self.modules:
                del sys.modules[name]
            sys.modules.update(outside)


class Arm:
    """One tree's workload, its harness and where it is in the run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.tree = Tree(root)
        with self.tree.active():
            worker = importlib.import_module("benchmarks.ledger.worker")
            harness = importlib.import_module("benchmarks.ledger.harness")
            self.harness = harness.Harness(time.perf_counter_ns())
            self.workload, self.rounds, self.warm = worker.build(
                workload, self.harness, seed, 1.0)

    def step(self, index: int) -> None:
        """Round ``index`` as ``harness.drive`` runs it."""
        with self.tree.active():
            harness, workload = self.harness, self.workload
            if index == self.warm:
                harness.start_timing()
            workload.prepare(index)
            if index < self.warm:
                workload.round(index)
            else:
                harness.timed(workload.round, index)
            workload.verify(index)

    def per_call_us(self) -> list[float]:
        return [ns / 1e3 / calls for ns, calls in
                zip(self.harness.round_ns, self.harness.round_calls)]

    def outputs(self) -> tuple[str, dict]:
        """``(sha256 of everything read back, SimTally fields)``."""
        return self.harness.sha.hexdigest(), dict(vars(self.harness.sim))


def summary(parent: list[float], change: list[float]) -> dict:
    """Lower quartile and median of each side's per-call times, and
    change/parent of both: ``{side: (p25, median)}``."""
    sides = {side: (lower_quartile(values), statistics.median(values))
             for side, values in (("parent", parent), ("change", change))}
    sides["change/parent"] = tuple(
        change_value / parent_value for parent_value, change_value
        in zip(sides["parent"], sides["change"]))
    return sides


def render(rows: dict) -> str:
    lines = ["                 p25      median   (us per call)"]
    for side, (p25, median) in rows.items():
        digits = ".3f" if side == "change/parent" else ".2f"
        lines.append(f"  {side:<13} {p25:8{digits}} {median:8{digits}}")
    return "\n".join(lines)


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, metavar="W")
    parser.add_argument("--rounds", type=int, metavar="N",
                        help="timed rounds per tree (default: the "
                             "ledger's)")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    with tempfile.TemporaryDirectory(prefix="interleave-") as scratch:
        roots = {side: Path(scratch) / side for side in ("parent", "change")}
        for root in roots.values():
            root.mkdir()
        export_parent(args.parent, roots["parent"])
        export_working_tree(roots["change"])
        arms = {side: Arm(root, args.workload, args.seed)
                for side, root in roots.items()}
        parent, change = arms["parent"], arms["change"]
        rounds = parent.rounds if args.rounds is None else min(
            args.rounds, parent.rounds)
        for index in range(parent.warm + rounds):
            order = (parent, change) if index % 2 == 0 else (change, parent)
            for arm in order:
                arm.step(index)
    print(f"{args.workload}: {rounds} timed rounds per tree after "
          f"{parent.warm} warm-up, seed {args.seed}, parent {args.parent}")
    print(render(summary(parent.per_call_us(), change.per_call_us())))
    status = 0
    (parent_sha, parent_sim), (change_sha, change_sim) = (
        parent.outputs(), change.outputs())
    print(f"sha256  parent {parent_sha[:12]}  change {change_sha[:12]}")
    print(f"SimTally  parent {parent_sim}\n          change {change_sim}")
    if parent_sha != change_sha or parent_sim != change_sim:
        print("FAILED: the trees read back or simulate different things")
        status = 1
    for side, arm in arms.items():
        if arm.harness.failed:
            print(f"FAILED: {side} failed {arm.harness.failed} check(s): "
                  f"{arm.harness.messages}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
