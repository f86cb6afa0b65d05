"""``python -m benchmarks.pairs``: a change against its parent, by the
alternating-pair protocol (choosing-metrics section 8).

    python -m benchmarks.pairs --parent REV [--workload W ...]
                               [--pairs 10 --seeds 20]

Makes two directories - ``git archive REV`` and the working tree's
tracked and untracked-but-not-ignored files - once, and runs
``BENCHMARK.json``'s contract command in each, per workload
(``--workload`` repeats; the default is every workload the benchmark
declares) and once per seed (``--seeds`` is the first), the parent
first on even seeds and the change first on odd ones. Prints every run,
each side's quartiles, the pairs the change won and a verdict per
end-to-end metric against the benchmark's bounds, then one summary row
per (workload, metric). Exits 1 when, on any workload, a ``model_*``
value differs inside a pair (both sides ran the same seed: modelled
values are exact), the change fails a larger share of operations, or a
metric reads worse than its bound allows.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Share of all pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(runs: list[float]) -> list[float]:
    """``[q1, median, q3]``."""
    return statistics.quantiles(runs, n=4, method="inclusive")


def pairs_won(first: list[float], second: list[float], better: str) -> int:
    """Pairs in which ``second`` reads better than ``first``; a tie
    counts for neither side."""
    if better == "lower":
        return sum(b < a for a, b in zip(first, second))
    return sum(b > a for a, b in zip(first, second))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """What ``len(parent)`` pairs of runs say about one metric.

    - ``met``: the change wins at least nine tenths of all pairs (ties
      count for neither side) and the medians are further apart than
      the parent's own quartiles;
    - ``worse``: the change's median is worse than the parent's by
      more than ``bound`` (a fraction of the parent's median);
    - ``worse, inside the bound``: a loss resolved by the same rule as
      a gain, smaller than the bound;
    - ``unresolved``: the parent's runs spread (quartile to quartile)
      wider than the bound, so "no worse than the bound" cannot be told;
    - ``no difference resolved``: inside the bound, neither side wins.
    """
    q1, parent_median, q3 = quartiles(parent)
    gain = parent_median - quartiles(change)[1]
    if better != "lower":
        gain = -gain
    needed = WIN_SHARE * len(parent)
    if pairs_won(parent, change, better) >= needed and gain > q3 - q1:
        return "met"
    if -gain > bound * abs(parent_median):
        return "worse"
    if pairs_won(change, parent, better) >= needed and -gain > q3 - q1:
        return "worse, inside the bound"
    if q3 - q1 > bound * abs(parent_median):
        return "unresolved"
    return "no difference resolved"


def export_parent(rev: str, directory: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive,
                   check=True)


def export_working_tree(directory: Path) -> None:
    """What ``git add -A && git commit`` would record."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = directory / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def contract_run(directory: Path, command: list[str], workload: str,
                 seed: int, seconds: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{directory.name}: {workload} seed {seed} exited "
            f"{done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def report(benchmark: dict, runs: dict[str, list[dict]]
           ) -> tuple[int, list[tuple]]:
    """Print the comparison. Returns the exit status and one summary
    row ``(metric, change/parent median, pairs won, verdict)`` per
    end-to-end metric (``pairs won`` is None for modelled values)."""
    status = 0
    rows = []
    pairs = len(runs["parent"])
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in results]
                  for side, results in runs.items()}
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            print(f"  {side}  " + " ".join(f"{v:.6g}" for v in values[side]))
            print(f"  {side}  q1 / median / q3  "
                  f"{q1:.6g} / {median:.6g} / {q3:.6g}")
        ratio = (quartiles(values["change"])[1]
                 / quartiles(values["parent"])[1])
        if name.startswith("model_"):
            if values["parent"] != values["change"]:
                print("  FAILED: modelled values differ inside a pair")
                status = 1
                rows.append((name, ratio, None, "differs"))
            else:
                print("  identical in every pair")
                rows.append((name, ratio, None, "identical"))
            continue
        won = pairs_won(values["parent"], values["change"],
                        metric["better"])
        said = verdict(values["parent"], values["change"],
                       metric["better"], metric["bound"])
        print(f"  change/parent {ratio:.3f}, pairs won {won}/{pairs}: {said}")
        rows.append((name, ratio, f"{won}/{pairs}", said))
        if said == "worse":
            status = 1
    failed = {side: sum(run["failed"] for run in results)
              / sum(run["attempted"] for run in results)
              for side, results in runs.items()}
    print(f"\nops_failed_share  parent {failed['parent']:.6g}  "
          f"change {failed['change']:.6g}")
    if failed["change"] > failed["parent"]:
        print("  FAILED: the change fails a larger share of operations")
        status = 1
    return status, rows


def summary(rows: dict[str, list[tuple]]) -> str:
    """One line per (workload, metric): the median ratio, the pairs
    won and the verdict."""
    lines = ["summary: workload, metric, change/parent median, pairs won,"
             " verdict"]
    for workload, metrics in rows.items():
        for name, ratio, won, said in metrics:
            lines.append(f"  {workload:<14} {name:<28} {ratio:7.3f}  "
                         f"{won or '-':>6}  {said}")
    return "\n".join(lines)


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", action="append", metavar="W",
                        help="repeatable; default: every workload in "
                             "BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=20, metavar="FIRST")
    return parser.parse_args(argv)


def workloads(args: argparse.Namespace, benchmark: dict) -> list[str]:
    return args.workload or [entry["name"]
                             for entry in benchmark["workloads"]]


def main(argv=None) -> int:
    args = parse(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    rows: dict[str, list[tuple]] = {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        directories = {side: Path(scratch) / side
                       for side in ("parent", "change")}
        for directory in directories.values():
            directory.mkdir()
        export_parent(args.parent, directories["parent"])
        export_working_tree(directories["change"])
        for workload in workloads(args, benchmark):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed in range(args.seeds, args.seeds + args.pairs):
                order = ("parent", "change") if seed % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    run = contract_run(
                        directories[side], benchmark["command"], workload,
                        seed, benchmark["run_seconds"])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}  " + "  ".join(
                        f"{name} {entry['value']:.6g}"
                        for name, entry in run["metrics"].items()),
                        flush=True)
            print(f"\n== {workload}")
            workload_status, rows[workload] = report(benchmark, runs)
            status |= workload_status
    print("\n" + summary(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
