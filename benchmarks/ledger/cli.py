"""``python -m benchmarks.ledger``: run the ledger and print every metric.

Two ways in (README.md):

- the whole ledger -- ``python -m benchmarks.ledger --seed N``: each
  workload untraced (``--repeat K`` times), then traced at quarter
  size; every metric printed by name with its unit; non-zero exit on
  any failed output check or exact-repeat mismatch;
- one contract run -- ``--workload W --seed N --seconds S --trace 0|1``
  (what ``BENCHMARK.json``'s driver issues): the same measurement for
  one workload, ending in one JSON object on the last line.

Every workload runs in a fresh single-threaded subprocess
(:mod:`benchmarks.ledger.worker`) with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger import metrics as m

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A worker that runs longer than this is stuck (the slowest, a traced
#: ``mix_train`` replay, takes ~15 s on the reference box).
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, scale: float, traced: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker to completion and return its measurements."""
    command = [
        sys.executable, "-m", "benchmarks.ledger.worker",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
    ]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-ns", str(time.perf_counter_ns())]
    done = subprocess.run(
        command, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise WorkerFailed(
            f"{workload} worker exited {done.returncode}:\n"
            + done.stderr[-2000:])
    return json.loads(done.stdout.splitlines()[-1])


def measure_untraced(workload: str, seed: int, scale: float):
    """One end-to-end measurement: ``(values, worker result)``.

    ``setup_s`` is the lower quartile of ``SETUP_SAMPLES`` set-ups:
    extra workers that stop at their first timed call, then the full
    one.
    """
    setups = [spawn(workload, seed, scale, setup_only=True)["setup_s"]
              for _ in range(m.SETUP_SAMPLES - 1)]
    result = spawn(workload, seed, scale)
    setups.append(result["setup_s"])
    return m.end_to_end(result, m.lower_quartile(setups)), result


def measure_traced(workload: str, seed: int, scale: float):
    """The per-layer ledger: an untraced and a traced pass of one
    scale and seed. Returns ``(values, untraced, traced, mismatches)``."""
    untraced = spawn(workload, seed, scale)
    traced = spawn(workload, seed, scale, traced=True)
    mismatches = exact_mismatches(
        [untraced, traced], f"{workload}: traced vs untraced")
    return m.per_layer(traced, untraced), untraced, traced, mismatches


def exact_mismatches(results: list[dict], what: str) -> list[str]:
    """The exact-repeat guard: modelled values and read-back bytes are
    the same in every pass of one workload, scale and seed."""
    first = m.exact_values(results[0])
    return [
        f"{what}: {name} differs ({first[name]!r} vs {other[name]!r})"
        for other in map(m.exact_values, results[1:])
        for name in m.EXACT if other[name] != first[name]
    ]


def show(name: str, value, note: str = "") -> None:
    print(f"  {name:<36} {value:>16.6g} {m.UNITS[name]:<7}{note}")


def show_failures(result: dict) -> list[str]:
    """Print a pass's failed checks; returns the problem they amount to
    (empty when the pass was clean)."""
    for message in result["failures"]:
        print(f"  FAILED CHECK: {message}")
    if not result["failed"]:
        return []
    return [f"{result['workload']}: {result['failed']} of "
            f"{result['attempted']} operations failed"
            + (" in the traced pass" if result["traced"] else "")]


# --------------------------------------------------------------------------
# One contract run
# --------------------------------------------------------------------------


def contract_run(args, scale: float) -> int:
    workload = args.workload[0]
    if args.trace == 0:
        values, result = measure_untraced(workload, args.seed, scale)
        names = [name for name, *_ in m.GATED]
        attempted, failed = result["attempted"], result["failed"]
        problems: list[str] = []
        print(f"{workload} seed {args.seed} scale {scale:g} "
              f"({result['rounds']} timed rounds, {result['calls']} calls)")
        show_failures(result)
    else:
        values, untraced, traced, problems = measure_traced(
            workload, args.seed, scale * m.TRACE_SCALE)
        names = [name for name, *_ in m.PER_LAYER]
        # Each exact value the traced pass had to reproduce is a check.
        attempted = (untraced["attempted"] + traced["attempted"]
                     + len(m.EXACT))
        failed = untraced["failed"] + traced["failed"] + len(problems)
        print(f"{workload} seed {args.seed} traced at scale "
              f"{scale * m.TRACE_SCALE:g}; spans in {traced['spans_file']}")
        show_failures(untraced)
        show_failures(traced)
    for name in names:
        show(name, values[name])
    for problem in problems:
        print(f"  EXACT-REPEAT MISMATCH: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": m.UNITS[name]}
                    for name in names},
    }))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# The whole ledger
# --------------------------------------------------------------------------


def ledger_run(args, scale: float) -> int:
    workloads = args.workload or list(m.WORKLOAD_NAMES)
    problems: list[str] = []
    record = {"seed": args.seed, "scale": scale, "repeat": args.repeat,
              "workloads": {}}
    host_us = {}
    print(f"ledger: seed {args.seed}, scale {scale:g}"
          + ("" if scale == 1.0 else "  ** SCALED: not baseline numbers **"))
    for workload in workloads:
        runs = [measure_untraced(workload, args.seed, scale)
                for _ in range(args.repeat)]
        results = [result for _, result in runs]
        problems += exact_mismatches(results, f"{workload}: repeats")
        for result in results:
            problems += show_failures(result)
        first = results[0]
        print(f"\n{workload}: end to end (host_us_per_call = lower "
              f"quartile of {first['rounds']} timed rounds; sha256 "
              f"{first['sha256'][:12]})")
        entry = record["workloads"][workload] = {"end_to_end": {}}
        for name, _, _, bound, gated in m.END_TO_END:
            samples = [values[name] for values, _ in runs]
            middle = statistics.median(samples)
            note = "" if gated else "  (not gated)"
            if len(samples) > 1:
                low, _, high = statistics.quantiles(samples, n=4)
                wide = (high - low) / middle if middle else 0.0
                note += f"  q1 {low:.6g} q3 {high:.6g} spread {wide:.2%}"
                if wide > bound:
                    note += f"  ** wider than its bound {bound:.1%} **"
            show(name, middle, note)
            entry["end_to_end"][name] = samples
        host_us[workload] = entry["end_to_end"]["host_us_per_call"]
        if args.no_trace:
            continue
        values, untraced, traced, mismatches = measure_traced(
            workload, args.seed, scale * m.TRACE_SCALE)
        problems += mismatches
        problems += show_failures(untraced) + show_failures(traced)
        print(f"{workload}: per layer (traced at scale "
              f"{scale * m.TRACE_SCALE:g}; spans in {traced['spans_file']})")
        for name, *_ in m.PER_LAYER:
            show(name, values[name])
        entry["per_layer"] = values
    if "storm_stock" in host_us and "storm_full" in host_us:
        # ROADMAP item 1's gate. A diagnostic, not an end-to-end
        # metric: a pure simulator speed-up lowers both arms equally
        # and would worsen it.
        ratio = (statistics.median(host_us["storm_full"])
                 / statistics.median(host_us["storm_stock"]))
        print(f"\nbench.storm_full_vs_stock_ratio {ratio:.4f} ratio")
        record["storm_full_vs_stock_ratio"] = ratio
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"ledger-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=m.WORKLOAD_NAMES,
                        action="append",
                        help="run only this workload; repeat the flag to "
                             "pick several and their order (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=m.RUN_SECONDS,
                        help=f"measuring time the sizes are scaled to "
                             f"({m.RUN_SECONDS} = scale 1.0)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's rounds (recorded "
                             "in the output)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract run of --workload: 0 end-to-end "
                             "metrics, 1 per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced passes per workload; prints median "
                             "and quartiles")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass")
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.repeat < 1 or args.scale <= 0 or args.seconds <= 0:
        parser.error("--repeat, --scale and --seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.ledger: the program is not at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scale = args.scale * args.seconds / m.RUN_SECONDS
    try:
        if args.trace is not None:
            return contract_run(args, scale)
        return ledger_run(args, scale)
    except WorkerFailed as failure:
        print(f"benchmarks.ledger: {failure}", file=sys.stderr)
        return 3
