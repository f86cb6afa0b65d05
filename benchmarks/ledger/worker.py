"""One workload, one fresh single-threaded process.

``python -m benchmarks.ledger.worker --workload W --seed N --scale F
--spawned-ns T [--traced] [--setup-only]`` runs the workload and prints
one JSON object on its last line: the raw measurements
:mod:`benchmarks.ledger.cli` turns into named metrics. ``--spawned-ns``
is the parent's ``perf_counter_ns`` just before the spawn, so
``setup_s`` covers interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def build(name: str, harness, seed: int, scale: float):
    """``(workload, timed rounds, warm-up rounds)`` for one name."""
    from benchmarks.ledger import workloads as w

    if name in ("storm_stock", "storm_full"):
        config = w.stock_config() if name == "storm_stock" else w.full_config()
        rounds = w.scaled(w.Storm.ROUNDS, scale, 4)
        return w.Storm(harness, config, seed), rounds, w.warm_rounds(rounds)
    if name == "memops_full":
        rounds = w.scaled(w.Memops.ROUNDS, scale, 4)
        return (w.Memops(harness, w.full_config(), seed), rounds,
                w.warm_rounds(rounds))
    if name == "mix_train":
        rounds = w.scaled(w.MixTrain.ROUNDS, scale, 1)
        return w.MixTrain(harness, seed), rounds, w.MixTrain.WARM
    if name == "session_churn":
        sessions = w.scaled(w.SessionChurn.SESSIONS, scale, 8)
        per_slice = max(1, sessions // w.SessionChurn.SLICES)
        rounds = sessions // per_slice
        warm = max(1, round(rounds * w.WARM_SHARE))
        return (w.SessionChurn(harness, seed, rounds + warm, per_slice),
                rounds, warm)
    raise SystemExit(f"unknown workload {name!r}")


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.ledger.harness import Harness, SetupOnly, drive
    from benchmarks.ledger.metrics import lower_quartile

    tracer = None
    if args.traced:
        from benchmarks.ledger.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    harness = Harness(args.spawned_ns, tracer, args.setup_only)
    try:
        workload, rounds, warm = build(args.workload, harness, args.seed,
                                       args.scale)
        try:
            drive(harness, workload, rounds, warm)
        except SetupOnly:
            return {"workload": args.workload,
                    "setup_s": harness.setup_ns / 1e9}
        tally = workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()

    wall_ns = sum(harness.round_ns)
    calls = sum(harness.round_calls)
    per_call_us = [ns / 1e3 / n for ns, n in
                   zip(harness.round_ns, harness.round_calls)]
    messages = tally.get("ipc.messages")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": args.traced,
        "setup_s": harness.setup_ns / 1e9,
        "rounds": len(per_call_us),
        "calls": calls,
        "timed_wall_s": wall_ns / 1e9,
        "host_us_per_call": lower_quartile(per_call_us),
        "round_us_per_call_median": statistics.median(per_call_us),
        "round_us_per_call_mean": statistics.fmean(per_call_us),
        "round_us_per_call_p95": quantile(per_call_us, 0.95),
        "host_cpu_us_per_call": harness.cpu_ns / 1e3 / calls,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_instr": harness.sim.instructions,
        "model_host_cycles_per_call": (
            tally.get("server.cycles") + tally.get("ipc.client_cycles")
        ) / messages,
        "model_device_cycles": tally.get("device.clock_cycles"),
        "sha256": harness.sha.hexdigest(),
        "attempted": harness.attempted,
        "failed": harness.failed,
        "failures": harness.messages,
        "counters": dict(
            tally.values,
            **{"allocator.fragmentation_score": tally.fragmentation_score,
               "gpu.kernels": harness.sim.kernels,
               "gpu.l1_hits": harness.sim.l1_hits,
               "gpu.accesses": harness.sim.accesses}),
    }
    if tracer is not None:
        result["layers"] = tracer.ledger()
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-ns", type=int,
                        default=time.perf_counter_ns())
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
