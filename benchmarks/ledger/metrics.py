"""Metric and workload names, units, directions and bounds; and how each
value is derived from a worker's raw measurements.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
written out; ``test_ledger.py`` pins that the two agree.
"""

from __future__ import annotations

import statistics

from benchmarks.ledger.tracing import LAYERS

#: ``--seconds`` this many means scale 1.0: the sizes in workloads.py
#: keep the four round-based workloads' timed part near it on the
#: reference box (README.md). ``--seconds S`` scales rounds by S / this.
RUN_SECONDS = 6

#: The traced pass runs at this share of the untraced size.
TRACE_SCALE = 0.25

#: Set-ups per end-to-end measurement; ``setup_s`` is their lower
#: quartile.
SETUP_SAMPLES = 5

WORKLOADS = (
    ("storm_stock",
     "launch storm on the paper's server: per-launch simulator cost and "
     "stock dispatch do the work, trace and telemetry layers none"),
    ("storm_full",
     "the same calls under traced(telemetry=True): batching IPC, trace "
     "record/guard/replay and telemetry work here and not in storm_stock"),
    ("memops_full",
     "seeded-random control-plane ops, no kernels: core and telemetry "
     "dominate, no trace ever forms, so trace offer cost shows as loss"),
    ("mix_train",
     "Table 4 mix A (2 x LeNet training) under guardian: per-thread "
     "simulation is ~98%, interception <1%; the paper's own traffic"),
    ("session_churn",
     "800 sessions over a 17 MiB device under elastic(): attach/detach, "
     "fragmentation, shrink/compact/swap and the PTX deploy path dominate"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

#: (name, unit, better, bound, gated). The five gated ones are
#: ``BENCHMARK.json``'s ``end_to_end``; the other two are printed with
#: them but cannot be gated there: ``sim_instr_per_host_us`` does not
#: exist on a workload without kernels, ``ops_failed_share`` is 0 by
#: design (the contract's ``failed`` / ``attempted`` carries it).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, True),
    ("host_us_per_call", "us", "lower", 0.25, True),
    ("peak_rss_mb", "MB", "lower", 0.10, True),
    ("model_host_cycles_per_call", "cycles", "lower", 0.02, True),
    ("model_device_cycles", "cycles", "lower", 0.02, True),
    ("sim_instr_per_host_us", "1/us", "higher", 0.25, False),
    ("ops_failed_share", "share", "lower", 0.0, False),
)
GATED = tuple(entry for entry in END_TO_END if entry[4])

#: Values a host-side change must leave bit-identical (the
#: exact-repeat guard compares them between repeats and between a
#: traced and an untraced pass of one scale and seed).
EXACT = ("model_host_cycles_per_call", "model_device_cycles",
         "ops_failed_share", "sim_instr", "sha256")

_EXTRAS = (
    ("ipc.mean_batch_size", "count", "higher"),
    ("ipc.marshal_cached_share", "share", "higher"),
    ("server.fastpath_hit_rate", "share", "higher"),
    ("server.transfers_checked", "count", "lower"),
    ("server.transfers_rejected", "count", "lower"),
    ("bounds.epoch_bumps", "count", "lower"),
    ("allocator.fragmentation_score", "share", "higher"),
    ("elastic.shrinks", "count", "lower"),
    ("elastic.compactions", "count", "lower"),
    ("elastic.swaps_out", "count", "lower"),
    ("elastic.swaps_in", "count", "lower"),
    ("tracecache.replay_rate", "share", "higher"),
    ("tracecache.traces_compiled", "count", "higher"),
    ("tracecache.guard_failures", "count", "lower"),
    ("telemetry.spans_emitted", "count", "lower"),
    ("telemetry.spans_dropped", "count", "lower"),
    ("patcher.cache_hit_rate", "share", "higher"),
    ("patcher.sites_patched", "count", "lower"),
    ("ptx.bytes_parsed", "B", "lower"),
    ("driver.modules_loaded", "count", "lower"),
    ("gpu.submit.pending_max", "count", "lower"),
    ("gpu.execute.kernels", "count", "lower"),
    ("gpu.execute.self_us_per_kernel", "us", "lower"),
    ("gpu.execute.sim_instr", "count", "lower"),
    ("gpu.execute.sim_instr_per_host_us", "1/us", "higher"),
    ("gpu.execute.l1_hit_ratio", "share", "higher"),
    ("gpu.timeline.tasks", "count", "lower"),
    ("gpu.timeline.self_us_per_task", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "share", "lower"),
    ("bench.traced_wall_us_per_call", "us", "lower"),
    ("bench.rounds", "count", "higher"),
    ("bench.round_us_per_call_median", "us", "lower"),
    ("bench.round_us_per_call_mean", "us", "lower"),
    ("bench.round_us_per_call_p95", "us", "lower"),
    ("bench.host_cpu_us_per_call", "us", "lower"),
    ("bench.ops_failed_share", "share", "lower"),
)

PER_LAYER = tuple(
    entry
    for layer in LAYERS
    for entry in ((f"{layer}.calls", "count", "lower"),
                  (f"{layer}.self_us_per_call", "us", "lower"),
                  (f"{layer}.share", "share", "lower"))
) + _EXTRAS
UNITS = dict([(name, unit) for name, unit, *_ in END_TO_END]
             + [(name, unit) for name, unit, _ in PER_LAYER])


def benchmark_json() -> dict:
    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in GATED
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def lower_quartile(values: list[float]) -> float:
    """The location estimate of every host-clock sample set here:
    noise on a shared box only ever adds time, in bursts, so the lower
    quartile repeats where the median does not (README.md)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def failed_share(result: dict) -> float:
    return _ratio(result["failed"], result["attempted"])


def end_to_end(result: dict, setup_s: float) -> dict:
    """The seven end-to-end values of one untraced pass."""
    return {
        "setup_s": setup_s,
        "host_us_per_call": result["host_us_per_call"],
        "peak_rss_mb": result["peak_rss_mb"],
        "model_host_cycles_per_call": result["model_host_cycles_per_call"],
        "model_device_cycles": result["model_device_cycles"],
        "sim_instr_per_host_us": _ratio(result["sim_instr"],
                                        result["timed_wall_s"] * 1e6),
        "ops_failed_share": failed_share(result),
    }


def exact_values(result: dict) -> dict:
    values = dict(result, ops_failed_share=failed_share(result))
    return {name: values[name] for name in EXACT}


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer value, from a traced pass and the untraced pass
    of the same scale and seed it is compared against."""
    ledger = traced["layers"]
    counters = traced["counters"]
    calls = traced["calls"]
    wall_us = ledger["timed_wall_us"]
    values = {}
    for layer, entry in ledger["layers"].items():
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_us_per_call"] = entry["self_us"] / calls
        values[f"{layer}.share"] = entry["self_us"] / wall_us

    def counter(name: str) -> float:
        return counters.get(name, 0)

    execute_us = ledger["layers"]["gpu.execute"]["self_us"]
    timeline_us = ledger["layers"]["gpu.timeline"]["self_us"]
    values.update({
        "ipc.mean_batch_size": _ratio(counter("ipc.batched_messages"),
                                      counter("ipc.batches")),
        "ipc.marshal_cached_share": _ratio(
            counter("ipc.marshal_cached_calls"), counter("ipc.messages")),
        "server.fastpath_hit_rate": _ratio(
            counter("server.fastpath_hits"),
            counter("server.fastpath_hits")
            + counter("server.fastpath_misses")),
        "server.transfers_checked": counter("server.transfers_checked"),
        "server.transfers_rejected": counter("server.transfers_rejected"),
        "bounds.epoch_bumps": counter("bounds.epoch_bumps"),
        "allocator.fragmentation_score": counter(
            "allocator.fragmentation_score"),
        "elastic.shrinks": counter("server.partitions_shrunk"),
        "elastic.compactions": counter("server.tenants_compacted"),
        "elastic.swaps_out": counter("server.swaps_out"),
        "elastic.swaps_in": counter("server.swaps_in"),
        "tracecache.replay_rate": _ratio(
            counter("server.trace_replay_ops"),
            counter("server.trace_eligible_ops")),
        "tracecache.traces_compiled": counter("server.traces_compiled"),
        "tracecache.guard_failures": counter("server.trace_guard_failures"),
        "telemetry.spans_emitted": counter("telemetry.spans_emitted"),
        "telemetry.spans_dropped": counter("telemetry.spans_dropped"),
        "patcher.cache_hit_rate": _ratio(
            counter("server.patch_cache_hits"),
            counter("server.patch_cache_hits")
            + counter("server.patch_cache_misses")),
        "patcher.sites_patched": ledger["patcher.sites_patched"],
        "ptx.bytes_parsed": ledger["ptx.bytes_parsed"],
        "driver.modules_loaded": counter("driver.modules_loaded"),
        "gpu.submit.pending_max": ledger["gpu.submit.pending_max"],
        "gpu.execute.kernels": counter("gpu.kernels"),
        "gpu.execute.self_us_per_kernel": _ratio(execute_us,
                                                 counter("gpu.kernels")),
        "gpu.execute.sim_instr": traced["sim_instr"],
        "gpu.execute.sim_instr_per_host_us": _ratio(
            untraced["sim_instr"], untraced["timed_wall_s"] * 1e6),
        "gpu.execute.l1_hit_ratio": _ratio(counter("gpu.l1_hits"),
                                           counter("gpu.accesses")),
        "gpu.timeline.tasks": ledger["gpu.timeline.tasks"],
        "gpu.timeline.self_us_per_task": _ratio(
            timeline_us, ledger["gpu.timeline.tasks"]),
        "bench.trace_overhead_ratio": _ratio(traced["host_us_per_call"],
                                             untraced["host_us_per_call"]),
        "bench.unattributed_share": 1.0 - ledger["attributed_us"] / wall_us,
        # What the layers' self_us_per_call and the unattributed
        # share add up to: a mean, where host_us_per_call is a quartile.
        "bench.traced_wall_us_per_call": wall_us / calls,
        "bench.rounds": untraced["rounds"],
        "bench.round_us_per_call_median": untraced[
            "round_us_per_call_median"],
        "bench.round_us_per_call_mean": untraced["round_us_per_call_mean"],
        "bench.round_us_per_call_p95": untraced["round_us_per_call_p95"],
        "bench.host_cpu_us_per_call": untraced["host_cpu_us_per_call"],
        "bench.ops_failed_share": failed_share(traced),
    })
    return values
