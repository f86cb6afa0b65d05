"""Gate the CI bench-smoke job on the emitted BENCH_*.json numbers.

Usage::

    python benchmarks/check_regression.py [BENCH_DIR]

Reads the ``BENCH_*.json`` files the benchmark run emitted into
``BENCH_DIR`` (default: ``GUARDIAN_BENCH_DIR``, else ``bench-results/``,
where the benchmarks write them) and compares them against
``benchmarks/bench_baseline.json``:

- ``hotpath_caching``: the cached-vs-default host-cycle ratio may not
  regress (grow) by more than ``max_regression`` (10%) relative to the
  recorded baseline ratio — the hot-path caches must keep earning
  their keep;
- ``trace_specialization``: the traced-vs-default ratio is held to the
  same relative regression ceiling *and* to an absolute ``max_ratio``
  (0.30) — the trace layer must keep beating the plain hot-path
  caches' 0.40, not merely not get worse;
- ``table5_interception``: the stock per-op costs are pinned exactly —
  any drift from the paper's Table 5 numbers fails the job;
- ``multitenant_scaling``: the concurrent-dispatch makespan speedup at
  8 independent tenants may not drop below the recorded floor — the
  lanes must keep overlapping;
- ``cluster_migration``: the chaos gauntlet's survival floor — zero
  disruptions of tenants on surviving nodes, and at least the
  baseline's number of completed live migrations across the seed
  sweep;
- ``telemetry_overhead``: enabling the telemetry spine may not
  inflate the modelled host-cycle total past ``max_cycle_ratio``
  (the spine observes the clock, it never charges it — the measured
  ratio is exactly 1.0 by construction);
- ``telemetry_wall``: the one wall-clock gate - the median host wall
  ratio of the same workload with telemetry on vs off may not exceed
  ``max_wall_ratio`` (1.30; 1.34 before the record path was cut,
  1.16-1.19 after). A host measurement has no trajectory snapshot, so
  a run that did not emit ``BENCH_telemetry_wall.json`` skips it;
- ``load_slo``: at the pinned open-loop operating point
  (``utilisation`` of the modelled capacity) goodput must stay at or
  above ``min_goodput_per_mcycle`` and the modelled session p99 at or
  below ``max_p99_cycles`` — latency under load must not run away;
- ``elastic_memory``: under the seeded churn trace the elastic arm
  must admit at least ``min_goodput_uplift`` (1.25x) as many sessions
  as the static arm at a shed rate no worse, and the per-access fence
  must still be exactly ``mask_ops_per_access`` (2) mask ops with
  every elastic knob on — capacity recovery may never widen the
  GPUArmor check path.

A measurement missing from ``BENCH_DIR`` falls back to the committed
``benchmarks/trajectory/`` snapshot (the last numbers a maintainer
recorded), so the gate can run against the repo itself and partial
benchmark runs still check everything they can; a measurement found in
*neither* place fails the job (except ``telemetry_wall``, above).

Exit status 0 on pass, 1 on regression or missing inputs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "bench_baseline.json"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory"


def fail(message: str) -> int:
    print(f"REGRESSION: {message}")
    return 1


def load_bench(bench_dir: Path, name: str) -> dict | None:
    """The freshly-emitted measurement, or the committed trajectory
    snapshot when this run didn't produce one."""
    filename = f"BENCH_{name}.json"
    for directory in (bench_dir, TRAJECTORY):
        path = directory / filename
        if path.exists():
            if directory is TRAJECTORY:
                print(f"{name}: using committed trajectory snapshot "
                      f"({path})")
            return json.loads(path.read_text())
    return None


def check_hotpath(measured: dict, baseline: dict) -> int:
    ratio = measured["cached_vs_default_ratio"]
    ceiling = (baseline["cached_vs_default_ratio"]
               * (1.0 + baseline["max_regression"]))
    print(f"hotpath_caching: cached/default ratio {ratio:.4f} "
          f"(baseline {baseline['cached_vs_default_ratio']:.4f}, "
          f"ceiling {ceiling:.4f})")
    if ratio > ceiling:
        return fail(
            f"cached-vs-default ratio {ratio:.4f} exceeds the "
            f"{baseline['max_regression']:.0%} regression ceiling "
            f"{ceiling:.4f}"
        )
    return 0


def check_trace_specialization(measured: dict, baseline: dict) -> int:
    ratio = measured["cached_vs_default_ratio"]
    ceiling = min(
        baseline["cached_vs_default_ratio"]
        * (1.0 + baseline["max_regression"]),
        baseline["max_ratio"],
    )
    print(f"trace_specialization: traced/default ratio {ratio:.4f} "
          f"(baseline {baseline['cached_vs_default_ratio']:.4f}, "
          f"ceiling {ceiling:.4f})")
    if ratio > ceiling:
        return fail(
            f"traced-vs-default ratio {ratio:.4f} exceeds the ceiling "
            f"{ceiling:.4f} (relative regression bound and the "
            f"absolute {baseline['max_ratio']:.2f} bar)"
        )
    return 0


def check_table5(measured: dict, baseline: dict) -> int:
    status = 0
    for key in ("lookup_cycles", "augment_cycles",
                "launch_syscall_cycles"):
        if measured[key] != baseline[key]:
            status = fail(
                f"table5 {key}: measured {measured[key]} != "
                f"pinned {baseline[key]}"
            )
    if not status:
        print("table5_interception: per-op costs match the pinned "
              "paper numbers")
    return status


def check_multitenant(measured: dict, baseline: dict) -> int:
    speedup = measured["speedup_8_tenants"]
    floor = baseline["min_speedup_8_tenants"]
    print(f"multitenant_scaling: 8-tenant modelled speedup "
          f"{speedup:.2f}x (floor {floor:.2f}x)")
    if speedup < floor:
        return fail(
            f"8-tenant modelled speedup {speedup:.2f}x fell below the "
            f"{floor:.2f}x floor"
        )
    return 0


def check_cluster(measured: dict, baseline: dict) -> int:
    disruptions = measured["surviving_tenant_disruptions"]
    completed = measured["migrations_completed"]
    floor = baseline["min_migrations_completed"]
    print(f"cluster_migration: {completed} live migrations across "
          f"seeds {measured['seeds']}, {disruptions} surviving-tenant "
          f"disruption(s)")
    if disruptions != 0:
        return fail(
            f"{disruptions} surviving-tenant disruption(s) — node loss "
            f"must never touch tenants on healthy nodes"
        )
    if completed < floor:
        return fail(
            f"only {completed} completed migration(s), floor is {floor}"
        )
    return 0


def check_telemetry(measured: dict, baseline: dict) -> int:
    ratio = measured["host_cycle_ratio"]
    ceiling = baseline["max_cycle_ratio"]
    print(f"telemetry_overhead: host-cycle ratio {ratio:.6f} "
          f"(ceiling {ceiling:.2f})")
    if ratio > ceiling:
        return fail(
            f"telemetry-on/off host-cycle ratio {ratio:.6f} exceeds "
            f"the {ceiling:.2f} ceiling — telemetry must observe the "
            f"clock, never charge it"
        )
    return 0


def check_telemetry_wall(bench_dir: Path, baseline: dict) -> int:
    path = bench_dir / "BENCH_telemetry_wall.json"
    if not path.exists():
        print("telemetry_wall: not measured in this run (wall clock, "
              "no trajectory snapshot); skipped")
        return 0
    ratio = json.loads(path.read_text())["wall_ratio_median"]
    ceiling = baseline["max_wall_ratio"]
    print(f"telemetry_wall: on/off host wall ratio {ratio:.3f} "
          f"(ceiling {ceiling:.2f})")
    if ratio > ceiling:
        return fail(
            f"telemetry-on/off host wall ratio {ratio:.3f} exceeds the "
            f"{ceiling:.2f} ceiling — the record path got dearer"
        )
    return 0


def check_load_slo(measured: dict, baseline: dict) -> int:
    point = measured["operating_point"]
    if point["utilisation"] != baseline["utilisation"]:
        return fail(
            f"load_slo operating point moved: measured at utilisation "
            f"{point['utilisation']}, gate is pinned at "
            f"{baseline['utilisation']}"
        )
    goodput = point["goodput_per_mcycle"]
    p99 = point["p99_cycles"]
    floor = baseline["min_goodput_per_mcycle"]
    ceiling = baseline["max_p99_cycles"]
    print(f"load_slo: utilisation {point['utilisation']} goodput "
          f"{goodput:.3f}/Mcycle (floor {floor:.3f}), p99 "
          f"{p99:,.0f} cycles (ceiling {ceiling:,.0f})")
    status = 0
    if goodput < floor:
        status = fail(
            f"open-loop goodput {goodput:.3f}/Mcycle fell below the "
            f"{floor:.3f} floor at utilisation {point['utilisation']}"
        )
    if p99 > ceiling:
        status = fail(
            f"open-loop session p99 {p99:,.0f} cycles exceeds the "
            f"{ceiling:,.0f} ceiling at utilisation "
            f"{point['utilisation']}"
        )
    return status


def check_elastic(measured: dict, baseline: dict) -> int:
    uplift = measured["goodput_uplift"]
    floor = baseline["min_goodput_uplift"]
    static_shed = measured["static"]["shed_rate"]
    elastic_shed = measured["elastic"]["shed_rate"]
    mask_ops = measured["fence"]["mask_ops_per_access"]
    pinned_ops = baseline["mask_ops_per_access"]
    print(f"elastic_memory: goodput uplift {uplift:.2f}x (floor "
          f"{floor:.2f}x), shed {elastic_shed:.3f} vs static "
          f"{static_shed:.3f}, fence {mask_ops:g} mask ops/access")
    status = 0
    if uplift < floor:
        status = fail(
            f"elastic goodput uplift {uplift:.2f}x fell below the "
            f"{floor:.2f}x floor under churn"
        )
    if elastic_shed > static_shed:
        status = fail(
            f"elastic shed rate {elastic_shed:.3f} is worse than the "
            f"static arm's {static_shed:.3f} — capacity recovery may "
            f"not trade away the shed-rate SLO"
        )
    if mask_ops != pinned_ops:
        status = fail(
            f"per-access fence is {mask_ops:g} mask ops with elastic "
            f"knobs on; pinned at {pinned_ops} (GPUArmor bar)"
        )
    if not measured["fence"]["patched_text_identical"]:
        status = fail(
            "patched PTX with elastic knobs on differs from stock — "
            "elastic state must live in launch params, not the "
            "instruction stream"
        )
    return status


#: Every gate on a ``BENCH_<section>.json`` measurement, next to the
#: baseline section it reads. A section missing from
#: bench_baseline.json is reported by name up front instead of
#: surfacing as a bare KeyError mid-run.
CHECKS = (
    ("hotpath_caching", check_hotpath),
    ("trace_specialization", check_trace_specialization),
    ("table5_interception", check_table5),
    ("multitenant_scaling", check_multitenant),
    ("cluster_migration", check_cluster),
    ("telemetry_overhead", check_telemetry),
    ("load_slo", check_load_slo),
    ("elastic_memory", check_elastic),
)


def main(argv: list[str]) -> int:
    bench_dir = Path(argv[1] if len(argv) > 1 else os.environ.get(
        "GUARDIAN_BENCH_DIR", "bench-results"))
    baseline = json.loads(BASELINE.read_text())
    missing = [section for section in (*dict(CHECKS), "telemetry_wall")
               if section not in baseline]
    if missing:
        return fail(
            f"bench_baseline.json is missing the baseline section(s) "
            f"{', '.join(missing)} — every gate needs its thresholds "
            f"recorded ({BASELINE})"
        )
    status = 0
    for section, check in CHECKS:
        measured = load_bench(bench_dir, section)
        if measured is None:
            status |= fail(f"BENCH_{section}.json was not emitted and no "
                           f"trajectory snapshot exists")
        else:
            status |= check(measured, baseline[section])
    status |= check_telemetry_wall(bench_dir, baseline["telemetry_wall"])
    if not status:
        print("benchmark smoke: no regressions")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
