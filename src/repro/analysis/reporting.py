"""Text rendering of paper-style tables.

The benchmark harness prints the same rows the paper's tables and
figure captions report; these helpers keep that output uniform.
"""

from __future__ import annotations

from typing import Sequence

from repro.gpu.specs import ALL_SPECS


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Monospace table with column sizing."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[index]) for row in cells))
        if cells else len(str(header))
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(value.ljust(w) for value, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_spec_table() -> str:
    """The paper's Table 2 for our simulated devices."""
    fields = [
        ("Compute Capability", lambda s: s.compute_capability),
        ("#SMs", lambda s: s.num_sms),
        ("#CUDA cores", lambda s: s.cuda_cores),
        ("L1 (KB)", lambda s: s.l1_kb),
        ("L2 (KB)", lambda s: s.l2_kb),
        ("Global memory (GB)", lambda s: s.global_memory_bytes >> 30),
        ("#Registers / Thread", lambda s: s.registers_per_thread),
        ("PCIe", lambda s: s.pcie),
        ("L1 hit latency (cycles)", lambda s: s.l1_hit_cycles),
        ("L2 hit latency (cycles)", lambda s: s.l2_hit_cycles),
        ("Global memory BW (GB/s)", lambda s: s.global_bw_gbps),
        ("ECC", lambda s: "Yes" if s.ecc else "No"),
    ]
    specs = list(ALL_SPECS.values())
    rows = [
        [label] + [extract(spec) for spec in specs]
        for label, extract in fields
    ]
    return render_table(
        ["Specifications"] + [spec.name for spec in specs], rows,
        title="Table 2: GPU specifications",
    )


#: The qualitative comparison of the paper's Table 6. Guardian is the
#: only row with every property — the claim the feature-matrix
#: benchmark asserts structurally.
FEATURE_MATRIX: dict[str, dict[str, bool]] = {
    "Time-sharing": {
        "no_src_mod": True, "cuda_lib_support": True,
        "no_extra_hw": True, "spatial_sharing": False,
    },
    "MASK": {
        "no_src_mod": True, "cuda_lib_support": True,
        "no_extra_hw": False, "spatial_sharing": True,
    },
    "MIG": {
        "no_src_mod": True, "cuda_lib_support": True,
        "no_extra_hw": False, "spatial_sharing": True,
    },
    "G-NET": {
        "no_src_mod": False, "cuda_lib_support": False,
        "no_extra_hw": True, "spatial_sharing": True,
    },
    "Guardian": {
        "no_src_mod": True, "cuda_lib_support": True,
        "no_extra_hw": True, "spatial_sharing": True,
    },
}


def render_feature_matrix() -> str:
    headers = ["Approach", "No src code mod.", "CUDA lib support",
               "No extra/special HW", "Spatial sharing"]
    rows = []
    for name, features in FEATURE_MATRIX.items():
        rows.append([
            name,
            "yes" if features["no_src_mod"] else "-",
            "yes" if features["cuda_lib_support"] else "-",
            "yes" if features["no_extra_hw"] else "-",
            "yes" if features["spatial_sharing"] else "-",
        ])
    return render_table(headers, rows,
                        title="Table 6: protected GPU sharing approaches")


def render_hotpath_report(metrics, title: str = "Hot-path caches") -> str:
    """Cache hit rates and batching next to the raw cycle totals.

    ``metrics`` is an :class:`repro.analysis.metrics.HotPathMetrics`.
    """
    rows = [
        ["patch cache", metrics.patch_cache_hits,
         metrics.patch_cache_misses, percent(metrics.patch_hit_rate)],
        ["extract memo", metrics.extract_cache_hits,
         metrics.extract_cache_misses, percent(metrics.extract_hit_rate)],
        ["launch fast path", metrics.fastpath_hits,
         metrics.fastpath_misses, percent(metrics.fastpath_hit_rate)],
    ]
    if metrics.trace_eligible_ops:
        # Replays vs interpreted-and-recorded ops: the row only appears
        # when trace specialization actually saw traffic, so reports
        # from trace-off runs are byte-identical to before.
        rows.append([
            "trace replay", metrics.trace_replay_ops,
            metrics.trace_eligible_ops - metrics.trace_replay_ops,
            percent(metrics.trace_replay_rate),
        ])
    table = render_table(["cache", "hits", "misses", "hit rate"], rows,
                         title=title)
    lines = [
        table,
        f"ipc: {metrics.ipc_messages} messages in "
        f"{metrics.ipc_roundtrips} round-trips, "
        f"{metrics.ipc_batches} batches "
        f"(mean batch {metrics.mean_batch_size:.1f})",
        f"cycles: server {metrics.server_cycles:,.0f} + "
        f"clients {metrics.client_cycles:,.0f} = "
        f"{metrics.total_cycles:,.0f}",
    ]
    if metrics.traces_compiled or metrics.trace_invalidations:
        lines.insert(2, (
            f"traces: {metrics.traces_compiled} compiled, "
            f"{metrics.trace_replays} block replays, "
            f"{metrics.trace_invalidations} invalidated "
            f"({metrics.trace_guard_failures} guard failures, "
            f"{metrics.trace_ranges_prechecked} ranges prechecked, "
            f"{metrics.ipc_marshal_cached_calls} cached marshals)"
        ))
    if metrics.patch_disk_hits or metrics.patch_disk_writes:
        lines.insert(2, (
            f"patch disk cache: {metrics.patch_disk_hits} hits, "
            f"{metrics.patch_disk_writes} writes"
        ))
    if metrics.ipc_aborted_batches or metrics.ipc_discarded_calls:
        lines.insert(2, (
            f"ipc aborts: {metrics.ipc_aborted_batches} batches "
            f"discarded ({metrics.ipc_discarded_calls} calls never "
            f"delivered)"
        ))
    return "\n".join(lines)


def render_lane_report(metrics, title: str = "Dispatch lanes") -> str:
    """Per-lane occupancy and the overlap summary.

    ``metrics`` is an :class:`repro.analysis.metrics.LaneMetrics` from
    :func:`repro.analysis.metrics.collect_lanes`.
    """
    rows = [
        [app_id, f"{row['busy']:,.0f}", f"{row['critical']:,.0f}",
         f"{row['stalled']:,.0f}", f"{row['finish']:,.0f}",
         row["ops"], percent(metrics.occupancy(app_id))]
        for app_id, row in sorted(metrics.lanes.items())
    ]
    table = render_table(
        ["lane", "busy", "critical", "stalled", "finish", "ops",
         "occupancy"],
        rows, title=title,
    )
    lines = [
        table,
        f"work {metrics.total_work:,.0f} over makespan "
        f"{metrics.makespan:,.0f} cycles = "
        f"{metrics.speedup:.2f}x modelled speedup "
        f"({percent(metrics.overlap_efficiency)} of "
        f"{metrics.lane_count} lanes)",
        f"critical section: {percent(metrics.critical_share)} of work, "
        f"{metrics.stall_cycles:,.0f} cycles stalled waiting",
    ]
    return "\n".join(lines)


def render_failure_report(metrics, title: str = "Tenant failures") -> str:
    """Fault kinds, supervisor actions, and quarantine outcomes.

    ``metrics`` is an :class:`repro.analysis.metrics.FaultMetrics`.
    """
    kind_rows = sorted(metrics.by_kind.items())
    action_rows = sorted(metrics.by_action.items())
    lines = [
        render_table(["fault kind", "events"], kind_rows, title=title),
        render_table(["supervisor action", "events"], action_rows),
    ]
    if metrics.by_node:
        node_rows = []
        for node_id, bucket in sorted(metrics.by_node.items()):
            score = bucket["failure_domain_score"]
            actions = ", ".join(
                f"{action}={count}"
                for action, count in sorted(bucket["by_action"].items())
            ) or "-"
            node_rows.append((
                node_id,
                bucket["records"],
                "-" if score is None else f"{score:.2f}",
                bucket["health"] or "-",
                actions,
            ))
        lines.append(render_table(
            ["node", "records", "fd score", "health", "actions"],
            node_rows, title="Failure domains",
        ))
    lines += [
        f"retries: {metrics.retries} recovered "
        f"({metrics.retry_attempts} resend attempts, "
        f"success rate {percent(metrics.retry_success_rate)})",
        f"deadline violations: {metrics.deadline_violations}",
        f"quarantines: {metrics.quarantines} "
        f"({metrics.bytes_scrubbed:,} bytes scrubbed)",
        f"fault-handling cycles: {metrics.fault_cycles:,.0f}",
    ]
    if metrics.migrations_completed or metrics.migrations_failed \
            or metrics.evictions:
        lines.append(
            f"migrations: {metrics.migrations_completed} completed, "
            f"{metrics.migrations_failed} failed; "
            f"evictions: {metrics.evictions}"
        )
    for app_id, status in sorted(metrics.tenants.items()):
        if status["quarantined"]:
            lines.append(
                f"  {app_id}: QUARANTINED — {status['reason']} "
                f"(budget spent {status['budget_spent']:.1f})"
            )
        elif status["budget_spent"]:
            lines.append(
                f"  {app_id}: healthy, budget spent "
                f"{status['budget_spent']:.1f}"
            )
    return "\n".join(lines)


def _deploy_path_rows(snapshot: dict) -> list[list]:
    """How much of the deploy path was a bind: per kind (``module``
    loads, charged ``patch`` es) the results the process computed, the
    ones it already had, and the latter's share."""
    totals: dict[str, dict[str, float]] = {}
    for family in snapshot.get("metrics", []):
        if family["name"] != "guardian_deploy_images_total":
            continue
        for series in family["series"]:
            labels = series["labels"]
            totals.setdefault(labels["kind"], {})[labels["outcome"]] = (
                series["value"])
    rows = []
    for kind, counts in sorted(totals.items()):
        built = counts.get("built", 0)
        shared = counts.get("shared", 0)
        rows.append([kind, _quantity(built), _quantity(shared),
                     percent(shared / (built + shared))])
    return rows


def render_telemetry_report(snapshot: dict,
                            title: str = "Telemetry") -> str:
    """Render a dumped :meth:`repro.telemetry.Telemetry.snapshot`.

    This is what ``python -m repro report <snapshot.json>`` prints:
    the histogram families with their p50/p99/p999 quantiles, the
    counter and gauge series, the driver's deploy path (how many module
    loads and patches were binds of a result the process already had)
    and a span summary by category.
    """
    lines = [title]
    meta = snapshot.get("meta") or {}
    if meta:
        lines.append(", ".join(
            f"{key}={value}" for key, value in sorted(meta.items())
        ))
    histogram_rows = []
    counter_rows = []
    gauge_rows = []
    for family in snapshot.get("metrics", []):
        for series in family["series"]:
            labels = ", ".join(
                f"{key}={value}"
                for key, value in sorted(series["labels"].items())
            ) or "-"
            if family["type"] == "histogram":
                quantiles = series["quantiles"]
                histogram_rows.append([
                    family["name"], labels, series["count"],
                    _quantity(quantiles.get("p50")),
                    _quantity(quantiles.get("p99")),
                    _quantity(quantiles.get("p999")),
                    _quantity(series.get("max")),
                ])
            elif family["type"] == "counter":
                counter_rows.append([
                    family["name"], labels, _quantity(series["value"]),
                ])
            else:
                gauge_rows.append([
                    family["name"], labels, _quantity(series["value"]),
                ])
    if histogram_rows:
        lines.append(render_table(
            ["histogram", "labels", "count", "p50", "p99", "p999",
             "max"],
            histogram_rows, title="Latency distributions",
        ))
    if counter_rows:
        lines.append(render_table(
            ["counter", "labels", "total"], counter_rows,
            title="Counters",
        ))
    if gauge_rows:
        lines.append(render_table(
            ["gauge", "labels", "value"], gauge_rows, title="Gauges",
        ))
    deploy_rows = _deploy_path_rows(snapshot)
    if deploy_rows:
        lines.append(render_table(
            ["what", "built", "shared", "shared share"], deploy_rows,
            title="Driver: deploy path (host work, not modelled cycles)",
        ))
    spans = snapshot.get("spans", [])
    if spans:
        by_category: dict[str, list] = {}
        for span in spans:
            bucket = by_category.setdefault(
                span["category"], [0, 0.0]
            )
            bucket[0] += 1
            bucket[1] += span["end"] - span["start"]
        span_rows = [
            [category, count, f"{cycles:,.0f}"]
            for category, (count, cycles)
            in sorted(by_category.items())
        ]
        lines.append(render_table(
            ["span category", "spans", "cycles"], span_rows,
            title="Spans",
        ))
    dropped = snapshot.get("spans_dropped", 0)
    if dropped:
        lines.append(f"spans dropped by the ring bound: {dropped}")
    return "\n\n".join(lines)


def render_slo_report(grades: dict,
                      title: str = "Latency under load") -> str:
    """Render :func:`repro.loadgen.slo.evaluate_slo` output.

    One row per SLO class — offered/completed/shed counts, the p50,
    p99 and p999 modelled session latency against the class target,
    goodput and shed rate — then the overall line. Guarded metrics
    that evaluated to ``None`` render as ``n/a``.
    """
    def cell(value, fmt: str = ",.0f") -> str:
        return "n/a" if value is None else format(value, fmt)

    rows = []
    for name, grade in sorted(grades["classes"].items()):
        rows.append([
            name, grade["offered"], grade["completed"], grade["shed"],
            grade["rejected"],
            cell(grade["p50"]), cell(grade["p99"]),
            cell(grade["p999"]),
            cell(grade["slo_p99_cycles"]),
            cell(grade["goodput_per_mcycle"], ".3f"),
            cell(grade["shed_rate"], ".3f"),
            cell(grade["time_above_slo"], ".3f"),
        ])
    table = render_table(
        ["class", "offered", "done", "shed", "rej", "p50", "p99",
         "p999", "slo p99", "goodput/Mcy", "shed rate", "above slo"],
        rows, title=title,
    )
    overall = grades["overall"]
    lines = [
        table,
        f"overall: {overall['completed']}/{overall['offered']} "
        f"completed ({overall['compliant']} within SLO) over "
        f"{overall['horizon_cycles']:,.0f} virtual cycles; "
        f"goodput {cell(overall['goodput_per_mcycle'], '.3f')}/Mcycle, "
        f"shed rate {cell(overall['shed_rate'], '.3f')}",
    ]
    if overall.get("capacity_peak") is not None:
        lines.append(
            f"capacity: final {overall['capacity_final']} lanes, "
            f"peak {overall['capacity_peak']}"
        )
    return "\n".join(lines)


def _quantity(value) -> str:
    """Compact numeric cell: thousands-grouped, '-' for absent."""
    if value is None:
        return "-"
    if isinstance(value, float) and value != int(value):
        return f"{value:,.1f}"
    return f"{value:,.0f}"


def percent(value: float) -> str:
    return f"{value * 100:.1f}%"


def overhead_vs(base: float, measured: float) -> float:
    """Relative overhead of ``measured`` against ``base``."""
    if base <= 0:
        return 0.0
    return measured / base - 1.0
