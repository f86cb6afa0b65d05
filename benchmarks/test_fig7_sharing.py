"""Fig. 7: multi-tenant sharing — Native time-sharing vs MPS vs
Guardian (no protection) vs Guardian (address fencing) over the
Table 4 workload mixes.

Paper shape targets:
- spatial sharing beats native time-sharing (avg ~23% faster for
  fencing, up to ~2x on resource-light mixes like B/D);
- Guardian fencing is a few percent slower than MPS (paper: 4.84%);
- Guardian without protection tracks MPS within a fraction of a
  percent and edges it out on kernel-heavy mixes.
"""

import pytest

from repro.sharing import build_mix, run_deployment

from benchmarks.conftest import (
    FULL,
    MAX_BLOCKS,
    MIX_BATCH,
    MIX_SAMPLES,
    emit_bench_json,
    print_table,
)

MIXES = list("ABCDEFGHIJKLMNOP") if FULL else ["A", "B", "D", "E", "I",
                                               "K", "P"]
DEPLOYMENTS = ("native", "mps", "guardian-noprot", "guardian")


def _run_mix(mix_id):
    return {
        deployment: run_deployment(
            deployment,
            build_mix(mix_id, samples=MIX_SAMPLES, batch=MIX_BATCH),
            max_blocks=MAX_BLOCKS,
        )
        for deployment in DEPLOYMENTS
    }


@pytest.fixture(scope="module")
def sweep():
    """Makespan (s) per mix and deployment. Also written to
    ``BENCH_fig7_sharing.json``, floats as ``repr`` strings: the only
    trajectory snapshot that runs the ``native`` deployment's
    time-sliced timeline."""
    runs = {mix_id: _run_mix(mix_id) for mix_id in MIXES}
    emit_bench_json("fig7_sharing", {
        mix_id: {
            deployment: {
                "makespan_seconds": repr(run.makespan_seconds),
                "device_makespan_seconds": repr(run.device_makespan_seconds),
                "context_switches": run.context_switches,
            }
            for deployment, run in by_deployment.items()
        }
        for mix_id, by_deployment in runs.items()
    })
    return {
        mix_id: {deployment: run.makespan_seconds
                 for deployment, run in by_deployment.items()}
        for mix_id, by_deployment in runs.items()
    }


def test_fig7_sharing(once, sweep):
    results = once(lambda: sweep)
    rows = []
    for mix_id, times in results.items():
        native = times["native"]
        rows.append([
            mix_id,
            f"{native * 1e3:.3f}",
            *(f"{times[d] * 1e3:.3f} ({native / times[d]:.2f}x)"
              for d in DEPLOYMENTS[1:]),
        ])
    print_table(
        "Fig. 7: workload makespan (ms; speedup vs native)",
        ["Mix", "Native TS", "MPS", "Guardian no-prot",
         "Guardian fencing"],
        rows,
    )


def test_fig7_spatial_beats_timesharing(sweep, once):
    once(lambda: None)  # participate under --benchmark-only
    speedups = [times["native"] / times["guardian"]
                for times in sweep.values()]
    average = sum(speedups) / len(speedups)
    # Paper: fencing averages ~23% faster than native time-sharing.
    assert average > 1.05
    assert max(speedups) > 1.4  # resource-light mixes approach 2x


def test_fig7_light_mixes_near_2x(sweep, once):
    """Workloads with more co-located light clients (B) gain more than
    their 2-client versions (A), toward the paper's 2x (§6.1). At the
    default bench scales mix B lands around 1.4x; larger batches push
    it past 1.9x (see tests/sharing and EXPERIMENTS.md)."""
    once(lambda: None)  # participate under --benchmark-only
    if "B" not in sweep or "A" not in sweep:
        pytest.skip("mix subset without A/B")
    gain_b = sweep["B"]["native"] / sweep["B"]["guardian"]
    gain_a = sweep["A"]["native"] / sweep["A"]["guardian"]
    assert gain_b > gain_a
    assert gain_b > 1.3


def test_fig7_guardian_vs_mps_overhead(sweep, once):
    once(lambda: None)  # participate under --benchmark-only
    """Protected spatial sharing costs a few percent over MPS
    (paper: 4.84% on average)."""
    overheads = [times["guardian"] / times["mps"] - 1
                 for times in sweep.values()]
    average = sum(overheads) / len(overheads)
    assert -0.02 < average < 0.12


def test_fig7_noprot_tracks_mps(sweep, once):
    once(lambda: None)  # participate under --benchmark-only
    """Interception alone is MPS-equivalent (paper: 0.05% apart,
    better when thousands of kernels queue)."""
    ratios = [times["guardian-noprot"] / times["mps"]
              for times in sweep.values()]
    average = sum(ratios) / len(ratios)
    assert 0.95 < average < 1.03
