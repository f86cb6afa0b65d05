"""Benchmark harness configuration.

Every module regenerates one table or figure of the paper's evaluation
(see DESIGN.md's per-experiment index). Conventions:

- each experiment runs inside ``benchmark.pedantic(..., rounds=1)`` so
  ``pytest benchmarks/ --benchmark-only`` both times it and executes
  the reproduction;
- each experiment *prints* the paper-style rows (captured with ``-s``)
  and *asserts* the paper's qualitative shape (who wins, rough
  factors) — absolute numbers are simulator numbers;
- scale knobs live here; the environment variable
  ``GUARDIAN_BENCH_FULL=1`` switches to the fuller (slower) sweeps.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

#: Fuller sweeps (all 16 mixes, more epochs) when set.
FULL = os.environ.get("GUARDIAN_BENCH_FULL", "") == "1"

#: Device-side block sampling for the big runs.
MAX_BLOCKS = 4

#: Mix samples/batch used by the sharing benchmarks (batch is large so
#: kernels are device-bound as in the paper; sampling keeps it fast).
MIX_SAMPLES = 16
MIX_BATCH = 16


def bench_dir() -> Path:
    """Where the run's ``BENCH_*`` files go: ``GUARDIAN_BENCH_DIR``
    (the CI jobs point it at their artifact upload path), or the
    gitignored ``bench-results/`` - never the checkout itself."""
    directory = Path(os.environ.get("GUARDIAN_BENCH_DIR", "bench-results"))
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` into :func:`bench_dir`. CI diffs
    the emitted numbers against ``benchmarks/bench_baseline.json`` via
    ``benchmarks/check_regression.py``.
    """
    path = bench_dir() / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_table(title: str, headers, rows) -> None:
    from repro.analysis.reporting import render_table

    print()
    print(render_table(headers, rows, title=title))


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
