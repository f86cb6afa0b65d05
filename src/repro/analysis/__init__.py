"""Measurement and reporting utilities.

:mod:`repro.analysis.metrics` is the Nsight/rdtsc stand-in — it
collects per-kernel cycle counts and cache hit ratios from the
simulator; :mod:`repro.analysis.reporting` renders the paper-style text
tables the benchmark harness prints, reading the counters the server,
the channels and the supervisors keep.
"""

from repro.analysis.metrics import KernelProfile, Profiler
from repro.analysis.reporting import render_failure_report, render_table

__all__ = [
    "KernelProfile",
    "Profiler",
    "render_failure_report",
    "render_table",
]
