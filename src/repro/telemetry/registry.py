"""A unified metrics registry: counters, gauges, HDR-style histograms.

Every labelled series lives in one named family; the registry owns the
families and renders them all as a Prometheus-style text exposition or
a JSON-safe snapshot. The histogram is HDR-style log-linear: values
land in geometrically spaced buckets (32 per octave, ~2.2% relative
width), so p50/p99/p999 come out of a sparse dict walk with bounded
relative error and O(1) memory per distinct magnitude — no sample
retention beyond the last :data:`FOLD_BOUND` unread values.

Records are cheap by construction: a hot caller resolves its label set
once (:meth:`Counter.key`, :meth:`Histogram.series_for`) and then bumps
the resolved slot, and a histogram record only appends the value;
readers fold (DESIGN.md §11, "The record path").

Everything here is pure bookkeeping on the modelled numbers; nothing
charges cycles (the telemetry-observes-never-charges rule).
"""

from __future__ import annotations

import collections
import math
from typing import Optional

#: Sub-buckets per octave: 2**(1/32) growth, ≤2.2% quantile error.
_SUB_BUCKETS = 32
_GROWTH_LOG = _SUB_BUCKETS / math.log(2.0)

#: The quantiles the exposition and reports present.
QUANTILES = ((0.5, "p50"), (0.99, "p99"), (0.999, "p999"))

#: Values a histogram series holds unfolded: a record appends, a full
#: list or any read folds. Memory over speed: on the ledger's
#: memops_full workload (2-vCPU Xeon, 3 s runs, seeds 1-3) 4 096 read
#: ~6% less host time per call but 3 MB more peak RSS than 256.
FOLD_BOUND = 256


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _finite(value: float):
    """JSON-safe float (inf/nan become None rather than breaking
    ``json.dumps`` consumers)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class _Family:
    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[tuple, object] = {}

    def series(self) -> list[tuple[dict, object]]:
        return [(dict(key), value) for key, value in self._series.items()]


class Counter(_Family):
    """Monotone event counts per label set."""

    kind = "counter"

    def key(self, **labels) -> tuple:
        """The series key of ``labels``: resolve a label set once, then
        :meth:`add` to it without sorting the labels again."""
        return _label_key(labels)

    def add(self, key: tuple, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        series = self._series
        series[key] = series.get(key, 0.0) + amount

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.add(_label_key(labels), amount)

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)


class Gauge(_Family):
    """Last-written values per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def value(self, **labels) -> Optional[float]:
        return self._series.get(_label_key(labels))


class _HistogramSeries:
    """One label set's log-linear bucket counts.

    :meth:`observe` only appends to a pending list. The pending values
    fold into the buckets, count, sum, min and max when the list holds
    :data:`FOLD_BOUND` of them and before any read, in arrival order,
    so every read (the float sum included) is the one an eager fold
    would give.
    """

    __slots__ = ("family", "_buckets", "_count", "_total", "_min", "_max",
                 "_pending")

    def __init__(self, family: str):
        #: The owning family's name (for error messages).
        self.family = family
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._pending: list[float] = []

    @staticmethod
    def _representative(index: int) -> float:
        if index <= 0:
            return 0.0
        # Geometric midpoint of the bucket's bounds.
        return math.exp((index - 0.5) / _GROWTH_LOG)

    def observe(self, value: float) -> None:
        # Checked here, not at the fold: a value no bucket can hold
        # must fail its own record, not the next read.
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.family}: non-finite value {value!r}")
        pending = self._pending
        pending.append(value)
        if len(pending) >= FOLD_BOUND:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        buckets = self._buckets
        # One log per distinct value, first occurrences first.
        counts = collections.Counter(pending)
        log, growth = math.log, _GROWTH_LOG
        for value, count in counts.items():
            # Sub-unit values share the zero bucket.
            index = 0 if value < 1.0 else 1 + int(log(value) * growth)
            buckets[index] = buckets.get(index, 0) + count
        # A plain loop: builtin sum() compensates on Python 3.12+.
        total = self._total
        for value in pending:
            total += value
        self._total = total
        self._count += len(pending)
        # min()/max() keep the first of equal values, as the pairwise
        # running min/max did; a Counter key is the first of its equals.
        low = min(counts)
        if low < self._min:
            self._min = low
        high = max(counts)
        if high > self._max:
            self._max = high
        pending.clear()

    @property
    def buckets(self) -> dict[int, int]:
        self._fold()
        return self._buckets

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def min(self) -> float:
        self._fold()
        return self._min

    @property
    def max(self) -> float:
        self._fold()
        return self._max

    def quantile(self, q: float) -> float:
        self._fold()
        if not self._count:
            return 0.0
        buckets = self._buckets
        target = max(1, math.ceil(q * self._count))
        seen = 0
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= target:
                # Clamp into the observed range so degenerate series
                # (one value) report exactly that value.
                return min(max(self._representative(index), self._min),
                           self._max)
        return self._max


class Histogram(_Family):
    """HDR-style histograms per label set."""

    kind = "histogram"

    def series_for(self, **labels) -> _HistogramSeries:
        """The series of ``labels``, created if new: resolve a label
        set once, then ``observe`` on the series directly."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(self.name)
        return series

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is not None:
            series.observe(value)
            return
        series = _HistogramSeries(self.name)
        # Stored after the record: a rejected value leaves no series.
        series.observe(value)
        self._series[key] = series

    def quantile(self, q: float, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.quantile(q) if series is not None else 0.0

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0


class MetricsRegistry:
    """Named metric families, created on first use.

    Asking for an existing name with a different type is a programming
    error and raises; asking with the same type returns the existing
    family, so ``registry.counter("x").inc()`` is safe from any site.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._families: dict[str, _Family] = {}

    def _family(self, kind: str, name: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}"
                )
            if help and not family.help:
                family.help = help
            return family
        family = self._KINDS[kind](name, help)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family("counter", name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family("gauge", name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._family("histogram", name, help)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """JSON-safe dump of every family and series."""
        out = []
        for family in self._families.values():
            series = []
            for labels, value in family.series():
                if isinstance(value, _HistogramSeries):
                    series.append({
                        "labels": labels,
                        "count": value.count,
                        "sum": _finite(value.total),
                        "min": _finite(value.min),
                        "max": _finite(value.max),
                        "quantiles": {
                            name: _finite(value.quantile(q))
                            for q, name in QUANTILES
                        },
                    })
                else:
                    series.append({
                        "labels": labels, "value": _finite(value),
                    })
            out.append({
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "series": series,
            })
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (histograms as summaries)."""
        lines: list[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            exposition_type = (
                "summary" if family.kind == "histogram" else family.kind
            )
            lines.append(f"# TYPE {family.name} {exposition_type}")
            for labels, value in family.series():
                if isinstance(value, _HistogramSeries):
                    for q, _ in QUANTILES:
                        quantile_labels = dict(labels)
                        quantile_labels["quantile"] = str(q)
                        lines.append(
                            f"{family.name}"
                            f"{_render_labels(quantile_labels)} "
                            f"{_render_value(value.quantile(q))}"
                        )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} "
                        f"{value.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} "
                        f"{_render_value(value.total)}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_render_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _render_value(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
