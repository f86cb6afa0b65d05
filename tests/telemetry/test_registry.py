"""MetricsRegistry unit tests: families, quantiles, exposition."""

import json
import math

import pytest

from repro.telemetry.registry import QUANTILES, MetricsRegistry


class TestFamilies:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        calls = registry.counter("calls_total")
        calls.inc(tenant="a")
        calls.inc(2, tenant="a")
        calls.inc(tenant="b")
        assert calls.value(tenant="a") == 3
        assert calls.value(tenant="b") == 1
        assert calls.value(tenant="c") == 0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_keeps_last_write(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3, lane="l0")
        gauge.set(7, lane="l0")
        assert gauge.value(lane="l0") == 7
        assert gauge.value(lane="l1") is None

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_resolved_key_adds_to_the_same_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        key = counter.key(b="2", a="1")
        counter.add(key)
        counter.add(key, 2)
        counter.inc(a="1", b="2")
        assert counter.value(a="1", b="2") == 4
        assert len(counter.series()) == 1
        with pytest.raises(ValueError):
            counter.add(key, -1)


class TestHistogram:
    def test_exact_for_single_value(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(1234.0, tenant="a")
        for q in (0.5, 0.99, 0.999):
            assert hist.quantile(q, tenant="a") == 1234.0

    def test_quantiles_within_bucket_error(self):
        """p50/p99/p999 of a known distribution land within the
        log-linear bucket's ~2.2% relative width."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        values = [float(v) for v in range(1, 10_001)]
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = values[math.ceil(q * len(values)) - 1]
            approx = hist.quantile(q)
            assert abs(approx - exact) / exact < 0.03

    def test_quantiles_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(100.0)
        hist.observe(200.0)
        assert 100.0 <= hist.quantile(0.5) <= 200.0
        assert hist.quantile(0.999) <= 200.0

    def test_empty_series_quantile_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("lat").quantile(0.5, tenant="x") == 0.0

    def test_series_for_is_the_observed_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        series = hist.series_for(tenant="a")
        assert hist.series_for(tenant="a") is series
        series.observe(7.0)
        hist.observe(9.0, tenant="a")
        assert hist.count(tenant="a") == 2
        assert series.total == 16.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_at_record_time(self, bad):
        """A value no bucket can hold fails its own record, names the
        family, and leaves the series (and the family) as they were."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (3.0, 0.5, 1e6):
            hist.observe(value, tenant="a")
        series = hist.series_for(tenant="a")

        def state():
            return (series.count, series.total, series.min, series.max,
                    dict(series.buckets),
                    [series.quantile(q) for q, _ in QUANTILES])

        before = state()
        with pytest.raises(ValueError, match="histogram lat"):
            hist.observe(bad, tenant="a")
        with pytest.raises(ValueError, match="histogram lat"):
            series.observe(bad)
        assert state() == before
        # A label set first seen with a bad value gets no series.
        with pytest.raises(ValueError):
            hist.observe(bad, tenant="b")
        assert [labels for labels, _ in hist.series()] == [{"tenant": "a"}]
        json.dumps(registry.snapshot())
        registry.render_prometheus()

    def test_sub_unit_values_share_zero_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(0.0)
        hist.observe(0.5)
        assert hist.count() == 2
        assert hist.quantile(0.5) == 0.0


class TestSnapshot:
    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c", "help text").inc(tenant="a")
        registry.gauge("g").set(float("inf"), node="n0")
        registry.histogram("h").observe(5.0, tenant="a")
        snapshot = registry.snapshot()
        text = json.dumps(snapshot)  # must not raise
        assert "help text" in text
        by_name = {family["name"]: family for family in snapshot}
        assert by_name["g"]["series"][0]["value"] is None  # inf -> None
        hist_series = by_name["h"]["series"][0]
        assert hist_series["count"] == 1
        assert hist_series["quantiles"]["p50"] == 5.0
        assert hist_series["quantiles"]["p999"] == 5.0

    def test_snapshot_keeps_min_max_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        series = registry.snapshot()[0]["series"][0]
        assert series["min"] == 10.0
        assert series["max"] == 30.0
        assert series["sum"] == 60.0


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", "calls").inc(3, tenant="a")
        registry.gauge("depth").set(2.5, lane="l0")
        text = registry.render_prometheus()
        assert "# HELP calls_total calls" in text
        assert "# TYPE calls_total counter" in text
        assert 'calls_total{tenant="a"} 3' in text
        assert 'depth{lane="l0"} 2.5' in text

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(100.0, tenant="a")
        text = registry.render_prometheus()
        assert "# TYPE lat summary" in text
        assert 'lat{quantile="0.5",tenant="a"} 100' in text
        assert 'lat{quantile="0.999",tenant="a"} 100' in text
        assert 'lat_count{tenant="a"} 1' in text
        assert 'lat_sum{tenant="a"} 100' in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(detail='say "hi"\nbye')
        text = registry.render_prometheus()
        assert r'detail="say \"hi\"\nbye"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_nan_gauge_renders_as_prometheus_nan(self):
        registry = MetricsRegistry()
        registry.gauge("score").set(float("nan"), node="n0")
        registry.gauge("ceiling").set(float("-inf"))
        text = registry.render_prometheus()
        assert 'score{node="n0"} NaN' in text
        assert "ceiling -Inf" in text
        series = registry.snapshot()[0]["series"][0]
        assert series["value"] is None  # JSON-safe, like inf

    def test_nan_gauge_keeps_snapshot_and_report_working(self, tmp_path,
                                                         capsys):
        from repro.__main__ import main
        from repro.telemetry import Telemetry
        from repro.telemetry.export import dump_snapshot

        telemetry = Telemetry()
        telemetry.record_elastic_state(float("nan"), 0)
        path = dump_snapshot(tmp_path / "snap.json", telemetry)
        assert main(["report", str(path), "--prometheus"]) == 0
        assert "guardian_fragmentation_score NaN" in capsys.readouterr().out
