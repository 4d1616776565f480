"""Unit tests for the metrics registry (repro.obs.metrics) and exporters."""

import json

import pytest

from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LabelCache,
    MetricsRegistry,
    global_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops", labelnames=("op",))
        counter.labels(op="add").inc()
        counter.labels(op="add").inc()
        counter.labels(op="delete").inc()
        assert registry.value("ops_total", op="add") == 2
        assert registry.value("ops_total", op="delete") == 1
        assert registry.value("ops_total", op="modify") == 0  # never touched
        assert counter.total() == 3

    def test_label_names_enforced(self):
        counter = MetricsRegistry().counter("ops_total", "ops", labelnames=("op",))
        with pytest.raises(ValueError):
            counter.labels(kind="add")


class TestLabelCache:
    def test_binds_each_child_on_first_use(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "events_total", "events", labelnames=("filter", "event")
        )
        cache = LabelCache(counter, filter="pbx")
        assert list(counter.children()) == []  # no series before first use
        cache["applied"].inc()
        cache["applied"].inc(2)
        assert cache["applied"] is counter.labels(filter="pbx", event="applied")
        assert registry.value("events_total", filter="pbx", event="applied") == 3
        assert [key for key, _ in counter.children()] == [("pbx", "applied")]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "queue depth")
        gauge.set(10)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 8


class TestHistogram:
    def test_observe_buckets(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", "latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        cumulative = histogram.cumulative()
        assert cumulative == [(0.1, 1), (1.0, 2), (float("inf"), 3)]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_timer_context_manager(self):
        histogram = MetricsRegistry().histogram("t_seconds", "t")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum > 0

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        second = registry.counter("x_total", "different help, same metric")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labelnames=("b",))

    def test_iteration_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "b")
        registry.counter("a_total", "a")
        assert [m.name for m in registry] == ["a_total", "b_total"]

    def test_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops", labelnames=("op",)).labels(
            op="add"
        ).inc()
        assert registry.value("ops_total", op="add") == 1
        assert registry.value("missing") == 0.0

    def test_disabled_registry_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total", "x", labelnames=("op",))
        counter.labels(op="add").inc(5)
        gauge = registry.gauge("g", "g")
        gauge.set(3)
        histogram = registry.histogram("h_seconds", "h")
        histogram.observe(0.5)
        with histogram.time():
            pass
        assert counter.total() == 0
        assert gauge.value == 0
        assert histogram.count == 0

    def test_global_registry_is_singleton(self):
        assert global_registry() is global_registry()

    def test_snapshot_is_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x").inc()
        registry.histogram("h_seconds", "h", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())


class TestPrometheusRendering:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests served").inc(3)
        registry.gauge("depth", "Queue depth").set(2)
        text = render_prometheus(registry)
        assert "# HELP reqs_total Requests served" in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text

    def test_labels_and_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("q_total", "multi\nline", labelnames=("k",))
        counter.labels(k='a"b').inc()
        text = render_prometheus(registry)
        assert "# HELP q_total multi\\nline" in text
        assert 'q_total{k="a\\"b"} 1' in text

    def test_histogram_expansion(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", "h", buckets=(0.1,)).observe(0.05)
        text = render_prometheus(registry)
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_multiple_registries_first_wins(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("x_total", "x").inc(1)
        second.counter("x_total", "x").inc(99)
        second.counter("y_total", "y").inc(2)
        text = render_prometheus(first, second)
        assert "x_total 1" in text
        assert "x_total 99" not in text
        assert "y_total 2" in text

    def test_json_rendering(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x").inc(7)
        document = json.loads(render_json(registry))
        metric = document["metrics"]["x_total"]
        assert metric["kind"] == "counter"
        assert metric["samples"] == [{"labels": {}, "value": 7}]
