"""Exporter edge cases: label-value escaping, empty registries, and
histogram bucket ordering in the Prometheus text format."""

import json

from repro.obs import MetricsRegistry
from repro.obs.export import render_json, render_prometheus


class TestLabelEscaping:
    def sample_line(self, registry):
        body = [
            line
            for line in render_prometheus(registry).splitlines()
            if not line.startswith("#")
        ]
        assert len(body) == 1
        return body[0]

    def test_quotes_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help", labelnames=("msg",))
        counter.labels(msg='say "hello"').inc()
        assert self.sample_line(registry) == 'c{msg="say \\"hello\\""} 1'

    def test_backslash_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help", labelnames=("path",))
        counter.labels(path="C:\\temp").inc()
        assert self.sample_line(registry) == 'c{path="C:\\\\temp"} 1'

    def test_newline_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help", labelnames=("msg",))
        counter.labels(msg="line1\nline2").inc()
        line = self.sample_line(registry)
        assert line == 'c{msg="line1\\nline2"} 1'
        # The rendered output must stay one sample per line.
        assert "\n" not in line

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "first\nsecond \\ slash").inc()
        (help_line,) = [
            line
            for line in render_prometheus(registry).splitlines()
            if line.startswith("# HELP")
        ]
        assert help_line == "# HELP c first\\nsecond \\\\ slash"


class TestEmptyRegistry:
    def test_empty_registry_renders_empty_string(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_no_registries_renders_empty_string(self):
        assert render_prometheus() == ""

    def test_registered_but_untouched_metric_still_renders_header(self):
        registry = MetricsRegistry()
        registry.counter("c", "help", labelnames=("x",))
        text = render_prometheus(registry)
        assert "# TYPE c counter" in text
        # No children yet: headers only, no samples.
        assert not [
            line for line in text.splitlines() if not line.startswith("#")
        ]

    def test_empty_json_snapshot(self):
        payload = json.loads(render_json(MetricsRegistry(), []))
        assert payload == {"metrics": {}, "traces": []}


class TestHistogramRendering:
    def test_buckets_cumulative_and_ordered(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", "help", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        buckets = [
            line
            for line in text.splitlines()
            if line.startswith("h_bucket")
        ]
        bounds = [
            line.split('le="')[1].split('"')[0] for line in buckets
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        # Ascending bounds ending at +Inf, cumulative counts.
        assert bounds == ["0.1", "1", "10", "+Inf"]
        assert counts == [1, 3, 4, 5]
        assert counts == sorted(counts)
        assert f"h_count 5" in text
        assert "h_sum " in text

    def test_inf_bucket_always_present(self):
        registry = MetricsRegistry()
        registry.histogram("h", "help", buckets=(1.0,)).observe(99.0)
        text = render_prometheus(registry)
        assert 'h_bucket{le="+Inf"} 1' in text
        assert 'h_bucket{le="1"} 0' in text

    def test_labelled_histogram_keeps_le_last(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", "help", labelnames=("stage",), buckets=(1.0,)
        )
        histogram.labels(stage="fanout").observe(0.5)
        text = render_prometheus(registry)
        assert 'h_bucket{stage="fanout",le="1"} 1' in text


class TestMultiRegistry:
    def test_first_registry_wins_on_name_collision(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("c", "from first").inc()
        second.counter("c", "from second").inc(5)
        text = render_prometheus(first, second)
        assert "from first" in text
        assert "from second" not in text
        assert text.count("# TYPE c counter") == 1
