"""Exporters: Prometheus text format and JSON snapshots.

``render_prometheus`` emits the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP`` / ``# TYPE`` headers, one sample per line, histograms expanded
into ``_bucket{le=...}`` / ``_sum`` / ``_count`` series — so the output of
``python -m repro stats`` can be scraped or pasted into promtool as-is.

``render_json`` bundles a metrics snapshot with the journal's traces for
programmatic consumption (dashboards, the experiment harness).
"""

from __future__ import annotations

import json
from typing import Iterable

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import TraceView

__all__ = ["render_prometheus", "render_json"]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render one or more registries as Prometheus text format."""
    lines: list[str] = []
    seen: set[str] = set()
    for registry in registries:
        for metric in registry:
            if metric.name in seen:
                continue  # first registry wins on name collisions
            seen.add(metric.name)
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, child in metric.children():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(metric, (Counter, Gauge)):
                    lines.append(
                        f"{metric.name}{_format_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
                elif isinstance(metric, Histogram):
                    cumulative = child.cumulative()
                    for bound, count in cumulative:
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_format_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{metric.name}_sum{_format_labels(labels)} "
                        f"{repr(child.sum)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_format_labels(labels)} "
                        f"{cumulative[-1][1]}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(
    registry: MetricsRegistry,
    traces: Iterable[TraceView] | None = None,
    indent: int | None = 2,
) -> str:
    """A JSON snapshot of metrics (and, optionally, traces)."""
    payload: dict = {"metrics": registry.snapshot()}
    if traces is not None:
        payload["traces"] = [trace.to_dict() for trace in traces]
    return json.dumps(payload, indent=indent, sort_keys=True)
