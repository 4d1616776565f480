"""repro.obs — observability for the MetaComm update pipeline.

The runtime health plane (see docs/OBSERVABILITY.md for the catalog):

* :mod:`repro.obs.metrics` — a thread-safe registry of Counters, Gauges
  and Histograms with label support, replacing the ad-hoc ``statistics``
  dicts (which survive as live views, :mod:`repro.obs.views`);
* :mod:`repro.obs.trace` — per-update trace spans carried with the
  session from the LTAP trigger to the supplemental LDAP write, stored in
  a bounded ring buffer;
* :mod:`repro.obs.events` — the structured event journal: an append-only
  bounded stream of typed lifecycle events, each carrying its trace id,
  from which single-kind counters and the health board's outcome feed
  are derived;
* :mod:`repro.obs.health` — per-device-link telemetry (rolling latency
  percentiles, error rates, failure streaks) and the derived
  healthy/degraded/unreachable state;
* :mod:`repro.obs.audit` — the background consistency auditor: a
  low-rate ``consistent()`` sampler plus staleness gauges;
* :mod:`repro.obs.alerts` — declarative threshold rules evaluated over
  the registry (``metacomm_alerts_active``);
* :mod:`repro.obs.export` — Prometheus text-format and JSON renderers
  (surfaced by ``python -m repro stats``).

:class:`Observability` bundles one registry + tracer + journal + health
board; every :class:`~repro.core.MetaComm` instance owns its own bundle
so co-hosted systems and tests never share samples.
"""

from __future__ import annotations

from .alerts import AlertEngine, AlertRule, AlertRuleError, default_rules
from .audit import AuditReport, ConsistencyAuditor
from .events import EVENT_KINDS, Event, EventJournal
from .export import render_json, render_prometheus
from .lockwitness import LockWitness, WitnessViolation, witness_system
from .health import (
    DEGRADED,
    HEALTHY,
    UNREACHABLE,
    DeviceHealth,
    HealthBoard,
    HealthPolicy,
    LatencyReservoir,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .trace import OBS_TRACE, Span, Trace, Tracer, trace_span
from .views import StatsView

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "AuditReport",
    "ConsistencyAuditor",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEGRADED",
    "DeviceHealth",
    "EVENT_KINDS",
    "Event",
    "EventJournal",
    "Gauge",
    "HEALTHY",
    "HealthBoard",
    "HealthPolicy",
    "Histogram",
    "LatencyReservoir",
    "LockWitness",
    "MetricsRegistry",
    "OBS_TRACE",
    "Observability",
    "Span",
    "StatsView",
    "Trace",
    "Tracer",
    "UNREACHABLE",
    "WitnessViolation",
    "default_rules",
    "global_registry",
    "render_json",
    "render_prometheus",
    "trace_span",
    "witness_system",
]


class Observability:
    """One system's metrics registry + traces + journal + health board."""

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = 256,
        journal_capacity: int = 1024,
        health_policy: HealthPolicy | None = None,
    ):
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(capacity=trace_capacity, enabled=enabled)
        self.journal = EventJournal(
            capacity=journal_capacity,
            enabled=enabled,
            registry=self.registry,
        )
        self.health = HealthBoard(
            registry=self.registry,
            journal=self.journal,
            policy=health_policy,
            enabled=enabled,
        )

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def disable(self) -> None:
        self.registry.enabled = False
        self.tracer.enabled = False
        self.journal.enabled = False
        self.health.enabled = False

    def enable(self) -> None:
        self.registry.enabled = True
        self.tracer.enabled = True
        self.journal.enabled = True
        self.health.enabled = True

    def prometheus(self, include_global: bool = True) -> str:
        """Prometheus text format for this system (plus the process-wide
        registry, which holds module-level metrics like the lexpress
        instruction counter)."""
        registries = [self.registry]
        if include_global:
            registries.append(global_registry())
        return render_prometheus(*registries)

    def json(self, include_traces: bool = True) -> str:
        return render_json(
            self.registry, self.tracer if include_traces else None
        )
