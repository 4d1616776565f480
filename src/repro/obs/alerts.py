"""Declarative alert rules evaluated over the metrics registry.

A rule is a threshold over one metric family, in a tiny Prometheus-like
syntax::

    metacomm_queue_oldest_age_seconds > 5
    metacomm_device_health{device="pbx-west"} >= 1 for 3
    metacomm_audit_last_mismatches > 0

``for N`` requires the condition to hold for N consecutive evaluations
before the alert fires — the "device degraded for more than N probes"
style of rule that avoids flapping on a single bad sample.  Rules with a
label selector match only that child; rules without one match *every*
child of the family independently, so one ``metacomm_device_health >= 2``
rule covers a fleet of any size and fires per device.

The engine keeps pending/active bookkeeping between evaluations, exposes
the live count per rule as ``metacomm_alerts_active{rule=...}`` and the
cumulative count as ``metacomm_alerts_fired_total{rule=...}``, and emits
``alert.raised`` / ``alert.cleared`` journal events on every transition.
Evaluation is driven by the consistency auditor's cycle (or manually via
:meth:`AlertEngine.evaluate`); rules never run on the update hot path.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

from .events import ALERT_CLEARED, ALERT_RAISED, EventJournal
from .metrics import Counter, Gauge

__all__ = [
    "ActiveAlert",
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "default_rules",
]

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    "==": lambda v, t: v == t,
    "!=": lambda v, t: v != t,
}

_RULE_RE = re.compile(
    r"""^\s*
    (?P<metric>[a-zA-Z_:][a-zA-Z0-9_:]*)
    (?:\{(?P<labels>[^}]*)\})?
    \s*(?P<op>>=|<=|==|!=|>|<)\s*
    (?P<value>-?\d+(?:\.\d+)?)
    (?:\s*s)?                       # tolerate a units suffix: "> 5s"
    (?:\s+for\s+(?P<cycles>\d+))?
    \s*$""",
    re.VERBOSE,
)

_LABEL_RE = re.compile(
    r"""\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*
    (?:"(?P<quoted>[^"]*)"|(?P<bare>[^,"]+?))\s*(?:,|$)""",
    re.VERBOSE,
)


class AlertRuleError(ValueError):
    """A rule expression could not be parsed."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold rule."""

    name: str
    metric: str
    op: str
    threshold: float
    #: Label selector; empty = match every child of the family.
    labels: tuple[tuple[str, str], ...] = ()
    #: Consecutive breaching evaluations required before firing.
    for_cycles: int = 1
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise AlertRuleError(f"unknown comparator {self.op!r}")
        if self.for_cycles < 1:
            raise AlertRuleError("for_cycles must be >= 1")

    @classmethod
    def parse(cls, name: str, expr: str, description: str = "") -> "AlertRule":
        """Parse ``metric{label=value} OP number [for N]``."""
        match = _RULE_RE.match(expr)
        if match is None:
            raise AlertRuleError(f"cannot parse alert rule {expr!r}")
        labels: list[tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            consumed = 0
            for label in _LABEL_RE.finditer(raw):
                value = (
                    label.group("quoted")
                    if label.group("quoted") is not None
                    else label.group("bare")
                )
                labels.append((label.group("name"), value))
                consumed = label.end()
            if consumed < len(raw.rstrip()):
                raise AlertRuleError(f"bad label selector in {expr!r}")
        return cls(
            name=name,
            metric=match.group("metric"),
            op=match.group("op"),
            threshold=float(match.group("value")),
            labels=tuple(labels),
            for_cycles=int(match.group("cycles") or 1),
            description=description,
        )

    @property
    def expr(self) -> str:
        selector = ""
        if self.labels:
            inner = ",".join(f'{n}="{v}"' for n, v in self.labels)
            selector = "{" + inner + "}"
        suffix = f" for {self.for_cycles}" if self.for_cycles > 1 else ""
        threshold = (
            int(self.threshold)
            if float(self.threshold).is_integer()
            else self.threshold
        )
        return f"{self.metric}{selector} {self.op} {threshold}{suffix}"

    def breached(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def matches(self, labels: dict[str, str]) -> bool:
        return all(labels.get(n) == v for n, v in self.labels)


@dataclass
class ActiveAlert:
    """One firing alert instance (rule × label combination)."""

    rule: str
    expr: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0
    since: float = 0.0  # epoch seconds of the raise
    cycles: int = 0  # breaching evaluations so far

    def key(self) -> tuple:
        return (self.rule, tuple(sorted(self.labels.items())))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "expr": self.expr,
            "labels": dict(self.labels),
            "value": self.value,
            "since": self.since,
            "cycles": self.cycles,
        }


def default_rules() -> list[AlertRule]:
    """The shipped rule set: staleness, sick links, drift."""
    return [
        AlertRule.parse(
            "queue-backlog",
            "metacomm_queue_oldest_age_seconds > 5",
            "oldest unclaimed update has waited more than 5s",
        ),
        AlertRule.parse(
            "device-degraded",
            "metacomm_device_health >= 1 for 3",
            "device link degraded for 3 consecutive probes",
        ),
        AlertRule.parse(
            "device-unreachable",
            "metacomm_device_health >= 2",
            "device link unreachable (consecutive-failure streak)",
        ),
        AlertRule.parse(
            "audit-mismatch",
            "metacomm_audit_last_mismatches > 0",
            "the consistency auditor found device/directory drift",
        ),
    ]


class AlertEngine:
    """Evaluates a rule set against a registry, tracking transitions."""

    def __init__(self, registry, journal=None, rules=None):
        self.registry = registry
        self.journal = journal or EventJournal(registry=registry)
        self._rules: list[AlertRule] = list(
            rules if rules is not None else ()
        )
        self._lock = threading.Lock()
        self._pending: dict[tuple, int] = {}
        self._active: dict[tuple, ActiveAlert] = {}
        self._active_gauge = registry.gauge(
            "metacomm_alerts_active",
            "Alert instances currently firing, per rule",
            labelnames=("rule",),
        )
        self.journal.derive(
            ALERT_RAISED,
            registry.counter(
                "metacomm_alerts_fired_total",
                "Alert raise transitions, per rule",
                labelnames=("rule",),
            ),
        )

    # -- rule management ---------------------------------------------------

    @property
    def rules(self) -> list[AlertRule]:
        with self._lock:
            return list(self._rules)

    def add_rule(self, rule: AlertRule) -> AlertRule:
        with self._lock:
            if any(r.name == rule.name for r in self._rules):
                raise AlertRuleError(f"duplicate rule name {rule.name!r}")
            self._rules.append(rule)
        # A fresh rule starts visible (and at zero) in the scrape.
        self._active_gauge.labels(rule=rule.name).set(0)
        return rule

    def remove_rule(self, name: str) -> None:
        with self._lock:
            self._rules = [r for r in self._rules if r.name != name]
            for key in [k for k in self._pending if k[0] == name]:
                del self._pending[key]
            for key in [k for k in self._active if k[0] == name]:
                del self._active[key]
        self._active_gauge.labels(rule=name).set(0)

    # -- evaluation --------------------------------------------------------

    def _samples(self, rule: AlertRule) -> list[tuple[dict[str, str], float]]:
        """(labels, value) pairs of the rule's metric family right now."""
        metric = self.registry.get(rule.metric)
        if metric is None or not isinstance(metric, (Counter, Gauge)):
            return []
        out: list[tuple[dict[str, str], float]] = []
        for key, child in metric.children():
            labels = dict(zip(metric.labelnames, key))
            if not rule.matches(labels):
                continue
            out.append((labels, child.value))
        return out

    def evaluate(self) -> list[ActiveAlert]:
        """Run every rule once; returns the alerts active afterwards.

        Transition semantics per (rule, label combination):
        breach → pending count rises; at ``for_cycles`` the alert raises
        (journal event + fired counter).  No breach → pending resets and
        a firing alert clears (journal event).
        """
        raised: list[ActiveAlert] = []
        cleared: list[ActiveAlert] = []
        with self._lock:
            rules = list(self._rules)
        now = time.time()
        for rule in rules:
            breaching: dict[tuple, tuple[dict, float]] = {}
            for labels, value in self._samples(rule):
                if rule.breached(value):
                    key = (rule.name, tuple(sorted(labels.items())))
                    breaching[key] = (labels, value)
            with self._lock:
                # Clear pending/active instances that stopped breaching.
                for key in [
                    k
                    for k in self._pending
                    if k[0] == rule.name and k not in breaching
                ]:
                    del self._pending[key]
                for key in [
                    k
                    for k in self._active
                    if k[0] == rule.name and k not in breaching
                ]:
                    cleared.append(self._active.pop(key))
                # Advance pending counts; raise at the sustain threshold.
                for key, (labels, value) in breaching.items():
                    count = self._pending.get(key, 0) + 1
                    self._pending[key] = count
                    active = self._active.get(key)
                    if active is not None:
                        active.value = value
                        active.cycles = count
                    elif count >= rule.for_cycles:
                        alert = ActiveAlert(
                            rule=rule.name,
                            expr=rule.expr,
                            labels=labels,
                            value=value,
                            since=now,
                            cycles=count,
                        )
                        self._active[key] = alert
                        raised.append(alert)
                active_count = sum(
                    1 for k in self._active if k[0] == rule.name
                )
            self._active_gauge.labels(rule=rule.name).set(active_count)
        for alert in raised:
            self.journal.emit(
                ALERT_RAISED,
                rule=alert.rule,
                expr=alert.expr,
                value=alert.value,
                **alert.labels,
            )
        for alert in cleared:
            self.journal.emit(
                ALERT_CLEARED,
                rule=alert.rule,
                expr=alert.expr,
                **alert.labels,
            )
        return self.active()

    # -- introspection -----------------------------------------------------

    def active(self) -> list[ActiveAlert]:
        with self._lock:
            return sorted(
                self._active.values(), key=lambda a: (a.rule, a.since)
            )

    def is_active(self, rule: str) -> bool:
        with self._lock:
            return any(k[0] == rule for k in self._active)
