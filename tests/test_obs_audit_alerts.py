"""The alert-rule engine and the background consistency auditor —
including the acceptance scenario: deliberate device/directory drift is
detected, alerted, and journalled within one audit cycle, then clears
after a sync repair."""

import pytest

from repro.obs import (
    AlertEngine,
    AlertRule,
    AlertRuleError,
    EventJournal,
    MetricsRegistry,
    default_rules,
)


class TestAlertRuleParsing:
    def test_simple_threshold(self):
        rule = AlertRule.parse("r", "metacomm_queue_depth > 10")
        assert rule.metric == "metacomm_queue_depth"
        assert rule.op == ">"
        assert rule.threshold == 10.0
        assert rule.labels == ()
        assert rule.for_cycles == 1

    def test_label_selector_and_sustain(self):
        rule = AlertRule.parse(
            "r", 'metacomm_device_health{device="pbx-west"} >= 1 for 3'
        )
        assert rule.labels == (("device", "pbx-west"),)
        assert rule.for_cycles == 3
        assert rule.matches({"device": "pbx-west"})
        assert not rule.matches({"device": "pbx-east"})
        # No selector matches everything.
        assert AlertRule.parse("r2", "m > 0").matches({"device": "x"})

    def test_units_suffix_and_float_threshold(self):
        rule = AlertRule.parse("r", "metacomm_queue_oldest_age_seconds > 2.5s")
        assert rule.threshold == 2.5

    def test_all_comparators(self):
        for op in (">", ">=", "<", "<=", "==", "!="):
            rule = AlertRule.parse("r", f"m {op} 1")
            assert rule.op == op
        assert AlertRule.parse("r", "m < 1").breached(0.5)
        assert not AlertRule.parse("r", "m != 1").breached(1.0)

    def test_expr_round_trips(self):
        for expr in (
            "m > 5",
            'm{device="pbx"} >= 1 for 3',
            "m == 0",
        ):
            rule = AlertRule.parse("r", expr)
            assert AlertRule.parse("r", rule.expr) == rule

    @pytest.mark.parametrize(
        "expr",
        [
            "",
            "just words",
            "m >",
            "m ~ 5",
            "m > 5 for",
            'm{=bad} > 1',
        ],
    )
    def test_rejects_malformed(self, expr):
        with pytest.raises(AlertRuleError):
            AlertRule.parse("r", expr)

    def test_default_rules_parse_and_are_unique(self):
        rules = default_rules()
        names = [r.name for r in rules]
        assert len(set(names)) == len(names)
        assert "device-unreachable" in names


class TestAlertEngine:
    def engine(self, *exprs, journal=None):
        registry = MetricsRegistry()
        rules = [
            AlertRule.parse(f"rule-{i}", expr)
            for i, expr in enumerate(exprs)
        ]
        return AlertEngine(registry, journal=journal, rules=rules), registry

    def test_raise_and_clear_transitions(self):
        journal = EventJournal()
        engine, registry = self.engine(
            "metacomm_queue_depth > 2", journal=journal
        )
        depth = registry.gauge("metacomm_queue_depth", "h")
        depth.set(1)
        assert engine.evaluate() == []
        depth.set(5)
        (alert,) = engine.evaluate()
        assert alert.rule == "rule-0"
        assert alert.value == 5
        assert engine.is_active("rule-0")
        assert registry.value("metacomm_alerts_active", rule="rule-0") == 1
        # Still breaching: no duplicate raise.
        engine.evaluate()
        assert len(journal.events(kind="alert.raised")) == 1
        depth.set(0)
        assert engine.evaluate() == []
        assert journal.last("alert.cleared").attributes["rule"] == "rule-0"
        assert registry.value("metacomm_alerts_active", rule="rule-0") == 0
        assert registry.value("metacomm_alerts_fired_total", rule="rule-0") == 1

    def test_for_cycles_requires_sustained_breach(self):
        engine, registry = self.engine("m >= 1 for 3")
        gauge = registry.gauge("m", "h")
        gauge.set(1)
        assert engine.evaluate() == []
        assert engine.evaluate() == []
        (alert,) = engine.evaluate()
        assert alert.cycles == 3
        # A dip resets the pending count.
        gauge.set(0)
        engine.evaluate()
        gauge.set(1)
        assert engine.evaluate() == []

    def test_rule_without_selector_fires_per_child(self):
        journal = EventJournal()
        engine, registry = self.engine(
            "metacomm_device_health >= 2", journal=journal
        )
        health = registry.gauge(
            "metacomm_device_health", "h", labelnames=("device",)
        )
        health.labels(device="pbx-west").set(2)
        health.labels(device="pbx-east").set(0)
        (alert,) = engine.evaluate()
        assert alert.labels == {"device": "pbx-west"}
        # The east device going dark fires a second, independent instance.
        health.labels(device="pbx-east").set(2)
        alerts = engine.evaluate()
        assert len(alerts) == 2
        assert registry.value("metacomm_alerts_active", rule="rule-0") == 2
        # One recovers: the other stays active.
        health.labels(device="pbx-west").set(0)
        (remaining,) = engine.evaluate()
        assert remaining.labels == {"device": "pbx-east"}

    def test_selector_rule_ignores_other_children(self):
        engine, registry = self.engine('m{device="a"} > 0')
        gauge = registry.gauge("m", "h", labelnames=("device",))
        gauge.labels(device="b").set(9)
        assert engine.evaluate() == []
        gauge.labels(device="a").set(1)
        (alert,) = engine.evaluate()
        assert alert.labels == {"device": "a"}

    def test_missing_metric_is_not_a_breach(self):
        engine, _ = self.engine("no_such_metric > 0")
        assert engine.evaluate() == []

    def test_add_and_remove_rules(self):
        engine, registry = self.engine()
        rule = AlertRule.parse("extra", "m > 0")
        engine.add_rule(rule)
        with pytest.raises(AlertRuleError):
            engine.add_rule(AlertRule.parse("extra", "m > 1"))
        registry.gauge("m", "h").set(1)
        engine.evaluate()
        assert engine.is_active("extra")
        engine.remove_rule("extra")
        assert not engine.is_active("extra")
        assert engine.rules == []


class TestConsistencyAuditor:
    @pytest.fixture
    def system(self):
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(MetaCommConfig()) as system:
            yield system

    def add_person(self, system, cn="Ann Field", extension="4100"):
        from repro.schemas import PERSON_CLASSES

        system.connection().add(
            f"cn={cn},o=Lucent",
            {
                "objectClass": list(PERSON_CLASSES),
                "cn": cn,
                "sn": cn.split()[-1],
                "definityExtension": extension,
            },
        )

    def test_clean_cycle_reports_ok(self, system):
        self.add_person(system)
        report = system.auditor.run_cycle(full=True)
        assert report.ok
        assert report.mismatch_count == 0
        assert set(report.probed) == {b.name for b in system.um.bindings}
        assert report.queue_depth == 0
        registry = system.obs.registry
        assert registry.value("metacomm_audit_cycles_total") == 1
        assert registry.value("metacomm_audit_last_mismatches") == 0
        event = system.obs.journal.last("audit.cycle")
        assert event.attributes["mismatches"] == 0

    def test_round_robin_probes_one_binding_per_cycle(self, system):
        bindings = [b.name for b in system.um.bindings]
        assert len(bindings) >= 2
        probed = []
        for _ in range(len(bindings)):
            report = system.auditor.run_cycle()
            assert len(report.probed) == 1
            probed.extend(report.probed)
        # Round-robin covers every binding before repeating.
        assert sorted(probed) == sorted(bindings)

    def test_cycle_refreshes_lag_and_staleness(self, system):
        self.add_person(system)
        report = system.auditor.run_cycle(full=True)
        assert report.last_serial >= 1
        pbx = system.pbx().name
        assert report.device_lag[pbx] == 0
        registry = system.obs.registry
        assert registry.value(
            "metacomm_device_last_applied_lag", device=pbx
        ) == 0
        assert registry.value("metacomm_queue_oldest_age_seconds") == 0.0

    def test_drift_alerts_within_one_cycle(self, system):
        """Acceptance: a deliberate device-side mutation (bypassing DDU
        via the UM agent) raises the audit-mismatch alert and journals
        the drift within ONE audit cycle — while the system stays live."""
        from repro.core import UM_AGENT

        self.add_person(system)
        assert system.consistent()

        # Operator surgery on the device: writes attributed to the UM
        # agent never generate DDU notifications, so the directory is
        # silently out of date.
        pbx = system.pbx()
        pbx.modify("4100", {"name": "Imposter"}, agent=UM_AGENT)

        report = system.auditor.run_cycle(full=True)
        assert not report.ok
        assert pbx.name in report.mismatches
        assert system.alerts.is_active("audit-mismatch")
        registry = system.obs.registry
        assert registry.value("metacomm_audit_last_mismatches") > 0
        assert registry.value(
            "metacomm_alerts_active", rule="audit-mismatch"
        ) == 1
        mismatch = system.obs.journal.last("audit.mismatch")
        assert mismatch.attributes["device"] == pbx.name
        assert mismatch.attributes["problems"]
        raised = system.obs.journal.last("alert.raised")
        assert raised.attributes["rule"] == "audit-mismatch"

        # Repair by pushing directory state back to the device; the next
        # cycle clears the alert and journals the clear.
        system.sync.push_directory(pbx.name)
        assert system.consistent()
        report = system.auditor.run_cycle(full=True)
        assert report.ok
        assert not system.alerts.is_active("audit-mismatch")
        cleared = system.obs.journal.last("alert.cleared")
        assert cleared.attributes["rule"] == "audit-mismatch"

    def test_background_thread_runs_cycles(self, system):
        import time

        self.add_person(system)
        system.auditor.start(interval=0.01)
        assert system.auditor.running
        deadline = time.time() + 5.0
        registry = system.obs.registry
        while time.time() < deadline:
            if registry.value("metacomm_audit_cycles_total") >= 3:
                break
            time.sleep(0.01)
        system.auditor.stop()
        assert not system.auditor.running
        assert registry.value("metacomm_audit_cycles_total") >= 3
        # The live probes never flagged the consistent system.
        assert registry.value("metacomm_audit_last_mismatches") == 0

    def test_updates_flow_while_auditor_runs(self, system):
        """No quiescing: updates land while the sampler probes."""
        system.auditor.start(interval=0.005)
        for i in range(5):
            self.add_person(system, cn=f"Person {i}", extension=str(4200 + i))
        system.auditor.stop()
        assert system.consistent()

    def test_monitor_snapshot_shape(self, system):
        self.add_person(system)
        system.auditor.run_cycle(full=True)
        snap = system.monitor_snapshot()
        assert snap["queue"]["depth"] == 0
        assert snap["queue"]["last_serial"] >= 1
        assert system.pbx().name in snap["devices"]
        assert snap["audit"]["ok"] is True
        assert snap["alerts"] == []
        assert snap["journal_events"] > 0
