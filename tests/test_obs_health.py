"""Device-link health telemetry: the latency reservoir, per-device
rolling state, and the HealthBoard's gauges and transition events."""

import pytest

from repro.obs import (
    DEGRADED,
    HEALTHY,
    UNREACHABLE,
    DeviceHealth,
    EventJournal,
    HealthBoard,
    HealthPolicy,
    LatencyReservoir,
    MetricsRegistry,
)
from repro.obs.health import STATE_CODES


class TestLatencyReservoir:
    def test_empty_reservoir_reports_zero(self):
        reservoir = LatencyReservoir()
        assert reservoir.percentile(50) == 0.0
        assert reservoir.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert len(reservoir) == 0

    def test_single_sample_is_every_percentile(self):
        reservoir = LatencyReservoir()
        reservoir.observe(0.25)
        assert reservoir.percentile(0) == 0.25
        assert reservoir.percentile(50) == 0.25
        assert reservoir.percentile(100) == 0.25

    def test_percentiles_interpolate(self):
        reservoir = LatencyReservoir()
        for value in (1.0, 2.0, 3.0, 4.0):
            reservoir.observe(value)
        assert reservoir.percentile(50) == 2.5
        assert reservoir.percentile(0) == 1.0
        assert reservoir.percentile(100) == 4.0

    def test_window_evicts_oldest(self):
        reservoir = LatencyReservoir(size=3)
        for value in (10.0, 1.0, 2.0, 3.0):
            reservoir.observe(value)
        # The 10.0 outlier has rolled out of the window.
        assert reservoir.percentile(100) == 3.0
        assert len(reservoir) == 3

    def test_quantiles_ordered(self):
        reservoir = LatencyReservoir()
        for i in range(100):
            reservoir.observe(i / 100.0)
        q = reservoir.quantiles()
        assert q["p50"] <= q["p95"] <= q["p99"]
        assert q["p50"] == pytest.approx(0.495)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyReservoir(size=0)


class TestDeviceHealth:
    def policy(self, **overrides):
        defaults = dict(window=4, degraded_error_rate=0.25,
                        unreachable_streak=3)
        defaults.update(overrides)
        return HealthPolicy(**defaults)

    def test_starts_healthy(self):
        health = DeviceHealth("pbx")
        assert health.state == HEALTHY
        assert health.error_rate == 0.0

    def test_error_rate_over_rolling_window(self):
        health = DeviceHealth("pbx", self.policy())
        for ok in (True, False, True, True):
            health.record_outcome(0.01, ok)
        assert health.error_rate == 0.25
        # The window rolls: four more successes push the failure out.
        for _ in range(4):
            health.record_outcome(0.01, True)
        assert health.error_rate == 0.0

    def test_degraded_above_error_rate_threshold(self):
        health = DeviceHealth("pbx", self.policy())
        health.record_outcome(0.01, True)
        health.record_outcome(0.01, False)
        health.record_outcome(0.01, True)
        health.record_outcome(0.01, False)
        assert health.error_rate == 0.5
        assert health.state == DEGRADED

    def test_unreachable_after_streak(self):
        health = DeviceHealth("pbx", self.policy())
        for _ in range(3):
            health.record_outcome(0.01, False)
        assert health.streak == 3
        assert health.state == UNREACHABLE
        # One success resets the streak (but the window still shows errors).
        health.record_outcome(0.01, True)
        assert health.streak == 0
        assert health.state == DEGRADED

    def test_latency_policy_degrades(self):
        health = DeviceHealth("pbx", self.policy(degraded_p95=0.1))
        for _ in range(10):
            health.record_links([(0.5, True)])
        assert health.state == DEGRADED

    def test_link_feed_does_not_touch_streak(self):
        health = DeviceHealth("pbx", self.policy())
        for _ in range(10):
            health.record_links([(0.01, False)])
        assert health.streak == 0
        assert health.state == HEALTHY
        assert health.link_errors == 10

    def test_note_applied_is_monotonic(self):
        health = DeviceHealth("pbx")
        health.record_outcome(0.01, True, serial=5)
        health.record_outcome(0.01, True, serial=3)
        assert health.last_applied_serial == 5

    def test_snapshot_shape(self):
        health = DeviceHealth("pbx")
        health.record_outcome(0.01, True)
        health.record_links([(0.02, True)])
        snap = health.snapshot()
        assert snap["device"] == "pbx"
        assert snap["state"] == HEALTHY
        assert snap["successes"] == 1
        assert snap["link_ops"] == 1
        assert set(snap["latency"]) == {"p50", "p95", "p99"}


class TestHealthBoard:
    def board(self):
        registry = MetricsRegistry()
        journal = EventJournal()
        policy = HealthPolicy(window=4, unreachable_streak=2)
        return HealthBoard(registry, journal=journal, policy=policy), \
            registry, journal

    def test_devices_created_on_demand(self):
        board, _, _ = self.board()
        assert board.devices() == []
        board.record_outcome("pbx", 0.01, True)
        assert [h.name for h in board.devices()] == ["pbx"]
        assert board.states() == {"pbx": HEALTHY}

    def test_outcome_metrics(self):
        board, registry, _ = self.board()
        board.record_outcome("pbx", 0.01, True)
        board.record_outcome("pbx", 0.01, False)
        attempts = "metacomm_device_attempts_total"
        assert registry.value(attempts, device="pbx", outcome="ok") == 1
        assert registry.value(attempts, device="pbx", outcome="error") == 1
        assert registry.value(
            "metacomm_device_consecutive_failures", device="pbx"
        ) == 1

    def test_transition_emits_journal_event_once(self):
        board, registry, journal = self.board()
        board.record_outcome("pbx", 0.01, False)
        board.record_outcome("pbx", 0.01, False)
        assert registry.value("metacomm_device_health", device="pbx") == \
            STATE_CODES[UNREACHABLE]
        transitions = journal.events(kind="health.transition")
        # healthy->degraded, degraded->unreachable: one event per flip,
        # not one per outcome.
        assert [(e.attributes["previous"], e.attributes["state"])
                for e in transitions] == [
            (HEALTHY, DEGRADED),
            (DEGRADED, UNREACHABLE),
        ]
        # Recovery is also journalled.
        for _ in range(4):
            board.record_outcome("pbx", 0.01, True)
        last = journal.last("health.transition")
        assert last.attributes["state"] == HEALTHY

    def test_link_observer_feeds_reservoir(self):
        board, _, _ = self.board()
        observer = board.link_observer("mp")
        observer("add", "cn=X", 0.02, True)
        observer("modify", "cn=X", 0.04, False)
        health = board.device("mp")
        assert len(health.reservoir) == 2
        assert health.link_errors == 1
        # Link errors never drive the derived state.
        assert health.state == HEALTHY

    def test_refresh_gauges_publishes_percentiles_and_lag(self):
        board, registry, _ = self.board()
        board.record_outcome("pbx", 0.01, True, serial=7)
        observer = board.link_observer("pbx")
        for ms in (10, 20, 30):
            observer("add", "k", ms / 1000.0, True)
        board.refresh_gauges(last_serial=10)
        assert registry.value(
            "metacomm_device_link_latency_seconds",
            device="pbx", quantile="p50",
        ) == pytest.approx(0.02)
        assert registry.value(
            "metacomm_device_last_applied_lag", device="pbx"
        ) == 3
        assert registry.value(
            "metacomm_device_error_rate", device="pbx"
        ) == 0.0

    def test_disabled_board_is_inert(self):
        board = HealthBoard(MetricsRegistry(), enabled=False)
        board.record_outcome("pbx", 0.01, False, serial=3)
        board.record_link("pbx", [(0.01, True)])
        board.refresh_gauges(last_serial=5)
        assert board.devices() == []

    def test_board_without_registry(self):
        board = HealthBoard()
        board.record_outcome("pbx", 0.01, True)
        board.refresh_gauges(last_serial=1)
        assert board.states() == {"pbx": HEALTHY}


class TestPipelineHealthIntegration:
    """The fan-out feed and link feed wired through a live MetaComm."""

    def test_device_updates_feed_both_channels(self):
        from repro.core import MetaComm, MetaCommConfig
        from repro.schemas import PERSON_CLASSES

        with MetaComm(MetaCommConfig()) as system:
            system.connection().add(
                "cn=Ann Field,o=Lucent",
                {
                    "objectClass": list(PERSON_CLASSES),
                    "cn": "Ann Field",
                    "sn": "Field",
                    "definityExtension": "4100",
                },
            )
            health = system.obs.health.device(system.pbx().name)
            assert health.successes >= 1
            assert len(health.reservoir) >= 1
            assert health.last_applied_serial >= 1
            assert health.state == HEALTHY
