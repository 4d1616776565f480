"""Tests for the event-driven device-link layer (repro.devices.links).

Covers the link unit semantics (batching, bounded in-flight window,
queue-limit defer/reject, FIFO order, clean shutdown), the non-blocking
``submit`` surfaces on devices / OSSI terminals / device filters, the
window=1/batch=1 equivalence guarantee against the paper-serial fan-out,
the HealthBoard dual feed under a flapping link, and the backpressure
chain from a stalled link through the sharded queue's lane depth limit
up to LTAP's typed ServerBusy answer (docs/DEVICE_LINKS.md).
"""

import threading
import time

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.devices import (
    Device,
    DeviceError,
    FieldSpec,
    InvalidFieldError,
)
from repro.devices.links import LinkBusy, LinkConfig, LinkDispatcher
from repro.core.filters.base import FilterError
from repro.ldap import LdapError
from repro.ldap.result import ResultCode
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.obs.alerts import AlertRule
from repro.obs.events import (
    UPDATE_ACCEPTED,
    UPDATE_DEFERRED,
    UPDATE_REJECTED,
)
from repro.schemas import PERSON_CLASSES

from .test_pipeline import device_states, um_counts


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def person_image(cn, **extra):
    image = {
        "objectClass": list(PERSON_CLASSES),
        "cn": [cn],
        "sn": [cn.split()[-1]],
    }
    image.update({k: [v] for k, v in extra.items()})
    return image


def linked_fleet(n_pbxes=3, **overrides):
    """A links-enabled system whose PBXes share the extension prefix, so
    one update fans out to every binding."""
    overrides.setdefault("device_links", True)
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(n_pbxes)],
            **overrides,
        )
    )


def error_records(system):
    return [
        (
            entry.first("metacommErrorTarget"),
            entry.first("metacommError"),
            entry.first("description"),
        )
        for entry in system.error_log.entries()
    ]


def explode(op, key):
    raise InvalidFieldError("injected device fault")


def make_device(name="dev", latency=0.0):
    device = Device(
        name,
        "Extension",
        [FieldSpec("Extension", required=True), FieldSpec("Name")],
    )
    device.link_latency = latency
    return device


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


# -- link unit semantics -----------------------------------------------------


class TestDeviceLinkUnit:
    @pytest.fixture
    def dispatcher(self):
        dispatcher = LinkDispatcher()
        try:
            yield dispatcher
        finally:
            dispatcher.stop()

    def test_submit_applies_and_resolves_future(self, dispatcher):
        device = make_device()
        dispatcher.register(device)
        dispatcher.start()
        future = device.submit("add", {"Extension": "100", "Name": "A"})
        record = future.result(timeout=5)
        assert record == {"Extension": "100", "Name": "A"}
        assert device.contains("100")

    def test_submit_validates_op(self, dispatcher):
        device = make_device()
        dispatcher.register(device)
        with pytest.raises(InvalidFieldError):
            device.submit("dump")

    def test_submit_without_link_raises(self):
        device = make_device()
        with pytest.raises(DeviceError, match="no device link"):
            device.submit("add", {"Extension": "100"})

    def test_pause_coalesces_one_batch(self, dispatcher):
        device = make_device(latency=0.01)
        link = dispatcher.register(device)
        dispatcher.start()
        link.pause()
        futures = [
            device.submit("add", {"Extension": str(100 + i)})
            for i in range(5)
        ]
        link.resume()
        for future in futures:
            future.result(timeout=5)
        snapshot = link.snapshot()
        # One pipelined command stream, one round-trip, five ops.
        assert snapshot["flushes"] == 1
        assert snapshot["batch_sizes"] == {5: 1}
        assert snapshot["completed"] == 5 and snapshot["failed"] == 0

    def test_window_bounds_inflight_batches(self, dispatcher):
        device = make_device(latency=0.05)
        link = dispatcher.register(device, LinkConfig(window=2, batch=1))
        dispatcher.start()
        futures = [
            device.submit("add", {"Extension": str(100 + i)})
            for i in range(6)
        ]
        peak = 0
        while not all(f.done() for f in futures):
            peak = max(peak, link.snapshot()["inflight"])
            time.sleep(0.005)
        assert peak <= 2
        assert link.snapshot()["completed"] == 6
        # Six batches of one op each: the batch knob was honoured too.
        assert link.snapshot()["batch_sizes"] == {1: 6}

    def test_per_device_fifo_order(self, dispatcher):
        device = make_device(latency=0.005)
        link = dispatcher.register(device, LinkConfig(window=3, batch=2))
        dispatcher.start()
        order = []
        futures = [
            link.submit(lambda i=i: order.append(i), op="apply", key=str(i))
            for i in range(10)
        ]
        for future in futures:
            future.result(timeout=5)
        assert order == list(range(10))

    def test_failure_resolves_future_without_poisoning_batch(self, dispatcher):
        device = make_device()
        link = dispatcher.register(device)
        dispatcher.start()
        link.pause()
        good = device.submit("add", {"Extension": "100"})
        dup = device.submit("add", {"Extension": "100"})
        after = device.submit("add", {"Extension": "101"})
        link.resume()
        assert good.result(timeout=5)["Extension"] == "100"
        with pytest.raises(DeviceError):
            dup.result(timeout=5)
        assert after.result(timeout=5)["Extension"] == "101"
        snapshot = link.snapshot()
        assert snapshot["completed"] == 2 and snapshot["failed"] == 1

    def test_queue_limit_nonblocking_reject(self, dispatcher):
        device = make_device()
        link = dispatcher.register(device, LinkConfig(queue_limit=2))
        dispatcher.start()
        link.pause()
        device.submit("add", {"Extension": "100"})
        device.submit("add", {"Extension": "101"})
        with pytest.raises(LinkBusy):
            link.submit(lambda: None, timeout=0)
        assert link.snapshot()["rejected"] == 1
        link.resume()

    def test_queue_limit_defers_until_space(self, dispatcher):
        device = make_device()
        link = dispatcher.register(device, LinkConfig(queue_limit=1))
        dispatcher.start()
        link.pause()
        first = device.submit("add", {"Extension": "100"})
        second = []

        def blocked_submit():
            second.append(device.submit("add", {"Extension": "101"}))

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        wait_until(
            lambda: link.snapshot()["deferred"] >= 1, message="deferred submit"
        )
        link.resume()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert first.result(timeout=5)
        assert second[0].result(timeout=5)

    def test_stop_fails_orphan_futures(self):
        dispatcher = LinkDispatcher()
        device = make_device()
        link = dispatcher.register(device)
        dispatcher.start()
        link.pause()
        orphan = device.submit("add", {"Extension": "100"})
        dispatcher.stop()
        with pytest.raises(DeviceError, match="link stopped"):
            orphan.result(timeout=5)
        with pytest.raises(DeviceError, match="link stopped"):
            device.submit("add", {"Extension": "101"})

    def test_stop_releases_a_notifier_waiting_on_a_link_future(self):
        # A DDU delivered on the notifier thread fans out into another
        # link and waits on the future; stop() must fail that future
        # before joining the notifier, or the join never returns.
        dispatcher = LinkDispatcher()
        source, target = make_device("src"), make_device("dst")
        dispatcher.register(source)
        target_link = dispatcher.register(target)
        waiting = threading.Event()
        outcome = []

        def fan_out(_notification):
            future = target.submit("add", {"Extension": "200"})
            waiting.set()
            try:
                future.result()
            except DeviceError as exc:
                outcome.append(exc)

        source.add_listener(fan_out)
        dispatcher.start()
        target_link.pause()  # the fan-out's op can never flush
        source.submit("add", {"Extension": "100"}).result(timeout=5)
        assert waiting.wait(timeout=5), "notifier never delivered the DDU"
        stopper = threading.Thread(target=dispatcher.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "stop() hung joining the notifier"
        assert len(outcome) == 1 and "link stopped" in str(outcome[0])

    def test_snapshot_shape(self, dispatcher):
        device = make_device()
        link = dispatcher.register(device, LinkConfig(window=2, batch=3, queue_limit=5))
        snapshot = link.snapshot()
        assert snapshot["device"] == "dev"
        assert snapshot["window"] == 2
        assert snapshot["batch"] == 3
        assert snapshot["queue_limit"] == 5
        assert snapshot["paused"] is False
        link.pause()
        assert link.snapshot()["paused"] is True

    def test_link_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(window=0)
        with pytest.raises(ValueError):
            LinkConfig(batch=0)
        with pytest.raises(ValueError):
            LinkConfig(queue_limit=0)

    def test_notifications_are_deferred_and_delivered(self, dispatcher):
        device = make_device()
        dispatcher.register(device)
        dispatcher.start()
        seen = []
        threads = []

        def listener(notification):
            seen.append(notification.key)
            threads.append(threading.current_thread().name)

        device.add_listener(listener)
        device.submit("add", {"Extension": "100"}).result(timeout=5)
        wait_until(lambda: seen == ["100"], message="deferred notification")
        # Delivered by the notifier thread, never the dispatcher itself.
        assert threads == ["metacomm-link-notify"]


class TestSubmitSurfaces:
    def test_ossi_terminal_submit(self):
        system = linked_fleet(1)
        try:
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
            terminal = system.terminal("pbx-1")
            future = terminal.submit("change station 4100 room 2B-110")
            response = future.result(timeout=5)
            assert response.ok, response.text
            assert terminal.history[-1] == "change station 4100 room 2B-110"
            wait_until(
                lambda: system.pbx("pbx-1").station("4100").get("Room")
                == "2B-110",
                message="DDU room change",
            )
        finally:
            system.close()

    def test_ossi_terminal_submit_requires_link(self):
        system = MetaComm(MetaCommConfig())
        try:
            with pytest.raises(DeviceError, match="no device link"):
                system.terminal().submit("display station 4100")
        finally:
            system.close()

    def test_device_filter_submit_requires_link(self):
        system = MetaComm(MetaCommConfig())
        try:
            binding = system.um.bindings[0]
            with pytest.raises(FilterError, match="no device link"):
                binding.filter.submit(None)
        finally:
            system.close()

    def test_metrics_record_flushes(self):
        system = linked_fleet(1)
        try:
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
            # Counted before the flush resolves its futures: the submitter
            # sees every flush of its own fan-out as soon as it returns.
            registry = system.obs.registry
            for row in system.links.snapshot():
                device = row["device"]
                assert row["flushes"] >= 1, device
                assert registry.value(
                    "metacomm_link_flushes_total", device=device
                ) == row["flushes"]
                assert registry.value(
                    "metacomm_link_ops_total", device=device, outcome="ok"
                ) == row["completed"]
                batches = registry.get("metacomm_link_batch_ops").labels(
                    device=device
                )
                assert batches.count == row["flushes"]
                assert batches.sum == row["completed"] + row["failed"]
            # A flush is link transport, not a lifecycle fact: no event.
            kinds = {e.kind for e in system.obs.journal}
            assert not any(kind.startswith("link.") for kind in kinds)
        finally:
            system.close()


class TestMetricsOutsideDispatcherCondition:
    """No metric is bound or updated while the dispatcher's condition is
    held: binding a child takes its family's lock, and the static
    lock-order graph cannot see that order (docs/CONCURRENCY.md)."""

    def test_no_metric_call_under_cond(self, monkeypatch):
        from repro.obs import metrics

        owner: list[LinkDispatcher] = []
        calls: list[str] = []
        under_cond: list[str] = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                label = f"{cls.__name__}.{name}"
                if isinstance(self, metrics.Metric):
                    label += f"({self.name})"
                calls.append(label)
                if owner and owner[0]._cond._is_owned():
                    under_cond.append(label)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        spy(metrics.Metric, "labels")
        for cls in (metrics._CounterChild, metrics._GaugeChild):
            spy(cls, "inc")
        spy(metrics._HistogramChild, "observe")

        system = linked_fleet(2, link_queue_limit=2)
        owner.append(system.links)
        try:
            conn = system.connection()
            for i in range(3):
                conn.add(
                    f"cn=P {i},o=Lucent",
                    person_attrs(f"P {i}", "P", definityExtension=f"410{i}"),
                )
            # A full queue on a stalled link: one submit waits and gives
            # up (deferred, then rejected), one is rejected at once.
            link = system.links.link("pbx-1")
            link.pause()
            queued = [link.submit(lambda: None) for _ in range(2)]
            with pytest.raises(LinkBusy):
                link.submit(lambda: None, timeout=0.05)
            with pytest.raises(LinkBusy):
                link.submit(lambda: None, timeout=0)
            link.resume()
            for future in queued:
                future.result(timeout=5)
            assert link.snapshot()["rejected"] == 2
            assert link.snapshot()["deferred"] == 1
        finally:
            system.close()
        bound = " ".join(calls)
        for family in (
            "metacomm_link_flushes_total",
            "metacomm_link_ops_total",
            "metacomm_link_batch_ops",
            "metacomm_link_submit_deferred_total",
            "metacomm_link_submit_rejected_total",
        ):
            assert f"Metric.labels({family})" in bound
        assert under_cond == []


# -- window=1/batch=1 equivalence with the paper-serial fan-out --------------


class TestLinkedSerialEquivalence:
    """Links at window=1/batch=1 (lanes=1) must be byte-identical with the
    serial fan-out: same error-log records, same compensation order, same
    final device states."""

    SCENARIOS = {
        "abort": dict(abort_on_failure=True, undo_on_failure=False),
        "abort+undo": dict(abort_on_failure=True, undo_on_failure=True),
        "best-effort": dict(abort_on_failure=False, undo_on_failure=False),
        "best-effort+undo": dict(
            abort_on_failure=False, undo_on_failure=True
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_failure_injection_matches(self, scenario):
        results = {}
        for mode in ("serial", "links"):
            overrides = dict(self.SCENARIOS[scenario])
            if mode == "links":
                overrides.update(
                    device_links=True, link_window=1, link_batch=1
                )
            else:
                overrides.update(device_links=False)
            system = linked_fleet(3, **overrides)
            try:
                compensations = []
                original = system.um._compensate

                def spying(applied, trace=None, _log=compensations, _o=original):
                    _log.append([binding.name for binding, _, _ in applied])
                    return _o(applied, trace)

                system.um._compensate = spying
                conn = system.connection()
                conn.add(
                    "cn=OK,o=Lucent",
                    person_attrs("OK", "OK", definityExtension="4200"),
                )
                system.pbxes["pbx-3"].fault_injector = explode
                conn.add(
                    "cn=A B,o=Lucent",
                    person_attrs("A B", "B", definityExtension="4100"),
                )
                results[mode] = {
                    "errors": error_records(system),
                    "compensations": compensations,
                    "devices": device_states(system),
                    "inconsistencies": sorted(system.inconsistencies()),
                    "stats": um_counts(system),
                }
            finally:
                system.close()
        assert results["serial"] == results["links"], scenario

    def test_success_path_matches(self):
        from repro.ldap import Modification

        results = {}
        for mode in ("serial", "links"):
            overrides = (
                dict(device_links=True, link_window=1, link_batch=1)
                if mode == "links"
                else dict(device_links=False)
            )
            system = linked_fleet(3, **overrides)
            try:
                conn = system.connection()
                conn.add(
                    "cn=A B,o=Lucent",
                    person_attrs("A B", "B", definityExtension="4100"),
                )
                conn.modify(
                    "cn=A B,o=Lucent",
                    [Modification.replace("definityRoom", "2B-110")],
                )
                entry = conn.get("cn=A B,o=Lucent")
                results[mode] = {
                    "entry": sorted(
                        (k, tuple(v))
                        for k, v in entry.attributes.to_dict().items()
                    ),
                    "devices": device_states(system),
                    "consistent": system.consistent(),
                }
            finally:
                system.close()
        assert results["serial"] == results["links"]
        assert results["serial"]["consistent"]


# -- HealthBoard dual feed under a flapping link -----------------------------


class TestFlappingLinkHealth:
    def test_flapping_link_feeds_health_exactly_once_per_op(self):
        """The op_observer feed must count each link op exactly once —
        the dispatcher reports submit-to-completion latency itself and
        the in-flush ``_observed`` sample is suppressed, so a flapping
        link (stall, burst, fault, recover) cannot double-count."""
        system = linked_fleet(1, abort_on_failure=False)
        try:
            conn = system.connection()
            pbx = system.pbxes["pbx-1"]
            link = system.links.link("pbx-1")
            conn.add(
                "cn=P 0,o=Lucent",
                person_attrs("P 0", "0", definityExtension="4100"),
            )

            # Stall the link mid-update: the op completes after resume and
            # its observed latency includes the stall.
            stalled = threading.Thread(
                target=conn.add,
                args=(
                    "cn=P 1,o=Lucent",
                    person_attrs("P 1", "1", definityExtension="4101"),
                ),
            )
            link.pause()
            stalled.start()
            wait_until(
                lambda: link.snapshot()["pending"] >= 1,
                message="stalled submit",
            )
            time.sleep(0.05)
            link.resume()
            stalled.join(timeout=10)
            assert not stalled.is_alive()

            # Three consecutive injected faults: unreachable streak.
            pbx.fault_injector = explode
            for i in range(2, 5):
                conn.add(
                    f"cn=P {i},o=Lucent",
                    person_attrs(f"P {i}", str(i), definityExtension=f"410{i}"),
                )
            assert system.obs.health.snapshot()["pbx-1"]["state"] == (
                "unreachable"
            )

            # Recovery: the first success resets the unreachable streak,
            # then enough successes dilute the rolling error rate (3
            # failures need >= 12 outcomes to drop under the 0.25
            # degraded threshold) and the device is healthy again.
            pbx.fault_injector = None
            for i in range(5, 15):
                conn.add(
                    f"cn=P {i},o=Lucent",
                    person_attrs(f"P {i}", str(i), definityExtension=f"41{i:02d}"),
                )
            health = system.obs.health.snapshot()["pbx-1"]
            assert health["state"] == "healthy"
            assert health["streak"] == 0

            # The *outcome* feed saw the three injected faults (the
            # pipeline converts them to failed outcomes)...
            assert health["failures"] == 3
            assert health["successes"] == 12

            # ...and a raw link-level failure feeds link_errors: a DDU
            # against a record the switch does not have.
            raw = pbx.submit("modify", "9999", {"Room": "X"})
            with pytest.raises(DeviceError):
                raw.result(timeout=5)

            # The regression: raw link telemetry matches the link's own
            # accounting exactly — one sample per op, no double feed.
            health = system.obs.health.snapshot()["pbx-1"]
            snapshot = link.snapshot()
            assert health["link_ops"] == (
                snapshot["completed"] + snapshot["failed"]
            )
            assert health["link_errors"] == snapshot["failed"] == 1
            assert health["link_ops"] == 16
            # The stalled op's latency (>= the 50 ms pause) reached the
            # reservoir, so percentiles reflect queueing delay.
            assert health["latency"]["p99"] >= 0.04
        finally:
            system.close()


# -- backpressure: stalled link -> full lane -> ServerBusy at LTAP ----------


def add_descriptor(cn, ext):
    return UpdateDescriptor(
        op=UpdateOp.ADD,
        source="ldap",
        key=cn,
        new=person_image(cn, definityExtension=ext),
    )


def same_lane_extensions(system, count):
    """Extensions whose records the routing oracle puts on one lane."""
    queue = system.um.queue
    by_lane = {}
    for n in range(4100, 4500):
        ext = str(n)
        decision = queue.plan.classify(add_descriptor(f"E {ext}", ext))
        if decision.serial:
            continue
        label = queue.lane_of(decision.lane_key)
        by_lane.setdefault(label, []).append(ext)
        if len(by_lane[label]) >= count:
            return by_lane[label]
    raise AssertionError("no lane collision found in the probe range")


def lane_outstanding(system, label):
    for row in system.um.queue.lane_snapshot():
        if row["lane"] == label:
            return row["outstanding"]
    raise AssertionError(f"no lane {label}")


class TestBackpressure:
    def test_stalled_link_full_lane_rejects_with_server_busy(self):
        system = linked_fleet(
            1,
            coordinator_lanes=2,
            lane_depth_limit=2,
            link_window=1,
            link_batch=1,
        )
        clients = []
        link = system.links.link("pbx-1")
        try:
            e1, e2, e3 = same_lane_extensions(system, 3)
            queue = system.um.queue
            label = queue.lane_of(
                queue.plan.classify(add_descriptor(f"E {e1}", e1)).lane_key
            )
            link.pause()

            def add(ext):
                system.connection().add(
                    f"cn=E {ext},o=Lucent",
                    person_attrs(f"E {ext}", ext, definityExtension=ext),
                )

            # First update claims the lane and stalls in fan-out against
            # the paused link; the second claims behind it and waits at
            # the barrier.  The lane is now at its depth limit (2).
            for ext in (e1, e2):
                thread = threading.Thread(target=add, args=(ext,))
                thread.start()
                clients.append(thread)
                wait_until(
                    lambda want=len(clients): lane_outstanding(system, label)
                    >= want,
                    message=f"lane depth {len(clients)}",
                )

            # Third same-lane update: admission turns it away before any
            # directory write, typed as LDAP BUSY (51).
            with pytest.raises(LdapError) as excinfo:
                add(e3)
            assert excinfo.value.code is ResultCode.BUSY
            assert system.obs.registry.value("metacomm_ltap_busy_total") == 1
            assert queue.registry.value("metacomm_queue_admission_rejected_total") == 1

            # The backlog fires the queue-backlog alert.  The shipped rule
            # triggers at 5 s; re-declare it with a test-sized threshold so
            # the same expression fires from the same (real) staleness
            # gauge without a five-second stall.
            system.alerts.remove_rule("queue-backlog")
            system.alerts.add_rule(
                AlertRule.parse(
                    "queue-backlog",
                    "metacomm_queue_oldest_age_seconds > 0.05",
                    "oldest unclaimed update has waited too long",
                )
            )
            time.sleep(0.1)
            queue.refresh_staleness()
            system.alerts.evaluate()
            assert any(
                alert.rule == "queue-backlog"
                for alert in system.alerts.active()
            )

            rejected = system.obs.journal.events(UPDATE_REJECTED)
            assert len(rejected) == 1
            assert rejected[0].attributes["lane"] == label

            # Drain: resume the link, let both accepted updates finish.
            link.resume()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
            queue.refresh_staleness()
            system.alerts.evaluate()
            assert not system.alerts.active()

            # No update lost, none duplicated: the two accepted adds are
            # each on the device and in the directory exactly once, the
            # rejected one is nowhere — and the journal agrees.
            pbx = system.pbxes["pbx-1"]
            conn = system.connection()
            for ext in (e1, e2):
                assert pbx.contains(ext)
                assert conn.exists(f"cn=E {ext},o=Lucent")
            assert not pbx.contains(e3)
            assert not conn.exists(f"cn=E {e3},o=Lucent")
            assert pbx.statistics["adds"] == 2
            accepted = [
                str(event.attributes["key"])
                for event in system.obs.journal.events(UPDATE_ACCEPTED)
            ]
            assert len(accepted) == 2
            assert any(e1 in key for key in accepted)
            assert any(e2 in key for key in accepted)
            assert all(e3 not in key for key in accepted)
            assert e3 in str(rejected[0].attributes["key"])
        finally:
            link.resume()
            for thread in clients:
                thread.join(timeout=30)
            system.close()

    def test_defer_policy_waits_out_the_stall(self):
        system = linked_fleet(
            1,
            coordinator_lanes=2,
            lane_depth_limit=1,
            link_window=1,
            link_batch=1,
            busy_policy="defer",
            busy_timeout=10.0,
        )
        clients = []
        link = system.links.link("pbx-1")
        try:
            e1, e2 = same_lane_extensions(system, 2)
            queue = system.um.queue
            label = queue.lane_of(
                queue.plan.classify(add_descriptor(f"E {e1}", e1)).lane_key
            )
            link.pause()

            def add(ext):
                system.connection().add(
                    f"cn=E {ext},o=Lucent",
                    person_attrs(f"E {ext}", ext, definityExtension=ext),
                )

            first = threading.Thread(target=add, args=(e1,))
            first.start()
            clients.append(first)
            wait_until(
                lambda: lane_outstanding(system, label) >= 1,
                message="lane occupied",
            )

            second = threading.Thread(target=add, args=(e2,))
            second.start()
            clients.append(second)
            wait_until(
                lambda: queue.registry.value("metacomm_queue_admission_deferred_total") >= 1,
                message="deferred admission",
            )

            link.resume()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()

            assert queue.registry.value("metacomm_queue_admission_rejected_total") == 0
            deferred = system.obs.journal.events(UPDATE_DEFERRED)
            assert any(
                e2 in str(event.attributes["key"]) for event in deferred
            )
            pbx = system.pbxes["pbx-1"]
            assert pbx.contains(e1) and pbx.contains(e2)
        finally:
            link.resume()
            for thread in clients:
                thread.join(timeout=30)
            system.close()
