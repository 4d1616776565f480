"""Tests for the commutativity-sharded multi-lane Update Manager:
the routing oracle (repro.analysis.routing), the sharded queue's barrier
protocol, the multi-lane coordinator pool, and the lanes=1 equivalence
guarantee (docs/CONCURRENCY.md)."""

import threading

import pytest

from repro.analysis import (
    InstanceBinding,
    SERIAL_REASONS,
    build_routing_plan,
)
from repro.core import (
    MetaComm,
    MetaCommConfig,
    PbxConfig,
    UpdateQueue,
    UpdateManager,
)
from repro.core.queue import SERIAL_LANE
from repro.lexpress import compile_description
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.obs.events import (
    EventJournal,
    LANE_BARRIER,
    SAGA_COMPENSATED,
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
)
from repro.schemas import PERSON_CLASSES


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


def add_descriptor(cn, **extra):
    return UpdateDescriptor(
        op=UpdateOp.ADD, source="ldap", key=cn, new=person_image(cn, **extra)
    )


# -- the routing oracle ------------------------------------------------------


class TestRoutingOracle:
    @pytest.fixture(scope="class")
    def plan(self):
        system = MetaComm(
            MetaCommConfig(
                pbxes=[
                    PbxConfig("pbx-west", ("41", "42")),
                    PbxConfig("pbx-east", ("43", "44")),
                ]
            )
        )
        try:
            yield build_routing_plan(system.analysis_target())
        finally:
            system.close()

    def test_disjoint_partitions_get_distinct_lane_keys(self, plan):
        west = plan.classify(add_descriptor("A B", definityExtension="4100"))
        east = plan.classify(add_descriptor("C D", definityExtension="4300"))
        assert not west.serial and not east.serial
        assert west.reason == "partition" and east.reason == "partition"
        assert west.lane_key != east.lane_key
        assert "pbx-west" in west.lane_key and "4100" in west.lane_key
        assert "pbx-east" in east.lane_key

    def test_same_record_shares_a_lane_key(self, plan):
        a = plan.classify(add_descriptor("A B", definityExtension="4100"))
        b = plan.classify(add_descriptor("A B2", definityExtension="4100"))
        assert a.lane_key == b.lane_key

    def test_lane_key_stable_between_add_and_modify(self, plan):
        # The ADD image carries no closure-derived telephoneNumber yet; a
        # later MODIFY of the same record does.  The canonical-group
        # priority (partitioned schemas first) must keep the key identical
        # or the two operations could land on different lanes and reorder.
        added = plan.classify(add_descriptor("A B", definityExtension="4100"))
        old = person_image(
            "A B", definityExtension="4100", telephoneNumber="+1 908 582 4100"
        )
        new = dict(old, definityRoom=["2B-110"])
        modified = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.MODIFY, source="ldap", key="A B", old=old, new=new
            )
        )
        assert modified.lane_key == added.lane_key

    def test_delete_routes_by_the_old_image(self, plan):
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.DELETE,
                source="ldap",
                key="A B",
                old=person_image("A B", definityExtension="4100"),
            )
        )
        assert not decision.serial
        assert "pbx-west" in decision.lane_key

    def test_cross_partition_move_is_serial(self, plan):
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.MODIFY,
                source="ldap",
                key="A B",
                old=person_image("A B", definityExtension="4100"),
                new=person_image("A B", definityExtension="4300"),
            )
        )
        assert decision.serial
        assert decision.reason == "cross-partition-move"

    def test_ddu_reapplication_is_serial(self, plan):
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.MODIFY,
                source="ldap",
                key="A B",
                old=person_image("A B", definityExtension="4100"),
                new=person_image(
                    "A B", definityExtension="4100", definityRoom="2B"
                ),
                origin="pbx-west",
            )
        )
        assert decision.serial
        assert decision.reason == "ddu-reapplication"

    def test_modify_rdn_is_serial(self, plan):
        decision = plan.classify(
            add_descriptor("A B", definityExtension="4100"), rename=True
        )
        assert decision.serial
        assert decision.reason == "modify-rdn"

    def test_unclaimed_record_is_serial(self, plan):
        # No extension and no phone: neither the PBX nor the messaging
        # partition claims the record, so nothing proves it disjoint.
        decision = plan.classify(add_descriptor("A B"))
        assert decision.serial
        assert decision.reason == "unclaimed"

    def test_shipped_configuration_has_no_conflict_attributes(self, plan):
        # The demo deployment's only LX403s are the suppressed lastUpdater
        # Originator findings — operator waivers, not serialization causes.
        assert plan.conflict_attributes == frozenset()

    def test_describe_is_json_friendly(self, plan):
        import json

        summary = plan.describe()
        json.dumps(summary)
        assert summary["source_schema"] == "ldap"
        assert summary["serial_reasons"] == list(SERIAL_REASONS)
        assert "pbx-west" in str(summary["instances"])
        # The PBX partitions are disjoint extension prefixes: one lookup
        # finds the owner; the lone messaging instance runs its predicate.
        assert summary["owner_lookup"] == {
            "mp": "scan",
            "pbx": "prefix(extension)",
        }


CONFLICTING = """
mapping ldap_to_west {
    source ldap;
    target dev;
    key devId -> Id;
    map Owner = "west";
    partition when prefix(Id, "42");
}
mapping ldap_to_east {
    source ldap;
    target dev;
    key devId -> Id;
    map Owner = "east";
    partition when prefix(Id, "43");
}
mapping ldap_to_all {
    source ldap;
    target dev;
    key devId -> Id;
    map Owner = upper(ownerName);
    partition when prefix(Id, "4");
}
"""


class TestConflictSerialization:
    """Unsuppressed LX403 findings must force serialization."""

    @pytest.fixture(scope="class")
    def plan(self):
        from repro.analysis import AnalysisTarget

        mappings = compile_description(CONFLICTING)
        target = AnalysisTarget(
            mappings=list(mappings.values()),
            instances=[InstanceBinding(m.name, m) for m in mappings.values()],
        )
        return build_routing_plan(target)

    def test_conflict_attributes_collected_from_active_lx403(self, plan):
        assert "owner" in plan.conflict_attributes
        # The upper(ownerName) rule's source dependency is entangled too.
        assert "ownername" in plan.conflict_attributes

    def test_touching_a_conflict_attribute_routes_serial(self, plan):
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.MODIFY,
                source="ldap",
                key="r",
                old={"devId": ["4700"], "ownerName": ["ann"]},
                new={"devId": ["4700"], "ownerName": ["bob"]},
            )
        )
        assert decision.serial
        assert decision.reason == "non-commuting-write"

    def test_overlapping_claims_route_serial(self, plan):
        # 42xx keys satisfy both ldap_to_west and ldap_to_all: two
        # claimants in one target group means no disjointness proof.
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.ADD, source="ldap", key="r", new={"devId": ["4200"]}
            )
        )
        assert decision.serial
        assert decision.reason == "partition-overlap"

    def test_uncontested_claim_still_gets_a_lane(self, plan):
        decision = plan.classify(
            UpdateDescriptor(
                op=UpdateOp.ADD, source="ldap", key="r", new={"devId": ["4500"]}
            )
        )
        assert not decision.serial
        assert "ldap_to_all:4500" == decision.lane_key


# -- the sharded queue and its barrier protocol ------------------------------


class ScriptedPlan:
    """A stand-in oracle: key "serial:<reason>" serializes, anything else
    becomes its own lane key."""

    def classify(self, descriptor, rename=False):
        from repro.analysis import LaneDecision

        key = descriptor.key or ""
        if rename:
            return LaneDecision(None, "modify-rdn")
        if key.startswith("serial:"):
            return LaneDecision(None, key.split(":", 1)[1])
        return LaneDecision(key, "partition")


def queue_descriptor(key):
    return UpdateDescriptor(
        op=UpdateOp.ADD, source="ldap", key=key, new={"cn": [key]}
    )


class TestShardedQueue:
    @pytest.fixture
    def queue(self):
        return UpdateQueue(ScriptedPlan(), lanes=3)

    def test_needs_at_least_one_lane(self):
        with pytest.raises(ValueError):
            UpdateQueue(ScriptedPlan(), lanes=0)

    def test_lane_assignment_is_deterministic(self, queue):
        assert queue.lane_of("k1") == queue.lane_of("k1")
        assert queue.lane_of(None) == SERIAL_LANE
        assert all(
            queue.lane_of(f"k{i}") in queue.labels[:-1] for i in range(20)
        )

    def test_claim_draws_one_global_serial_sequence(self, queue):
        serials = [
            queue.claim(queue_descriptor(f"k{i}")).serial for i in range(5)
        ]
        assert serials == [1, 2, 3, 4, 5]
        assert queue.last_serial == 5
        assert len(queue) == 5
        assert queue.peek_serial() == 1

    def test_head_of_lane_runs_immediately(self, queue):
        item = queue.claim(queue_descriptor("k1"))
        assert queue.wait_turn(item, timeout=0.1)
        queue.finish(item)
        assert len(queue) == 0

    def test_lane_fifo_blocks_the_second_item(self, queue):
        first = queue.claim(queue_descriptor("k1"))
        second = queue.claim(queue_descriptor("k1"))
        assert second.lane == first.lane
        assert not queue.wait_turn(second, timeout=0.05)
        assert queue.wait_turn(first, timeout=0.1)
        queue.finish(first)
        assert queue.wait_turn(second, timeout=0.5)
        queue.finish(second)

    def test_serial_item_waits_for_lane_quiescence(self, queue):
        lane_item = queue.claim(queue_descriptor("k1"))
        serial_item = queue.claim(queue_descriptor("serial:unclaimed"))
        later = queue.claim(queue_descriptor("k2"))
        assert serial_item.lane == SERIAL_LANE
        # The barrier: the serial item cannot run while an earlier lane
        # item is outstanding, and later lane items cannot overtake it.
        assert not queue.wait_turn(serial_item, timeout=0.05)
        assert not queue.wait_turn(later, timeout=0.05)
        assert queue.wait_turn(lane_item, timeout=0.1)
        queue.finish(lane_item)
        assert queue.wait_turn(serial_item, timeout=0.5)
        assert not queue.wait_turn(later, timeout=0.05)
        queue.finish(serial_item)
        assert queue.wait_turn(later, timeout=0.5)
        queue.finish(later)

    def test_stop_event_aborts_the_wait(self, queue):
        queue.claim(queue_descriptor("k1"))
        blocked = queue.claim(queue_descriptor("k1"))
        stop = threading.Event()
        stop.set()
        assert not queue.wait_turn(blocked, stop=stop, timeout=5.0)

    def test_abandoned_item_must_still_finish(self, queue):
        first = queue.claim(queue_descriptor("k1"))
        second = queue.claim(queue_descriptor("k1"))
        assert not queue.wait_turn(second, timeout=0.01)
        # Give up on `first` without running it: finish() alone must
        # unwedge the lane for the successor.
        queue.finish(first)
        assert queue.wait_turn(second, timeout=0.5)
        queue.finish(second)

    def test_statistics_count_serial_routing(self, queue):
        queue.claim(queue_descriptor("k1"))
        item = queue.claim(queue_descriptor("serial:unclaimed"))
        assert queue.registry.value("metacomm_queue_enqueued_total") == 2
        assert queue.registry.value("metacomm_queue_serial_fallback_total") == 1
        assert item.reason == "unclaimed"

    def test_lane_snapshot_shape(self, queue):
        queue.claim(queue_descriptor("k1"))
        snapshot = queue.lane_snapshot()
        assert [row["lane"] for row in snapshot] == list(queue.labels)
        assert sum(row["depth"] for row in snapshot) == 1
        assert all(
            set(row)
            == {
                "lane",
                "depth",
                "oldest_age",
                "last_serial",
                "outstanding",
                "limit",
            }
            for row in snapshot
        )

    def test_staleness_aggregates_the_worst_lane(self, queue):
        assert queue.refresh_staleness() == 0.0
        queue.claim(queue_descriptor("k1"))
        age = queue.refresh_staleness()
        assert age > 0.0
        assert queue.oldest_age() >= age

    def test_journal_events_carry_lane_labels(self):
        journal = EventJournal()
        queue = UpdateQueue(ScriptedPlan(), lanes=2, journal=journal)
        lane_item = queue.claim(queue_descriptor("k1"))
        serial_item = queue.claim(queue_descriptor("serial:unclaimed"))
        assert queue.wait_turn(lane_item, timeout=0.1)
        queue.finish(lane_item)
        assert queue.wait_turn(serial_item, timeout=0.5)
        queue.finish(serial_item)

        accepted = journal.events(UPDATE_ACCEPTED)
        assert [e.attributes["lane"] for e in accepted] == [
            lane_item.lane,
            SERIAL_LANE,
        ]
        assert accepted[1].attributes["reason"] == "unclaimed"
        claimed = journal.events(UPDATE_CLAIMED)
        assert {e.attributes["lane"] for e in claimed} == {
            lane_item.lane,
            SERIAL_LANE,
        }
        (barrier,) = journal.events(LANE_BARRIER)
        assert barrier.attributes["serial"] == serial_item.serial
        assert barrier.attributes["waited"] >= 0


# -- the multi-lane coordinator pool -----------------------------------------


def lane_fleet_config(lanes, **overrides):
    return MetaCommConfig(
        pbxes=[PbxConfig(f"pbx-{i}", (str(41 + i),)) for i in range(4)],
        coordinator_lanes=lanes,
        **overrides,
    )


class TestMultiLaneCoordinator:
    @pytest.fixture
    def fleet(self):
        fleet = MetaComm(lane_fleet_config(4))
        fleet.um.start()
        yield fleet
        fleet.close()

    def test_lanes_require_a_routing_plan(self):
        single = MetaComm(MetaCommConfig())
        try:
            with pytest.raises(ValueError, match="routing"):
                UpdateManager(
                    single.server,
                    single.gateway,
                    single.ldap_filter,
                    [],
                    single.error_log,
                    coordinator_lanes=2,
                )
        finally:
            single.close()

    def test_one_queue_class_for_every_lane_count(self, fleet):
        assert type(fleet.um.queue) is UpdateQueue
        assert fleet.um.queue.plan is not None
        assert fleet.um.queue.labels == ("0", "1", "2", "3", SERIAL_LANE)
        single = MetaComm(lane_fleet_config(1))
        try:
            # The paper's queue is the same class with one lane and no
            # routing plan: nothing is proven commuting.
            assert type(single.um.queue) is UpdateQueue
            assert single.um.queue.plan is None
            assert single.um.queue.labels == ("0",)
        finally:
            single.close()

    def test_concurrent_disjoint_clients_stay_consistent(self, fleet):
        errors = []

        def client(i):
            try:
                conn = fleet.connection()
                for j in range(4):
                    conn.add(
                        f"cn=U{i}-{j},o=Lucent",
                        person_attrs(
                            f"U{i}-{j}", "U",
                            definityExtension=f"{41 + i}{j:02d}",
                        ),
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert all(p.size() == 4 for p in fleet.pbxes.values())
        assert fleet.messaging.size() == 16
        assert fleet.consistent()
        registry = fleet.obs.registry
        assert registry.value("metacomm_queue_enqueued_total") == 16
        assert registry.value("metacomm_queue_processed_total") == 16
        assert registry.value("metacomm_queue_serial_fallback_total") == 0

    def test_ddu_drains_through_the_serial_lane(self, fleet):
        fleet.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B",
                                            definityExtension="4100")
        )
        fleet.terminal("pbx-0").execute("change station 4100 room 2B-110")
        (entry,) = fleet.find_person("(definityExtension=4100)")
        assert entry.get("definityRoom") == ("2B-110",)
        assert fleet.consistent()
        assert fleet.obs.registry.value("metacomm_queue_serial_fallback_total") >= 1
        barrier_events = fleet.obs.journal.events(LANE_BARRIER)
        assert barrier_events
        assert all(
            e.attributes["lane"] == SERIAL_LANE for e in barrier_events
        )

    def test_lane_metrics_are_exported(self, fleet):
        fleet.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B",
                                            definityExtension="4100")
        )
        text = fleet.metrics_text()
        assert "metacomm_queue_lane_enqueued_total" in text
        assert 'lane="serial"' in text
        assert "metacomm_queue_lane_depth" in text

    def test_sync_mode_clients_drive_their_own_lanes(self):
        # Without um.start() the client threads are the lane workers:
        # claim/wait_turn/finish run inline on the calling thread.
        fleet = MetaComm(lane_fleet_config(4))
        try:
            assert fleet.um.queue.lanes == 4 and not fleet.um.threaded
            errors = []

            def client(i):
                try:
                    fleet.connection().add(
                        f"cn=U{i},o=Lucent",
                        person_attrs(
                            f"U{i}", "U", definityExtension=f"{41 + i}00"
                        ),
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert fleet.consistent()
        finally:
            fleet.close()

    def test_rename_routes_serial_and_reaches_the_device(self, fleet):
        conn = fleet.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B",
                                            definityExtension="4100")
        )
        before = fleet.obs.registry.value("metacomm_queue_serial_fallback_total")
        conn.modify_rdn("cn=A B,o=Lucent", "cn=A C")
        assert fleet.obs.registry.value("metacomm_queue_serial_fallback_total") == before + 1
        assert fleet.pbxes["pbx-0"].get("4100")["Name"] == "C, A"


# -- lanes=1 must be byte-identical with the paper-serial path ---------------


def failure_workload(fleet):
    """The TestFanoutModes abort scenario: pbx-1 poisoned, one add that
    fails mid-fan-out, then one successful add."""
    from repro.devices import InvalidFieldError

    def explode(op, key):
        raise InvalidFieldError("injected fault")

    fleet.pbxes["pbx-1"].fault_injector = explode
    fleet.connection().add(
        "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
    )
    fleet.pbxes["pbx-1"].fault_injector = None
    fleet.connection().add(
        "cn=C D,o=Lucent", person_attrs("C D", "D", definityExtension="4200")
    )


def error_records(fleet):
    return [
        (str(entry.dn), sorted((k, tuple(v)) for k, v in
                               entry.attributes.items()))
        for entry in fleet.error_log.entries()
    ]


def saga_order(fleet):
    return [
        (e.attributes.get("device"), e.attributes.get("serial"))
        for e in fleet.obs.journal.events(SAGA_COMPENSATED)
    ]


class TestSingleLaneEquivalence:
    def test_error_log_and_saga_order_match_serial_mode(self):
        config = dict(
            pbxes=[PbxConfig(f"pbx-{i}", ("4",)) for i in range(3)],
            undo_on_failure=True,
        )
        serial = MetaComm(MetaCommConfig(**config))
        threaded = MetaComm(MetaCommConfig(**config, coordinator_lanes=1))
        threaded.um.start()
        try:
            failure_workload(serial)
            failure_workload(threaded)
            assert error_records(serial) == error_records(threaded)
            assert saga_order(serial) == saga_order(threaded)
            # The abort scenario leaves the same (in)consistency verdict
            # either way — lanes=1 changes nothing observable.
            assert serial.consistent() == threaded.consistent()
            assert (
                serial.um.queue.last_serial == threaded.um.queue.last_serial
            )
        finally:
            serial.close()
            threaded.close()
