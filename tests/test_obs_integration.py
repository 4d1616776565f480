"""End-to-end observability tests: tracing + metrics across the pipeline.

The acceptance bar of this subsystem: one LDAP add through a wired
MetaComm produces a queryable trace covering trigger, queue, per-device
apply and supplemental write — each leg with a nonzero wall-clock
duration — and one scrape covers every component's counters.
"""

import threading

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.devices import InvalidFieldError
from repro.ldap import Modification
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.protocol import AddRequest, Session
from repro.ltap.triggers import ChangeType, TriggerEvent
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def explode(op, key):
    raise InvalidFieldError("injected device fault")


@pytest.fixture
def system():
    return MetaComm(MetaCommConfig(organizations=("Marketing",)))


def add_john(system):
    system.connection().add(
        "cn=John Doe,o=Marketing,o=Lucent",
        person_attrs("John Doe", "Doe", definityExtension="4100"),
    )


class TestUpdateTrace:
    def test_single_add_produces_full_trace(self, system):
        """The ISSUE's acceptance criterion, verbatim."""
        add_john(system)
        trace = system.last_trace("update")
        assert trace is not None and trace.finished
        names = set(trace.span_names())
        # >= 4 distinct stages: trigger, queue, per-device apply,
        # supplemental write.
        assert {
            "ltap.trigger",
            "queue.wait",
            "filter.apply",
            "ldap.supplemental",
        } <= names
        for span in trace.spans:
            assert span.duration > 0, f"{span.name} has no duration"

    def test_trace_covers_every_device(self, system):
        add_john(system)
        trace = system.last_trace("update")
        devices = {
            span.attributes["device"] for span in trace.find("filter.apply")
        }
        assert devices == {"definity", "messaging"}

    def test_trace_attributes_identify_the_update(self, system):
        add_john(system)
        trace = system.last_trace("update")
        assert trace.attributes["op"] == "add"
        assert "cn=John Doe" in trace.attributes["dn"]

    def test_one_trace_per_update_sequence(self, system):
        # The supplemental write re-enters the gateway mid-sequence; it
        # must join the open trace, not open a nested one.
        add_john(system)
        assert len(system.traces("update")) == 1

    def test_failed_apply_marks_span(self, system):
        add_john(system)
        # Station 4100 exists; a second person claiming it makes the PBX
        # filter raise, which the span records as an error attribute.
        system.connection().add(
            "cn=Dupe,o=Marketing,o=Lucent",
            person_attrs("Dupe", "Dupe", definityExtension="4100"),
        )
        trace = system.last_trace("update")
        (span,) = [
            s for s in trace.find("filter.apply") if "error" in s.attributes
        ]
        assert span.attributes["device"] == "definity"

    def test_ddu_trace(self, system):
        add_john(system)
        system.terminal().execute("change station 4100 room 2B-110")
        trace = system.last_trace("ddu")
        assert trace is not None and trace.finished
        names = set(trace.span_names())
        assert {"ddu.translate", "ddu.forward", "filter.apply"} <= names
        assert trace.attributes["device"] == "definity"

    def test_ring_buffer_respects_configured_capacity(self):
        # Traces are read from the journal, so its capacity bounds them:
        # an add journals 5 events (3 + one per device), so 7 retain the
        # last add and the tail (closing event included) of the one before.
        system = MetaComm(
            MetaCommConfig(organizations=("Marketing",), journal_capacity=7)
        )
        for i in range(4):
            system.connection().add(
                f"cn=U{i},o=Marketing,o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
            )
        kept = system.traces("update")
        assert len(kept) == 2
        assert all(trace.finished for trace in kept)
        assert "cn=U3" in kept[-1].attributes["dn"]

    def test_threaded_mode_traces_cross_the_thread_hop(self, system):
        # The add runs on a client thread of its own; its trace still
        # carries the queue wait and the fan-out it ran there.
        client = threading.Thread(target=add_john, args=(system,))
        client.start()
        client.join(timeout=10)
        assert not client.is_alive()
        trace = system.last_trace("update")
        assert {"queue.wait", "filter.apply"} <= set(trace.span_names())


class TestTraceViews:
    """Each journey kind, read back from the journal: its spans cover the
    legs above, and its disjoint stage timings fit inside its total."""

    def test_each_journey_has_its_spans_and_fits_its_total(self, system):
        conn = system.connection()
        add_john(system)
        dn = "cn=John Doe,o=Marketing,o=Lucent"
        conn.modify(dn, [Modification.replace("definityRoom", "2B-110")])
        conn.modify_rdn(dn, "cn=John Smith")
        system.terminal().execute("change station 4100 room 2B-111")
        system.pbx().fault_injector = explode
        conn.add(
            "cn=Dupe,o=Marketing,o=Lucent",
            person_attrs("Dupe", "Dupe", definityExtension="4101"),
        )
        journeys = system.traces()
        assert [t.name for t in journeys] == [
            "update", "update", "update", "ddu", "update",
        ]
        full = {
            "ltap.trigger", "ltap.server", "stage.intake", "queue.wait",
            "closure.enrich", "stage.plan", "stage.fanout", "filter.apply",
            "stage.merge", "ldap.supplemental",
        }
        expected = [
            full,
            full,
            full,
            full | {"ddu.translate", "ddu.forward"},
            full - {"stage.merge", "ldap.supplemental"},  # aborted
        ]
        for trace, names in zip(journeys, expected):
            assert trace.finished
            assert names <= set(trace.span_names()), trace.trace_id
            assert all(seconds > 0 for seconds in trace.stages.values())
            assert sum(trace.stages.values()) <= trace.duration
            assert trace.serial is not None
        (failed,) = journeys[-1].find("filter.apply")
        assert failed.attributes["device"] == "definity"
        assert "error" in failed.attributes


class TestMetrics:
    def test_scrape_covers_the_pipeline(self, system):
        add_john(system)
        text = system.metrics_text()
        assert "metacomm_queue_depth 0" in text
        assert 'metacomm_um_fanout_total{device="definity"} 1' in text
        assert 'metacomm_um_fanout_total{device="messaging"} 1' in text
        assert 'metacomm_ltap_requests_total{kind="update"}' in text
        assert 'metacomm_ldap_ops_total{op="add"}' in text
        assert "metacomm_queue_wait_seconds_count 1" in text
        assert "metacomm_um_sequence_seconds_count 1" in text
        # Module-level lexpress counter rides along via the global registry.
        assert "lexpress_instructions_total" in text

    def test_json_export(self, system):
        import json

        add_john(system)
        document = json.loads(system.metrics_json())
        assert document["metrics"]["metacomm_um_ldap_events_total"][
            "samples"
        ] == [{"labels": {}, "value": 1}]
        assert any(t["name"] == "update" for t in document["traces"])

    def test_component_counts_read_from_registry(self, system):
        add_john(system)
        registry = system.obs.registry
        assert registry.value("metacomm_queue_enqueued_total") == 1
        assert registry.value("metacomm_queue_processed_total") == 1
        assert registry.value("metacomm_um_ldap_events_total") == 1
        assert registry.value("metacomm_um_fanout_total") == 2
        assert registry.value("metacomm_um_supplemental_writes_total") == 1
        assert registry.value("metacomm_ltap_requests_total", kind="update") >= 1
        assert sum(
            registry.value("metacomm_ldap_ops_total", op=op)
            for op in ("add", "delete", "modify", "modifyrdn")
        ) >= 1
        pbx_filter = system.um.bindings[0].filter
        assert registry.value(
            "metacomm_filter_events_total", filter=pbx_filter.name, event="applied"
        ) == 1

    def test_runtime_components_keep_no_statistics(self, system):
        """Every runtime count lives in the registry: the only
        ``statistics`` left on the runtime path is the UM's one-key
        property, and it reads the registry too."""
        add_john(system)
        system.terminal().execute("change station 4100 room 2B-110")
        gateway = system.gateway
        components = [
            system.server,
            gateway,
            gateway.locks,
            gateway.triggers,
            system.um.queue,
            system.um.connections,
            *(binding.filter for binding in system.um.bindings),
            system.um.ldap_filter,
        ]
        for component in components:
            assert not hasattr(component, "statistics"), component
        reapplied = system.obs.registry.value("metacomm_um_reapplied_total")
        assert reapplied >= 1
        assert set(system.um.statistics) == {"reapplied"}
        assert system.um.statistics["reapplied"] == reapplied

    def test_two_systems_do_not_share_counters(self):
        first = MetaComm(MetaCommConfig(organizations=("Marketing",)))
        second = MetaComm(MetaCommConfig(organizations=("Marketing",)))
        add_john(first)
        assert first.obs.registry.value("metacomm_um_ldap_events_total") == 1
        assert second.obs.registry.value("metacomm_um_ldap_events_total") == 0

    def test_connection_events_are_counted(self, system):
        # Satellite: _handle_connection_event used to drop events on the
        # floor; now every delivery is counted by connection kind.
        entry = Entry(
            DN.parse("cn=X,o=Marketing,o=Lucent"),
            person_attrs("X", "X"),
        )
        event = TriggerEvent(
            change_type=ChangeType.ADD,
            dn=entry.dn,
            request=AddRequest(entry),
            before=None,
            after=entry,
            session=Session(),
        )
        with system.um.connections.open(persistent=True) as conn:
            conn.send(event)
            conn.send(event)
        with system.um.connections.open(persistent=False) as conn:
            conn.send(event)
        registry = system.obs.registry
        assert (
            registry.value("metacomm_um_connection_events_total", kind="persistent")
            == 2
        )
        assert (
            registry.value("metacomm_um_connection_events_total", kind="single_shot")
            == 1
        )


class TestDisabledObservability:
    def test_disabled_system_still_works(self):
        system = MetaComm(
            MetaCommConfig(organizations=("Marketing",), observability=False)
        )
        add_john(system)
        assert system.pbx().contains("4100")
        assert system.consistent()
        assert system.traces() == []
        assert system.last_trace("update") is None
        # Counters exist but stayed at zero.
        registry = system.obs.registry
        assert registry.value("metacomm_queue_enqueued_total") == 0
        assert registry.value("metacomm_queue_processed_total") == 0

    def test_disabled_scrape_renders_zeros(self):
        system = MetaComm(
            MetaCommConfig(organizations=("Marketing",), observability=False)
        )
        add_john(system)
        assert "metacomm_um_ldap_events_total 0" in system.metrics_text()


class TestCompensationRegression:
    """Satellite: the supplemental-write result used to be assigned to
    ``applied``, shadowing the saga compensation list in ``_run_sequence``."""

    def test_compensate_receives_tuples_after_supplemental_write(self):
        system = MetaComm(
            MetaCommConfig(
                organizations=("Marketing",),
                abort_on_failure=False,
                undo_on_failure=True,
            )
        )
        seen = []
        original = system.um._compensate

        def spying(applied, trace=None):
            seen.append(list(applied))
            return original(applied, trace)

        system.um._compensate = spying
        add_john(system)  # performs a supplemental write (echo of the add)
        assert system.obs.registry.value("metacomm_um_supplemental_writes_total") == 1
        # Now make the messaging platform (applied second) reject the next
        # add after the PBX (applied first) accepted it: compensation must
        # receive the (binding, update, before) list and roll the PBX back.
        from repro.core.filters.base import FilterError

        def failing_apply(update):
            raise FilterError("messaging", "messaging store offline")

        system.um.bindings[1].filter.apply = failing_apply
        system.connection().add(
            "cn=Pat Smith,o=Marketing,o=Lucent",
            person_attrs("Pat Smith", "Smith", definityExtension="4101"),
        )
        assert seen, "_compensate was never invoked"
        for call in seen:
            for item in call:
                binding, update, before = item  # tuple shape intact
                assert hasattr(binding, "filter")
        assert system.obs.registry.value("metacomm_um_compensated_total") >= 1
        # The PBX add was undone.
        assert not system.pbx().contains("4101")
