"""Tests for synchronization: initial load, disconnected recovery, quiesce
isolation and persistent connections (paper sections 4.4 and 5.1)."""

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.ldap import LdapError, ResultCode
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    return MetaComm(MetaCommConfig())


class TestInitialLoad:
    """Populating an empty directory from a device that already has data."""

    def test_initial_load_from_pbx(self, system):
        pbx = system.pbx()
        # Simulate pre-existing stations administered before MetaComm: go
        # behind the filter's back entirely.
        for ext, name in (("4100", "Doe, John"), ("4101", "Lu, Jill")):
            pbx._records[ext] = {"Extension": ext, "Name": name}

        report = system.sync.synchronize("definity")
        assert report.added == 2
        assert report.errors == []
        people = system.find_person("(objectClass=person)")
        assert {e.first("cn") for e in people} == {"John Doe", "Jill Lu"}
        assert system.consistent()

    def test_initial_load_provisions_other_devices_too(self, system):
        system.pbx()._records["4100"] = {"Extension": "4100", "Name": "Doe, John"}
        system.sync.synchronize("definity")
        # "other devices that share the data being synchronized are
        # consistent" — the MP got its subscriber.
        assert system.messaging.contains("+1 908 582 4100")

    def test_idempotent_second_run(self, system):
        system.pbx()._records["4100"] = {"Extension": "4100", "Name": "Doe, John"}
        first = system.sync.synchronize("definity")
        second = system.sync.synchronize("definity")
        assert first.added == 1
        assert second.added == 0
        assert second.modified == 0
        assert second.skipped >= 1


class TestDisconnectedRecovery:
    """Lost updates while device and directory could not talk."""

    def test_updates_made_while_disconnected_recovered(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        # Disconnect: changes at the device do not reach the UM.
        binding = system.um.binding("definity")
        binding._saved_handler = binding.filter._ddu_handler
        binding.filter._ddu_handler = None
        system.pbx().change_station("4100", Room="7G")
        assert not system.consistent()

        # Reconnect and resynchronize.
        binding.filter._ddu_handler = binding._saved_handler
        report = system.sync.synchronize("definity")
        assert report.modified == 1
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.first("definityRoom") == "7G"
        assert system.consistent()

    def test_station_removed_while_disconnected(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        binding = system.um.binding("definity")
        handler = binding.filter._ddu_handler
        binding.filter._ddu_handler = None
        system.pbx().remove_station("4100")
        binding.filter._ddu_handler = handler

        report = system.sync.synchronize("definity")
        assert report.deleted == 1
        entry = conn.get("cn=A B,o=Lucent")
        assert not entry.has("definityExtension")

    def test_sync_report_renders(self, system):
        report = system.sync.synchronize("definity")
        text = str(report)
        assert "definity" in text and "examined=" in text


class TestQuiesceIsolation:
    """Section 5.1: sync sequences run in isolation."""

    def test_updates_blocked_during_sync(self, system):
        blocked = []
        original = system.sync._sync_records_in

        def probing(binding, report, session, connection):
            other = system.connection()
            try:
                other.add("cn=Intruder,o=Lucent", person_attrs("Intruder", "I"))
            except LdapError as exc:
                blocked.append(exc.code)
            return original(binding, report, session, connection)

        system.sync._sync_records_in = probing
        system.pbx()._records["4100"] = {"Extension": "4100", "Name": "A, B"}
        system.sync.synchronize("definity")
        assert blocked == [ResultCode.BUSY]

    def test_quiesce_released_after_sync(self, system):
        system.sync.synchronize("definity")
        assert not system.gateway.quiesced
        system.connection().add("cn=After,o=Lucent", person_attrs("After", "A"))

    def test_quiesce_released_after_sync_error(self, system):
        system.pbx()._records["4100"] = {"Extension": "4100", "Name": "A, B"}

        def explode(*args, **kwargs):
            raise RuntimeError("sync blew up")

        system.sync._sync_records_in = explode
        with pytest.raises(RuntimeError):
            system.sync.synchronize("definity")
        assert not system.gateway.quiesced


class TestPersistentConnections:
    """Section 5.1: a sync is a sequence of updates on one connection."""

    def test_sync_uses_one_persistent_connection(self, system):
        for ext in ("4100", "4101", "4102"):
            system.pbx()._records[ext] = {"Extension": ext, "Name": f"U, {ext}"}
        before = dict(system.um.connections.statistics)
        system.sync.synchronize("definity")
        after = system.um.connections.statistics
        assert after["persistent"] == before["persistent"] + 1
        assert after["events"] >= before["events"] + 3

    def test_individual_updates_do_not_open_persistent_connections(self, system):
        before = system.um.connections.statistics["persistent"]
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert system.um.connections.statistics["persistent"] == before


class TestPushDirectory:
    """Directory-authoritative provisioning of a fresh device."""

    def test_provisions_empty_device(self, system):
        conn = system.connection()
        for i in range(3):
            conn.add(
                f"cn=U{i},o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=f"41{i:02d}"),
            )
        # Wipe the PBX (simulating replacement hardware).
        for key in system.pbx().keys():
            system.pbx()._records.pop(key)
        assert system.pbx().size() == 0

        report = system.sync.push_directory("definity")
        assert report.added == 3
        assert system.pbx().size() == 3

    def test_removes_unsanctioned_records(self, system):
        system.pbx()._records["4999"] = {"Extension": "4999", "Name": "Ghost"}
        report = system.sync.push_directory("definity")
        assert report.deleted == 1
        assert not system.pbx().contains("4999")

    def test_respects_partition(self):
        system = MetaComm(
            MetaCommConfig(
                pbxes=[PbxConfig("pbx-a", ("41",)), PbxConfig("pbx-b", ("42",))]
            )
        )
        conn = system.connection()
        conn.add(
            "cn=A,o=Lucent", person_attrs("A", "A", definityExtension="4100")
        )
        conn.add(
            "cn=B,o=Lucent", person_attrs("B", "B", definityExtension="4200")
        )
        for pbx_name in ("pbx-a", "pbx-b"):
            for key in system.pbx(pbx_name).keys():
                system.pbx(pbx_name)._records.pop(key)
        report_a = system.sync.push_directory("pbx-a")
        report_b = system.sync.push_directory("pbx-b")
        assert report_a.added == 1 and report_b.added == 1
        assert system.pbx("pbx-a").contains("4100")
        assert system.pbx("pbx-b").contains("4200")

    def test_skips_up_to_date_records(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        report = system.sync.push_directory("definity")
        assert report.added == 0
        assert report.modified == 0
        assert report.skipped >= 1


class TestPartitionedSync:
    """Synchronizing one PBX of a fleet whose switches split the extension
    space by prefix must leave every other PBX's data alone."""

    PREFIXES = ("41", "42", "43", "44", "45", "46", "47", "48")

    def test_sync_of_one_pbx_leaves_the_other_pbxes_alone(self):
        system = MetaComm(
            MetaCommConfig(
                pbxes=[PbxConfig(f"pbx-{p}", (p,)) for p in self.PREFIXES]
            )
        )
        conn = system.connection()
        for prefix in self.PREFIXES:
            for n in range(2):
                cn = f"P{prefix}{n} Station"
                conn.add(
                    f"cn={cn},o=Lucent",
                    person_attrs(cn, "Station", definityExtension=f"{prefix}0{n}"),
                )
        # A station administered on pbx-42 behind MetaComm's back.
        system.pbx("pbx-42")._records["4209"] = {
            "Extension": "4209", "Name": "Late, Lou",
        }
        counts = {
            name: len(pbx.keys()) for name, pbx in system.pbxes.items()
        }
        directory = {
            str(e.dn).lower(): e.attributes.normalized()
            for e in system.find_person("(objectClass=person)")
        }

        report = system.sync.synchronize("pbx-42")

        assert report.errors == []
        assert report.added == 1 and report.deleted == 0
        after = {
            str(e.dn).lower(): e.attributes.normalized()
            for e in system.find_person("(objectClass=person)")
        }
        assert {dn: after[dn] for dn in directory} == directory
        assert set(after) - set(directory) == {"cn=lou late,o=lucent"}
        for name, pbx in system.pbxes.items():
            assert len(pbx.keys()) == counts[name], name
        assert system.consistent()
