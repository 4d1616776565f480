"""End-to-end integration tests for the MetaComm core.

Each class exercises one of the paper's central behaviours through the
full Figure-1 stack: LTAP gateway → Update Manager → filters → devices.
"""

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.ldap import Modification
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    return MetaComm(MetaCommConfig(organizations=("Marketing", "R&D")))


@pytest.fixture
def conn(system):
    return system.connection()


class TestLdapOriginatedUpdates:
    """The WBA path: updates through LTAP fan out to every device."""

    def test_add_provisions_pbx_and_messaging(self, system, conn):
        conn.add(
            "cn=John Doe,o=Marketing,o=Lucent",
            person_attrs(
                "John Doe", "Doe",
                definityExtension="4100",
                telephoneNumber="+1 908 582 4100",
            ),
        )
        station = system.pbx().station("4100")
        assert station["Name"] == "Doe, John"
        subscriber = system.messaging.subscriber("+1 908 582 4100")
        assert subscriber["SubscriberName"] == "John Doe"

    def test_generated_mailbox_id_folds_back(self, system, conn):
        """Section 5.5: device-generated info reaches the LDAP server."""
        conn.add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        mailbox = system.messaging.mailbox_of("+1 908 582 4100")
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.get("mpMailboxId") == (mailbox,)

    def test_transitive_closure_derives_phone_from_extension(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4123"),
        )
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.get("telephoneNumber") == ("+1 908 582 4123",)

    def test_transitive_closure_derives_extension_from_phone(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", telephoneNumber="+1 908 582 4321"),
        )
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.get("definityExtension") == ("4321",)
        assert system.pbx().contains("4321")

    def test_modify_propagates_to_devices(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        conn.modify(
            "cn=A B,o=Lucent", [Modification.replace("definityRoom", "2B-110")]
        )
        assert system.pbx().station("4100")["Room"] == "2B-110"

    def test_delete_cleans_all_devices(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        conn.delete("cn=A B,o=Lucent")
        assert not system.pbx().contains("4100")
        assert not system.messaging.contains("+1 908 582 4100")

    def test_person_without_devices_touches_nothing(self, system, conn):
        conn.add("cn=NoPhone,o=Lucent", person_attrs("NoPhone", "NoPhone"))
        assert system.pbx().size() == 0
        assert system.messaging.size() == 0

    def test_last_updater_stamped(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert conn.get("cn=A B,o=Lucent").get("lastUpdater") == ("ldap",)

    def test_consistency_oracle(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert system.consistent()
        # Sabotage the device behind MetaComm's back, without notification.
        system.pbx()._records["4100"]["Room"] = "sneaky"
        assert not system.consistent()
        assert any("Room" in p or "definityRoom" in p for p in system.inconsistencies())


class TestDirectDeviceUpdates:
    """Section 4.4's DDU sequence, driven from the craft terminal."""

    def test_ddu_add_materializes_person(self, system, conn):
        system.terminal().execute('add station 4200 name "Smith, Pat" room 3C')
        (entry,) = system.find_person("(definityExtension=4200)")
        assert entry.first("cn") == "Pat Smith"
        assert entry.first("definityRoom") == "3C"
        assert entry.first("lastUpdater") == "definity"

    def test_ddu_propagates_to_other_device(self, system, conn):
        system.terminal().execute('add station 4200 name "Smith, Pat"')
        subscriber = system.messaging.subscriber("+1 908 582 4200")
        assert subscriber["SubscriberName"] == "Pat Smith"

    def test_ddu_modify_updates_directory(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.terminal().execute("change station 4100 room 5D")
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.first("definityRoom") == "5D"

    def test_ddu_delete_strips_directory_attributes(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.terminal().execute("remove station 4100")
        entry = conn.get("cn=A B,o=Lucent")
        assert not entry.has("definityExtension")
        # The person survives — only the device data is gone.
        assert entry.first("cn") == "A B"

    def test_ddu_reapplied_to_origin_as_conditional(self, system, conn):
        """Write-write consistency: the UM reapplies the DDU to the device
        that originated it (sections 4.4/5.4)."""
        system.terminal().execute('add station 4200 name "Smith, Pat"')
        assert system.obs.registry.value(
            "metacomm_filter_events_total", filter="definity", event="conditional"
        ) >= 1
        assert system.obs.registry.value("metacomm_um_reapplied_total") >= 1
        assert system.consistent()

    def test_ddu_name_change_is_rdn_pair(self, system, conn):
        """Section 5.1: a DDU that changes the naming attribute becomes a
        ModifyRDN + Modify pair at the LDAP level."""
        system.terminal().execute('add station 4200 name "Smith, Pat" room 1A')
        system.terminal().execute('change station 4200 name "Smith, Patricia" room 9Z')
        hits = system.find_person("(definityExtension=4200)")
        assert [e.first("cn") for e in hits] == ["Patricia Smith"]
        assert hits[0].first("definityRoom") == "9Z"
        assert not system.find_person("(cn=Pat Smith)")

    def test_device_usable_without_metacomm(self):
        from repro.devices import DefinityPbx

        lone = DefinityPbx("standalone", ("4",))
        lone.add_station("4100", Name="Solo")  # no listener, no crash
        assert lone.station("4100")["Name"] == "Solo"

    def test_concurrent_paths_converge(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.terminal().execute("change station 4100 room 1A")
        conn.modify("cn=A B,o=Lucent", [Modification.replace("definityCOS", "2")])
        system.terminal().execute("change station 4100 building X")
        assert system.consistent()
        station = system.pbx().station("4100")
        assert station["Room"] == "1A"
        assert station["COS"] == "2"
        assert station["Building"] == "X"


class TestMultiPbxPartitioning:
    """Section 4.2's partition migration across two switches."""

    @pytest.fixture
    def system(self):
        return MetaComm(
            MetaCommConfig(
                pbxes=[
                    PbxConfig("pbx-west", ("41", "42")),
                    PbxConfig("pbx-east", ("43",)),
                ]
            )
        )

    def test_add_routes_to_owning_pbx(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert system.pbx("pbx-west").contains("4100")
        assert not system.pbx("pbx-east").contains("4100")

    def test_extension_change_migrates_between_pbxes(self, system, conn):
        """'lexpress translates a modification of a telephone number into
        two updates: a deletion in one PBX and an add in another PBX.'"""
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        conn.modify(
            "cn=A B,o=Lucent",
            [
                Modification.replace("definityExtension", "4300"),
                Modification.replace("telephoneNumber", "+1 908 582 4300"),
            ],
        )
        assert not system.pbx("pbx-west").contains("4100")
        assert system.pbx("pbx-east").contains("4300")
        assert system.consistent()

    def test_modify_within_partition_stays(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        conn.modify(
            "cn=A B,o=Lucent",
            [
                Modification.replace("definityExtension", "4250"),
                Modification.replace("telephoneNumber", "+1 908 582 4250"),
            ],
        )
        assert system.pbx("pbx-west").contains("4250")
        assert not system.pbx("pbx-west").contains("4100")
        assert system.pbx("pbx-east").size() == 0

    def test_ddu_on_one_pbx_does_not_leak_to_other(self, system, conn):
        system.terminal("pbx-west").execute('add station 4100 name "A, B"')
        assert system.pbx("pbx-west").contains("4100")
        assert not system.pbx("pbx-east").contains("4100")
        assert system.consistent()


class TestFailureHandling:
    """Section 4.4: aborted sequences, the error log, admin notification."""

    def test_device_failure_logged_and_admin_notified(self, system, conn):
        pages = []
        system.error_log.add_admin_listener(pages.append)

        def explode(op, key):
            from repro.devices import InvalidFieldError

            raise InvalidFieldError("injected device fault")

        system.pbx().fault_injector = explode
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert len(system.error_log) == 1
        assert pages and pages[0].target == "definity"
        assert "injected" in pages[0].message
        assert system.obs.registry.value("metacomm_um_aborted_sequences_total") == 1

    def test_abort_stops_remaining_sequence(self, system, conn):
        def explode(op, key):
            from repro.devices import InvalidFieldError

            raise InvalidFieldError("boom")

        system.pbx().fault_injector = explode
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        # PBX failed first; with abort_on_failure the MP was never touched.
        assert system.messaging.size() == 0

    def test_best_effort_mode_continues(self):
        system = MetaComm(MetaCommConfig(abort_on_failure=False))
        conn = system.connection()

        def explode(op, key):
            from repro.devices import InvalidFieldError

            raise InvalidFieldError("boom")

        system.pbx().fault_injector = explode
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert system.messaging.size() == 1  # MP still provisioned

    def test_error_entries_browsable_and_clearable(self, system, conn):
        def explode(op, key):
            from repro.devices import InvalidFieldError

            raise InvalidFieldError("boom")

        system.pbx().fault_injector = explode
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        (error,) = system.error_log.entries()
        assert error.first("metacommErrorTarget") == "definity"
        assert system.error_log.clear() == 1
        assert len(system.error_log) == 0

    def test_resync_repairs_after_failure(self, system, conn):
        from repro.devices import InvalidFieldError

        calls = {"n": 0}

        def explode_once(op, key):
            if calls["n"] == 0:
                calls["n"] += 1
                raise InvalidFieldError("transient fault")

        system.pbx().fault_injector = explode_once
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert not system.pbx().contains("4100")  # the update was lost
        system.pbx().fault_injector = None
        report = system.sync.push_directory("definity")
        assert report.added == 1
        assert system.pbx().contains("4100")
        # The aborted sequence also skipped the derived LDAP attributes and
        # the messaging platform; a from-device sync completes the repair.
        system.sync.synchronize("definity")
        assert system.consistent()
        assert system.messaging.contains("+1 908 582 4100")


class TestUmCrashWindow:
    """Section 5.1: a UM crash between ModifyRDN and Modify leaves readers
    an inconsistent entry until resynchronization repairs it."""

    def test_crash_between_rdn_and_modify(self, system, conn):
        from repro.core import UmCrash

        system.terminal().execute('add station 4200 name "Smith, Pat" room 1A')

        def crash(stage):
            raise UmCrash(stage)

        system.ldap_filter.crash_hook = crash
        with pytest.raises(UmCrash):
            system.terminal().execute(
                'change station 4200 name "Smith, Patricia" room 9Z'
            )
        system.ldap_filter.crash_hook = None

        # The rename happened but the room did not follow: readers see an
        # inconsistent entry, exactly the window the paper describes.
        (entry,) = system.find_person("(definityExtension=4200)")
        assert entry.first("cn") == "Patricia Smith"
        assert entry.first("definityRoom") != "9Z"

        # Restart + resynchronize: the device is authoritative.
        report = system.sync.synchronize("definity")
        assert report.modified >= 1
        (entry,) = system.find_person("(definityExtension=4200)")
        assert entry.first("definityRoom") == "9Z"
        assert system.consistent()


class TestLocking:
    def test_lock_held_during_whole_sequence(self, system):
        """LTAP blocks conflicting LDAP updates until the UM finishes."""
        holds = []
        original_apply = system.um.bindings[0].filter.apply

        def spying_apply(update):
            holds.append(system.gateway.locks.held_count() > 0)
            return original_apply(update)

        system.um.bindings[0].filter.apply = spying_apply
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        assert holds and all(holds)

    def test_no_locks_leak_after_updates(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.terminal().execute("change station 4100 room 1A")
        assert system.gateway.locks.held_count() == 0


class TestIdentityResolution:
    """A person whose device data was stripped is re-attached, not
    duplicated, when the device record comes back (found by the stateful
    property machine)."""

    def test_rehire_after_station_removal_reattaches(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        system.terminal().execute("remove station 4100")
        # The person survived with device data stripped; now the station
        # comes back on the craft terminal.
        system.terminal().execute('add station 4100 name "B, A"')
        people = system.find_person("(cn=A B)")
        assert len(people) == 1  # no duplicate "A B (4100)" entry
        assert people[0].first("definityExtension") == "4100"
        assert system.consistent()

    def test_same_name_different_extension_not_merged(self, system, conn):
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        # A second, distinct person with the same name on another station.
        system.terminal().execute('add station 4200 name "B, A"')
        people = system.find_person("(cn=A B*)")
        assert len(people) == 2
        extensions = {p.first("definityExtension") for p in people}
        assert extensions == {"4100", "4200"}
        assert system.consistent()


#: The two fan-out modes: inline paper-serial, and the parallel
#: event-driven device links with window and batch > 1.
FANOUT_MODES = {
    "serial": {},
    "parallel": dict(device_links=True, link_window=4, link_batch=8),
}


class TestFanoutModes:
    """The staged pipeline must behave identically whether the fan-out
    stage applies devices inline and serially or over the device links —
    every scenario here is checked against the consistent() oracle in
    both modes."""

    @pytest.fixture(params=sorted(FANOUT_MODES))
    def fleet(self, request):
        fleet = MetaComm(
            MetaCommConfig(
                pbxes=[
                    PbxConfig("pbx-1", ("4",)),
                    PbxConfig("pbx-2", ("4",)),
                    PbxConfig("pbx-3", ("4",)),
                ],
                **FANOUT_MODES[request.param],
            )
        )
        yield fleet
        fleet.close()

    def test_add_reaches_every_repository(self, fleet):
        fleet.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        for name in ("pbx-1", "pbx-2", "pbx-3"):
            assert fleet.pbxes[name].contains("4100")
        assert fleet.messaging.size() == 1
        assert fleet.consistent()

    def test_modify_and_delete(self, fleet):
        conn = fleet.connection()
        conn.add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        conn.modify(
            "cn=A B,o=Lucent", [Modification.replace("definityCos", "2")]
        )
        for name in ("pbx-1", "pbx-2", "pbx-3"):
            assert fleet.pbxes[name].get("4100")["COS"] == "2"
        assert fleet.consistent()
        conn.delete("cn=A B,o=Lucent")
        for name in ("pbx-1", "pbx-2", "pbx-3"):
            assert not fleet.pbxes[name].contains("4100")
        assert fleet.messaging.size() == 0
        assert fleet.consistent()

    def test_ddu_propagates_to_peers(self, fleet):
        fleet.terminal("pbx-2").execute('add station 4100 name "B, A"')
        for name in ("pbx-1", "pbx-2", "pbx-3"):
            assert fleet.pbxes[name].contains("4100")
        assert fleet.consistent()

    def test_abort_leaves_no_partial_state(self, fleet):
        def explode(op, key):
            from repro.devices import InvalidFieldError

            raise InvalidFieldError("injected fault")

        fleet.pbxes["pbx-2"].fault_injector = explode
        fleet.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", definityExtension="4100")
        )
        # Serial mode never reached pbx-3/messaging; links mode rolled
        # them back — either way nothing past the failure survives.
        assert not fleet.pbxes["pbx-3"].contains("4100")
        assert fleet.messaging.size() == 0
        assert len(fleet.error_log) == 1

    def test_best_effort_continues_past_failure(self):
        for mode in FANOUT_MODES.values():
            fleet = MetaComm(
                MetaCommConfig(
                    pbxes=[
                        PbxConfig("pbx-1", ("4",)),
                        PbxConfig("pbx-2", ("4",)),
                        PbxConfig("pbx-3", ("4",)),
                    ],
                    abort_on_failure=False,
                    **mode,
                )
            )
            try:

                def explode(op, key):
                    from repro.devices import InvalidFieldError

                    raise InvalidFieldError("injected fault")

                fleet.pbxes["pbx-2"].fault_injector = explode
                fleet.connection().add(
                    "cn=A B,o=Lucent",
                    person_attrs("A B", "B", definityExtension="4100"),
                )
                assert fleet.pbxes["pbx-1"].contains("4100")
                assert fleet.pbxes["pbx-3"].contains("4100")
                assert fleet.messaging.size() == 1
                assert len(fleet.error_log) == 1
            finally:
                fleet.close()


def _partitioned_lanes_system() -> MetaComm:
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i}", (str(41 + i),)) for i in range(4)],
            coordinator_lanes=4,
        )
    )


class TestClosureDerivedAttributes:
    """An attribute the transitive closure derives reaches the directory
    even when the entry already holds a value for it: the surname a
    rename derives through the PBX Name, the phone number a new
    extension derives.  A value the client sets explicitly still wins."""

    @pytest.fixture(params=["default", "lanes-4"])
    def fleet(self, request):
        if request.param == "default":
            system, ext = MetaComm(MetaCommConfig()), "4100"
        else:
            system, ext = _partitioned_lanes_system(), "4300"
            system.um.start()
        yield system, ext
        system.close()

    def _add(self, system, ext: str) -> str:
        dn = "cn=Ann Lee,o=Lucent"
        system.connection().add(
            dn, person_attrs("Ann Lee", "Lee", definityExtension=ext)
        )
        return dn

    def test_rename_that_changes_the_surname(self, fleet):
        system, ext = fleet
        self._add(system, ext)
        system.connection().modify_rdn("cn=Ann Lee,o=Lucent", "cn=Ann Smith")
        entry = system.find_person("(cn=Ann Smith)")[0]
        assert entry.get("sn") == ("Smith",)
        assert system.pbxes[_pbx_of(system, ext)].get(ext)["Name"] == "Smith, Ann"
        assert system.inconsistencies() == []

    def test_extension_change_without_the_phone(self, fleet):
        system, ext = fleet
        dn = self._add(system, ext)
        moved = ext[:2] + "02"
        system.connection().modify(
            dn, [Modification.replace("definityExtension", moved)]
        )
        entry = system.find_person("(cn=Ann Lee)")[0]
        assert entry.get("telephoneNumber") == (f"+1 908 582 {moved}",)
        assert system.inconsistencies() == []

    def test_an_explicit_value_is_kept(self, fleet):
        system, ext = fleet
        dn = self._add(system, ext)
        system.connection().modify(
            dn,
            [
                Modification.replace("definityExtension", ext[:2] + "02"),
                Modification.replace("telephoneNumber", "+1 555 0100"),
            ],
        )
        entry = system.find_person("(cn=Ann Lee)")[0]
        assert entry.get("telephoneNumber") == ("+1 555 0100",)


def _pbx_of(system: MetaComm, ext: str) -> str:
    return next(
        name for name, pbx in system.pbxes.items() if pbx.manages_extension(ext)
    )
