"""The consistency auditor's maintained directory view.

The auditor's probe (``MetaComm.binding_inconsistencies``) compares a full
device dump against a directory view it keeps current from the backend's
change stream; ``inconsistencies()`` compares the same dumps against a
view built fresh from one full directory read.  Both run the same
comparison code, so after any sequence of writes the probe must report
exactly what the fresh full walk reports — same problems, same order —
and both must match a walk that searches the directory per record.
"""

import sys
import threading
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import UM_AGENT, MetaComm, MetaCommConfig, PbxConfig
from repro.ldap import DN, LdapError, Modification
from repro.schemas import PERSON_CLASSES

_PEOPLE = range(5)
_EXTENSIONS = ["4101", "4102", "4201", "4202", "4301"]
_ROOMS = ["1A", "2B", "3C"]
_CONTAINERS = ("o=Sales,o=Lucent", "o=Field,o=Lucent")


def _system(**overrides) -> MetaComm:
    return MetaComm(
        MetaCommConfig(
            organizations=("Sales",),
            pbxes=(PbxConfig("pbx-41", ("41",)), PbxConfig("pbx-42", ("42",))),
            **overrides,
        )
    )


def _person(n: int, ext: str) -> dict:
    return {
        "objectClass": list(PERSON_CLASSES),
        "cn": f"User {n}",
        "sn": f"S{n}",
        "description": f"P{n}",
        "definityExtension": ext,
    }


def _searched_inconsistencies(system: MetaComm, binding) -> list[str]:
    """The comparison as a per-record search walk: ``locate()`` for every
    device record, a full image and ``claims()`` for every directory
    person — the reference the views' shortcuts must reproduce."""
    ldap_filter = system.um.ldap_filter
    key_attr = binding.to_ldap.key_target
    problems, device_keys = [], set()
    for record in binding.filter.dump():
        image = binding.to_ldap.image(record) or {}
        key = binding.to_ldap.key_of(image)
        if key is None:
            continue
        device_keys.add(key.lower())
        entry = ldap_filter.locate(key_attr, key)
        if entry is None:
            problems.append(f"{binding.name}: record {key} missing from directory")
            continue
        for name, values in image.items():
            if name.lower() != "lastupdater" and not set(values) <= set(
                entry.get(name)
            ):
                problems.append(
                    f"{binding.name}: {key}: {name} device={values} "
                    f"directory={entry.get(name)}"
                )
    for entry in ldap_filter.person_entries():
        values = entry.get(key_attr)
        if values and values[0].lower() not in device_keys:
            image = binding.from_ldap.image(entry.attributes.to_dict())
            if binding.from_ldap.claims(image, binding.partition):
                problems.append(
                    f"{binding.name}: directory entry {entry.dn} claims "
                    f"{key_attr}={values[0]} unknown to the device"
                )
    return problems


def _probe_matches_full_walk(system: MetaComm) -> list[str]:
    fresh = system.inconsistencies()
    assert fresh == [
        problem
        for binding in system.um.bindings
        for problem in _searched_inconsistencies(system, binding)
    ]
    probed: list[str] = []
    for binding in system.um.bindings:
        problems = system.binding_inconsistencies(binding)
        assert problems == [p for p in fresh if p.startswith(f"{binding.name}: ")]
        probed.extend(problems)
    assert probed == fresh
    return fresh


class AuditViewMachine(RuleBasedStateMachine):
    """Random LTAP, direct, device-side and transactional writes; after
    each step every binding's probe equals the fresh full walk, whether
    the probe imaged a record or took it from the memo."""

    def __init__(self):
        super().__init__()
        self.system = _system()
        self.conn = self.system.connection()
        self.direct = self.system.direct_connection()
        self.backend = self.system.server.backend
        self.container = 0
        self.container_renames = 0
        #: Device records the probes took from the memo without imaging.
        self.memo_hits = 0
        for n, ext in zip(_PEOPLE, _EXTENSIONS[:4]):
            self.conn.add(f"cn=User {n},{self._base(n)}", _person(n, ext))

    def teardown(self):
        registry = self.system.obs.registry
        # The view was built once, and again only after container renames:
        # every other step went through the incremental path.
        assert registry.value("metacomm_audit_rebuilds_total") <= (
            1 + self.container_renames
        )
        # A last probe with nothing changed takes every pair the previous
        # one memoized from the memo, and still equals the full walk.
        view = self.system.auditor._view
        memoized = sum(len(view.verified(b)) for b in self.system.um.bindings)
        hits = self.memo_hits
        self.probe_matches_full_walk()
        assert self.memo_hits - hits == memoized
        self.system.close()

    def _dn(self, n: int) -> str | None:
        hits = self.system.find_person(f"(description=P{n})")
        return str(hits[0].dn) if hits else None

    def _base(self, n: int) -> str:
        return _CONTAINERS[self.container] if n % 2 else "o=Lucent"

    @rule(n=st.sampled_from(_PEOPLE), ext=st.sampled_from(_EXTENSIONS))
    def add_via_ltap(self, n, ext):
        if self._dn(n) is not None:
            return
        try:
            self.conn.add(f"cn=User {n},{self._base(n)}", _person(n, ext))
        except LdapError:
            pass

    @rule(n=st.sampled_from(_PEOPLE), room=st.sampled_from(_ROOMS))
    def move_room_via_ltap(self, n, room):
        dn = self._dn(n)
        if dn is not None:
            self.conn.modify(dn, [Modification.replace("definityRoom", room)])

    @rule(n=st.sampled_from(_PEOPLE), ext=st.sampled_from(_EXTENSIONS))
    def change_extension_via_ltap(self, n, ext):
        dn = self._dn(n)
        if dn is None:
            return
        try:
            self.conn.modify(dn, [Modification.replace("definityExtension", ext)])
        except LdapError:
            pass

    @rule(n=st.sampled_from(_PEOPLE))
    def delete_via_ltap(self, n):
        dn = self._dn(n)
        if dn is not None:
            self.conn.delete(dn)

    @rule(n=st.sampled_from(_PEOPLE), suffix=st.sampled_from(["Jr", "Sr"]))
    def rename_via_ltap(self, n, suffix):
        dn = self._dn(n)
        if dn is not None:
            try:
                self.conn.modify_rdn(dn, f"cn=User {n} {suffix}")
            except LdapError:
                pass

    @rule(n=st.sampled_from(_PEOPLE), suffix=st.sampled_from(["Jr", "Sr"]))
    def rename_bypassing_ltap(self, n, suffix):
        dn = self._dn(n)
        if dn is not None:
            try:
                self.direct.modify_rdn(dn, f"cn=User {n} {suffix}")
            except LdapError:
                pass

    @rule(
        n=st.sampled_from(_PEOPLE),
        attribute=st.sampled_from(
            ["definityRoom", "definityExtension", "telephoneNumber", "cn"]
        ),
        value=st.sampled_from(_EXTENSIONS + _ROOMS),
    )
    def write_bypassing_ltap(self, n, attribute, value):
        dn = self._dn(n)
        if dn is None:
            return
        if attribute == "telephoneNumber":
            value = f"+1 908 582 {value}"
        try:
            self.direct.modify(dn, [Modification.replace(attribute, value)])
        except LdapError:
            pass

    @rule(
        ext=st.sampled_from(_EXTENSIONS),
        surgery=st.sampled_from(["rename", "remove", "insert"]),
    )
    def device_surgery(self, ext, surgery):
        pbx = self.system.pbxes.get(f"pbx-{ext[:2]}")
        if pbx is None:
            return
        try:
            if surgery == "rename":
                pbx.modify(ext, {"Name": "Imposter, Ida"}, agent=UM_AGENT)
            elif surgery == "remove":
                pbx.delete(ext, agent=UM_AGENT)
            else:
                pbx.add({"Extension": ext, "Name": "Ghost, Gus"}, agent=UM_AGENT)
        except Exception:
            pass  # no such record / already there

    @rule(
        a=st.sampled_from(_PEOPLE),
        b=st.sampled_from(_PEOPLE),
        ext=st.sampled_from(_EXTENSIONS),
        room=st.sampled_from(_ROOMS),
    )
    def committed_transaction(self, a, b, ext, room):
        dn_a, dn_b = self._dn(a), self._dn(b)
        if dn_a is None or dn_b is None or dn_a == dn_b:
            return
        with self.backend.transaction() as txn:
            txn.modify(DN.parse(dn_a), [Modification.replace("definityRoom", room)])
            txn.modify(
                DN.parse(dn_b), [Modification.replace("definityExtension", ext)]
            )

    @rule(n=st.sampled_from(_PEOPLE), ext=st.sampled_from(_EXTENSIONS))
    def rolled_back_transaction(self, n, ext):
        dn = self._dn(n)
        if dn is None:
            return
        txn = self.backend.transaction()
        txn.modify(DN.parse(dn), [Modification.replace("definityExtension", ext)])
        txn.delete(DN.parse("cn=Nobody,o=Lucent"))
        with pytest.raises(LdapError):
            txn.commit()

    @rule()
    def rename_container_with_children(self):
        old = _CONTAINERS[self.container]
        if not self.conn.search(old, filter="(objectClass=person)"):
            return
        self.container = 1 - self.container
        self.conn.modify_rdn(old, _CONTAINERS[self.container].split(",")[0])
        self.container_renames += 1

    @invariant()
    def probe_matches_full_walk(self):
        cycle = self.system.auditor._cycle_local
        cycle.imaged = 0
        _probe_matches_full_walk(self.system)
        dumped = sum(len(b.filter.dump()) for b in self.system.um.bindings)
        self.memo_hits += dumped - cycle.imaged


AuditViewMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestAuditViewEquivalence = AuditViewMachine.TestCase


class TestMaintainedView:
    @pytest.fixture
    def system(self):
        with _system() as system:
            for n, ext in enumerate(("4101", "4201", "4102")):
                system.connection().add(
                    f"cn=User {n},o=Sales,o=Lucent", _person(n, ext)
                )
            yield system

    def test_built_lazily_by_the_first_probe(self, system):
        registry = system.obs.registry
        assert registry.value("metacomm_audit_rebuilds_total") == 0
        system.auditor.run_cycle()
        system.auditor.run_cycle()
        assert registry.value("metacomm_audit_rebuilds_total") == 1

    def test_probe_reimages_only_what_changed(self, system):
        registry = system.obs.registry
        system.auditor.run_cycle(full=True)
        system.connection().modify(
            "cn=User 0,o=Sales,o=Lucent",
            [Modification.replace("definityRoom", "2B")],
        )
        report = system.auditor.run_cycle(full=True)
        assert report.ok
        assert registry.value("metacomm_audit_reimaged_total") == 1
        assert system.obs.journal.last("audit.cycle").attributes["reimaged"] == 1
        system.auditor.run_cycle(full=True)
        assert system.obs.journal.last("audit.cycle").attributes["reimaged"] == 0
        assert registry.value("metacomm_audit_rebuilds_total") == 1

    def test_unchanged_records_are_not_imaged_again(self, system):
        system.auditor.run_cycle(full=True)
        assert system.obs.journal.last("audit.cycle").attributes["imaged"] == 6
        system.auditor.run_cycle(full=True)
        assert system.obs.journal.last("audit.cycle").attributes["imaged"] == 0
        # One person's entry and PBX record change: both of their device
        # records are imaged again, the other four are memo hits.
        system.connection().modify(
            "cn=User 0,o=Sales,o=Lucent",
            [Modification.replace("definityRoom", "2B")],
        )
        assert system.auditor.run_cycle(full=True).ok
        assert system.obs.journal.last("audit.cycle").attributes["imaged"] == 2

    @pytest.mark.parametrize(
        "drift",
        ["device surgery", "direct directory write", "device delete"],
    )
    def test_a_memoized_pair_that_drifts_is_reported(self, system, drift):
        assert _probe_matches_full_walk(system) == []
        user = "cn=User 0,o=Sales,o=Lucent"
        if drift == "device surgery":
            system.pbxes["pbx-41"].modify("4101", {"Room": "9Z-999"}, agent=UM_AGENT)
            expected = [
                "pbx-41: 4101: definityRoom device=['9Z-999'] directory=()"
            ]
        elif drift == "direct directory write":
            system.direct_connection().modify(
                user, [Modification.replace("sn", "Other")]
            )
            expected = ["pbx-41: 4101: sn device=['0'] directory=('Other',)"]
        else:
            system.pbxes["pbx-41"].delete("4101", agent=UM_AGENT)
            expected = [
                f"pbx-41: directory entry {user} claims "
                "definityExtension=4101 unknown to the device"
            ]
        assert _probe_matches_full_walk(system) == expected

    def test_a_mismatching_record_is_reported_on_every_probe(self, system):
        system.auditor.run_cycle(full=True)
        system.pbxes["pbx-41"].modify("4101", {"Name": "Imposter, Ida"}, agent=UM_AGENT)
        for _ in range(3):
            problems = _probe_matches_full_walk(system)
            assert problems and all(p.startswith("pbx-41: 4101: ") for p in problems)
            report = system.auditor.run_cycle(full=True)
            assert report.mismatches == {"pbx-41": problems}
            # The drifting record is imaged again every time.
            assert system.obs.journal.last("audit.cycle").attributes["imaged"] == 1

    def test_rolled_back_transaction_leaves_nothing_to_reimage(self, system):
        system.auditor.run_cycle(full=True)
        txn = system.server.backend.transaction()
        txn.modify(
            DN.parse("cn=User 0,o=Sales,o=Lucent"),
            [Modification.replace("definityExtension", "4202")],
        )
        txn.delete(DN.parse("cn=Nobody,o=Lucent"))
        with pytest.raises(LdapError):
            txn.commit()
        system.auditor.run_cycle(full=True)
        assert system.obs.journal.last("audit.cycle").attributes["reimaged"] == 0

    def test_rebuilds_after_renaming_a_container_with_children(self, system):
        registry = system.obs.registry
        system.auditor.run_cycle(full=True)
        system.connection().modify_rdn("o=Sales,o=Lucent", "o=Field")
        assert _probe_matches_full_walk(system) == []
        assert registry.value("metacomm_audit_rebuilds_total") == 2
        # Renaming a leaf is incremental.
        system.connection().modify_rdn("cn=User 0,o=Field,o=Lucent", "cn=Ann")
        _probe_matches_full_walk(system)
        assert registry.value("metacomm_audit_rebuilds_total") == 2

    def test_rebuilds_after_a_binding_swap(self, system):
        registry = system.obs.registry
        system.auditor.run_cycle(full=True)
        system.um.bindings = [b for b in system.um.bindings if b.name != "pbx-42"]
        assert system.auditor.run_cycle(full=True).ok
        assert registry.value("metacomm_audit_rebuilds_total") == 2
        # An equal but new binding object is a swap too.
        system.um.bindings = [replace(b) for b in system.um.bindings]
        assert system.auditor.run_cycle(full=True).ok
        assert registry.value("metacomm_audit_rebuilds_total") == 3

    def test_more_changes_than_entries_rebuild_instead(self, system):
        registry = system.obs.registry
        system.auditor.run_cycle(full=True)
        changes = system.auditor._changes
        conn = system.direct_connection()
        for i in range(changes.limit + 1):
            conn.add(
                f"o=Temp {i},o=Lucent",
                {"objectClass": ["top", "organization"], "o": f"Temp {i}"},
            )
        assert changes.stale and not changes.dirty
        system.auditor.run_cycle(full=True)
        assert registry.value("metacomm_audit_rebuilds_total") == 2

    def test_probes_a_binding_outside_the_deployment(self, system):
        binding = system.um.binding("pbx-42")
        system.um.bindings = [b for b in system.um.bindings if b is not binding]
        system.connection().modify(
            "cn=User 1,o=Sales,o=Lucent",
            [Modification.replace("definityExtension", "4202")],
        )
        assert system.binding_inconsistencies(binding) == [
            "pbx-42: record 4201 missing from directory",
            "pbx-42: directory entry cn=User 1,o=Sales,o=Lucent claims "
            "definityExtension=4202 unknown to the device"
        ]

    def test_full_walk_never_trusts_the_maintained_view(self, system):
        """A view that misses a change (here: its listener is detached)
        keeps answering from stale state; ``consistent()`` reads afresh."""
        system.auditor.run_cycle(full=True)
        system.server.backend.remove_listener(system.auditor._changes.note)
        system.direct_connection().modify(
            "cn=User 0,o=Sales,o=Lucent",
            [Modification.replace("definityExtension", "4202")],
        )
        # The stale view still files the entry under pbx-41's partition.
        assert system.binding_inconsistencies(system.um.binding("pbx-42")) == []
        assert any(p.startswith("pbx-42: ") for p in system.inconsistencies())


def test_background_auditor_with_concurrent_writers_and_full_cycles():
    """The auditor at 5 ms, a thread running full cycles and four LTAP
    writers, all under the lock witness."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _system(lock_witness=True) as system:
            _stress(system)
    finally:
        sys.setswitchinterval(switch)


def _stress(system: MetaComm) -> None:
    registry = system.obs.registry
    stop = threading.Event()
    failures: list[Exception] = []

    def full_cycles():
        while not stop.is_set():
            try:
                system.auditor.run_cycle(full=True)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)
                return

    def writer(w: int):
        conn = system.connection()
        try:
            for i in range(12):
                dn = f"cn=Writer {w}-{i},o=Sales,o=Lucent"
                ext = f"4{1 + w % 2}{w}{i % 10}"
                conn.add(dn, {**_person(0, ext), "cn": f"Writer {w}-{i}"})
                conn.modify(dn, [Modification.replace("definityRoom", "2B")])
                if i % 3 == 0:
                    conn.delete(dn)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    system.auditor.start(interval=0.005)
    auditor = threading.Thread(target=full_cycles)
    writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    auditor.start()
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join(timeout=60)
    stop.set()
    auditor.join(timeout=60)
    system.auditor.stop()

    assert not any(t.is_alive() for t in [auditor, *writers])
    assert failures == []
    assert registry.value("metacomm_audit_cycles_total") > 0
    assert registry.value("metacomm_audit_errors_total") == 0
    assert system.lock_witness.violations() == []
    assert system.obs.journal.last("witness.violation") is None
    # Quiesced: 4 writers x 12 people, a third of them deleted again.
    assert len(system.find_person("(cn=Writer*)")) == 4 * 8
    report = system.auditor.run_cycle(full=True)
    assert report.ok
    assert system.consistent()
    assert _probe_matches_full_walk(system) == []
