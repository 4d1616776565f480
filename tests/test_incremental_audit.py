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
            [
                "definityRoom",
                "definityExtension",
                "telephoneNumber",
                "cn",
                "definityCOS",
            ]
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

    @rule(ext=st.sampled_from(_EXTENSIONS), room=st.sampled_from(_ROOMS))
    def move_room_on_the_device(self, ext, room):
        """One field changes behind MetaComm's back: a memoized pair
        re-runs only the rules that read it."""
        pbx = self.system.pbxes.get(f"pbx-{ext[:2]}")
        if pbx is not None and pbx.contains(ext):
            pbx.modify(ext, {"Room": room}, agent=UM_AGENT)

    @rule(ext=st.sampled_from(_EXTENSIONS), cos=st.sampled_from(["1", "7"]))
    def mutate_a_record_in_place(self, ext, cos):
        """The device's own dict changes, with no commit: a memo that
        shared it with the device would change along and hide the drift."""
        pbx = self.system.pbxes.get(f"pbx-{ext[:2]}")
        record = pbx._records.get(ext) if pbx is not None else None
        if record is not None:
            record["COS"] = cos

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

    @rule(n=st.sampled_from(_PEOPLE), title=st.sampled_from(["Eng", "Mgr"]))
    def write_an_attribute_nothing_files_by(self, n, title):
        """Neither a key nor a claim input: the view swaps the entry in."""
        dn = self._dn(n)
        if dn is not None:
            self.conn.modify(dn, [Modification.replace("title", title)])

    @rule(n=st.sampled_from(_PEOPLE), via_ltap=st.booleans())
    def respell_the_dn(self, n, via_ltap):
        """Same DN key, new spelling."""
        dn = self._dn(n)
        if dn is None:
            return
        rdn = dn.split(",")[0]
        conn = self.conn if via_ltap else self.direct
        try:
            conn.modify_rdn(dn, "cn=" + rdn[3:].swapcase())
        except LdapError:
            pass

    @rule(n=st.sampled_from(_PEOPLE))
    def flip_person_class(self, n):
        """objectClass with and without ``person``: in and out of every
        binding's claims, the key index unchanged."""
        dn = self._dn(n)
        if dn is None:
            return
        classes = self.system.find_person(f"(description=P{n})")[0].get(
            "objectClass"
        )
        if "person" in classes:
            classes = [c for c in classes if c != "person"]
        else:
            classes = list(PERSON_CLASSES)
        self.direct.modify(dn, [Modification.replace("objectClass", *classes)])

    @rule(n=st.sampled_from(_PEOPLE), via_ltap=st.booleans())
    def move_to_the_other_pbx(self, n, via_ltap):
        """A key change that moves the entry between partitions."""
        dn = self._dn(n)
        if dn is None:
            return
        ext = self.system.find_person(f"(description=P{n})")[0].first(
            "definityExtension"
        )
        if ext is None:
            return
        moved = ("42" if ext.startswith("41") else "41") + ext[2:]
        conn = self.conn if via_ltap else self.direct
        try:
            conn.modify(dn, [Modification.replace("definityExtension", moved)])
        except LdapError:
            pass

    @rule(
        n=st.sampled_from(_PEOPLE),
        ext=st.sampled_from(_EXTENSIONS),
        via_ltap=st.booleans(),
    )
    def delete_and_add_again(self, n, ext, via_ltap):
        """Between two probes the DN goes and comes back."""
        dn = self._dn(n)
        if dn is None:
            return
        conn = self.conn if via_ltap else self.direct
        conn.delete(dn)
        try:
            conn.add(dn, {**_person(n, ext), "cn": dn.split(",")[0][3:]})
        except LdapError:
            pass

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
        auditor = self.system.auditor
        registry = self.system.obs.registry
        dirty = len(auditor._changes.dirty)
        rebuilds = registry.value("metacomm_audit_rebuilds_total")
        cycle = auditor._cycle_local
        cycle.imaged = cycle.reimaged = 0
        _probe_matches_full_walk(self.system)
        dumped = sum(len(b.filter.dump()) for b in self.system.um.bindings)
        self.memo_hits += dumped - cycle.imaged
        # Every noted DN was processed once, by the first binding's probe.
        if registry.value("metacomm_audit_rebuilds_total") == rebuilds:
            assert cycle.reimaged == dirty
        # The view holds exactly the backend's entries, the very objects.
        view = auditor._view
        live = {
            entry.dn.normalized(): entry
            for entry in self.direct.search(str(view.base))
        }
        assert view._entries.keys() == live.keys()
        for key, entry in live.items():
            assert view._entries[key] is entry
            assert str(view._entries[key].dn) == str(entry.dn)


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


def _spy(monkeypatch, calls: dict, owner, name: str) -> None:
    """Count the calls of *owner*'s *name*: a class's method, or a
    function wherever a ``repro`` module binds it under that name."""
    if isinstance(owner, type):
        real = getattr(owner, name)

        def method(*args, **kwargs):
            calls.setdefault(name, []).append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, method)
        return
    real = getattr(owner, name)

    def function(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, name, None) is real
        ):
            monkeypatch.setattr(module, name, function)


class TestProbeCost:
    """What one probe of a PBX binding pays for k changed records: at
    most one lower-keying per changed record, only the rules whose
    inputs or targets changed, nothing normalized, and one backend read
    per dirty DN."""

    @pytest.fixture
    def system(self):
        with _system() as system:
            for n, ext in enumerate(("4101", "4102", "4103", "4104", "4201")):
                system.connection().add(
                    f"cn=User {n},o=Sales,o=Lucent", _person(n, ext)
                )
            system.auditor.run_cycle(full=True)
            yield system

    def _probe(
        self, system, monkeypatch, binding: str = "pbx-41"
    ) -> tuple[list[str], dict, int]:
        from repro.ldap.backend import Backend
        from repro.lexpress import descriptor, interpreter
        from repro.lexpress.mapping import CompiledMapping
        from repro.obs.audit import DirectoryView

        calls: dict = {}
        _spy(monkeypatch, calls, descriptor, "normalize_attrs")
        _spy(monkeypatch, calls, interpreter, "lower_attrs")
        _spy(monkeypatch, calls, CompiledMapping, "image")
        _spy(monkeypatch, calls, CompiledMapping, "evaluate")
        _spy(monkeypatch, calls, Backend, "get")
        _spy(monkeypatch, calls, DirectoryView, "_drop")
        _spy(monkeypatch, calls, DirectoryView, "_claims_of")
        view = system.auditor._view
        imaged = view.imaged
        problems = system.binding_inconsistencies(system.um.binding(binding))
        assert system.auditor._view is view
        monkeypatch.undo()
        return problems, calls, view.imaged - imaged

    @staticmethod
    def _entry(system, ext: str):
        (entry,) = system.find_person(f"(definityExtension={ext})")
        return entry

    def test_room_ddus_run_only_the_rules_whose_inputs_or_targets_changed(
        self, system, monkeypatch
    ):
        to_ldap = system.um.binding("pbx-41").to_ldap
        rooms = {rule.target for rule in to_ldap.rules if "room" in rule.deps}
        assert rooms
        changed_ext = ("4101", "4103")
        before = {ext: self._entry(system, ext) for ext in changed_ext}
        terminal = system.terminal("pbx-41")
        for ext in changed_ext:
            assert terminal.execute(f"change station {ext} room 2B-110").ok
        bound = 0
        for ext in changed_ext:
            old = before[ext].attributes.lowered()
            new = self._entry(system, ext).attributes.lowered()
            retargeted = {
                rule.target
                for rule in to_ldap.rules
                if old.get(rule.target_low) != new.get(rule.target_low)
            }
            bound += len(rooms | retargeted)
        problems, calls, imaged = self._probe(system, monkeypatch)
        assert problems == []
        assert imaged == len(changed_ext)
        evaluated = [args[0] for args in calls.get("evaluate", [])]
        assert 0 < len(evaluated) <= bound < len(changed_ext) * len(to_ldap.rules)
        assert {rule.target for rule in evaluated} == {"definityRoom"}

    def test_a_pbx_only_change_runs_no_messaging_rule(self, system, monkeypatch):
        terminal = system.terminal("pbx-41")
        for ext in ("4101", "4102"):
            assert terminal.execute(f"change station {ext} room 2B-110").ok
        problems, calls, imaged = self._probe(system, monkeypatch, "messaging")
        assert problems == []
        # Both pairs' entries changed, so neither is a memo hit.
        assert imaged == 2
        assert calls.get("evaluate", []) == []
        assert calls.get("lower_attrs", []) == []

    def test_entry_only_drift_on_a_memoized_pair_reads_as_the_full_walk(
        self, system, monkeypatch
    ):
        user = "cn=User 0,o=Sales,o=Lucent"
        system.connection().modify(user, [Modification.replace("definityRoom", "2B")])
        assert system.auditor.run_cycle(full=True).ok
        system.direct_connection().modify(
            user, [Modification.replace("definityRoom", "9Z")]
        )
        expected = ["pbx-41: 4101: definityRoom device=['2B'] directory=('9Z',)"]
        problems, calls, imaged = self._probe(system, monkeypatch)
        assert problems == expected
        assert [args[0].target for args in calls["evaluate"]] == ["definityRoom"]
        assert imaged == 1
        assert [p for p in system.inconsistencies() if p.startswith("pbx-41: ")] == (
            expected
        )
        # Not memoized: the next probe images the record in full and
        # reports the same words.
        assert _probe_matches_full_walk(system) == expected

    def test_changed_records_are_folded_once_and_only_dirty_dns_read(
        self, system, monkeypatch
    ):
        terminal = system.terminal("pbx-41")
        for ext in ("4101", "4103"):
            assert terminal.execute(f"change station {ext} room 2B-110").ok
        dirty = set(system.auditor._changes.dirty)
        assert len(dirty) == 2
        problems, calls, imaged = self._probe(system, monkeypatch)
        assert problems == []
        assert imaged == 2
        assert calls.get("normalize_attrs", []) == []
        assert calls.get("image", []) == []
        assert len(calls.get("lower_attrs", [])) <= imaged
        read = [args[0] for args in calls.get("get", [])]
        assert len(read) == len(dirty) and set(read) == dirty

    def test_an_entry_filed_where_it_was_is_not_reindexed(
        self, system, monkeypatch
    ):
        system.connection().modify(
            "cn=User 0,o=Sales,o=Lucent",
            [Modification.replace("definityRoom", "2B")],
        )
        problems, calls, _ = self._probe(system, monkeypatch)
        assert problems == []
        assert calls.get("_drop", []) == []
        assert calls.get("_claims_of", []) == []
        # A key change is filed anew.
        system.connection().modify(
            "cn=User 1,o=Sales,o=Lucent",
            [
                Modification.replace("definityExtension", "4105"),
                Modification.replace("telephoneNumber", "+1 908 582 4105"),
            ],
        )
        problems, calls, _ = self._probe(system, monkeypatch)
        assert problems == []
        assert len(calls["_drop"]) == 1 and len(calls["_claims_of"]) == 1


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
