"""Property-based tests over the core invariants.

* the DIT backend survives arbitrary operation sequences with its tree
  structure intact (hypothesis stateful testing);
* closure propagation is idempotent (a fixpoint really is a fixpoint);
* replication converges for random multi-master workloads;
* the full MetaComm pipeline keeps its consistency oracle green under
  random mixed update streams;
* mapping round trips hold for arbitrary clean device records.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.ldap import (
    DN,
    Entry,
    LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    Rdn,
)
from repro.ldap.backend import Backend, ChangeRecord
from repro.ldap.replication import ReplicationEngine
from repro.lexpress import ClosureEngine
from repro.schemas import standard_mappings


# ---------------------------------------------------------------------------
# Stateful DIT testing
# ---------------------------------------------------------------------------

_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]


class DitMachine(RuleBasedStateMachine):
    """Random adds, deletes, value adds/deletes/replaces and renames
    against a model of every entry's full attribute values.

    Entries are immutable and shared: ``get()`` results and changelog
    images are the stored objects themselves.  The machine keeps every
    ``get()`` result and change record it saw, with the model state of
    that time, and checks that none of them changes afterwards."""

    def __init__(self):
        super().__init__()
        self.backend = Backend(["o=root"])
        self.backend.add(
            Entry("o=root", {"objectClass": "organization", "o": "root"})
        )
        # Model: lower-cased DN string -> lower-cased name -> values.
        self.model: dict[str, dict[str, list[str]]] = {
            "o=root": {"objectclass": ["organization"], "o": ["root"]}
        }
        #: (entry, its model attributes when it was read)
        self.reads: list[tuple[Entry, dict]] = []
        #: (change record, model attributes before, model attributes after)
        self.images: list[tuple[ChangeRecord, dict | None, dict | None]] = []

    entries = Bundle("entries")

    @staticmethod
    def _attrs(entry: Entry | None) -> dict | None:
        if entry is None:
            return None
        return {name.lower(): list(vals) for name, vals in entry.attributes.items()}

    def _state(self, key: str) -> dict | None:
        attrs = self.model.get(key)
        return None if attrs is None else {k: list(v) for k, v in attrs.items()}

    def _keep(self, record: ChangeRecord, before: dict | None, key: str) -> None:
        self.images.append((record, before, self._state(key)))

    @rule(target=entries, name=st.sampled_from(_NAMES),
          parent=st.none() | entries)
    def add_entry(self, name, parent):
        parent_dn = DN.parse(parent) if parent else DN.parse("o=root")
        dn = parent_dn.child(Rdn.single("cn", name))
        entry = Entry(dn, {"objectClass": "person", "cn": name, "sn": name})
        key = str(dn).lower()
        if key in self.model or str(parent_dn).lower() not in self.model:
            with pytest.raises(LdapError):
                self.backend.add(entry)
            return str(dn)
        record = self.backend.add(entry)
        self.model[key] = {"objectclass": ["person"], "cn": [name], "sn": [name]}
        self._keep(record, None, key)
        return str(dn)

    @rule(dn=entries)
    def delete_entry(self, dn):
        key = dn.lower()
        has_children = any(
            k != key and k.endswith("," + key) for k in self.model
        )
        if key not in self.model or has_children:
            with pytest.raises(LdapError):
                self.backend.delete(DN.parse(dn))
            return
        before = self._state(key)
        record = self.backend.delete(DN.parse(dn))
        del self.model[key]
        self._keep(record, before, key)

    def _modify(self, dn: str, modification: Modification, expect) -> None:
        """Apply *modification* to ``description``.  *expect* maps the
        model's current values to the new ones, or to None when the server
        must refuse the change."""
        key = dn.lower()
        before = self._state(key)
        values = None if before is None else expect(before.get("description", []))
        if values is None:
            with pytest.raises(LdapError):
                self.backend.modify(DN.parse(dn), [modification])
            return
        record = self.backend.modify(DN.parse(dn), [modification])
        if values:
            self.model[key]["description"] = values
        else:
            del self.model[key]["description"]
        self._keep(record, before, key)

    @rule(dn=entries, value=st.text(alphabet="xyz", min_size=1, max_size=4))
    def modify_entry(self, dn, value):
        self._modify(
            dn, Modification.replace("description", value), lambda _: [value]
        )

    @rule(dn=entries, value=st.text(alphabet="xyz", min_size=1, max_size=2))
    def add_value(self, dn, value):
        self._modify(
            dn,
            Modification.add("description", value),
            lambda values: None if value in values else values + [value],
        )

    @rule(dn=entries, value=st.text(alphabet="xyz", min_size=1, max_size=2))
    def delete_value(self, dn, value):
        self._modify(
            dn,
            Modification.delete("description", value),
            lambda values: (
                [v for v in values if v != value] if value in values else None
            ),
        )

    @rule(target=entries, dn=entries, name=st.sampled_from(_NAMES),
          delete_old=st.booleans())
    def rename_entry(self, dn, name, delete_old):
        old = DN.parse(dn)
        new_rdn = Rdn.single("cn", name)
        key, new_key = dn.lower(), str(old.parent().child(new_rdn)).lower()
        if key not in self.model or (new_key != key and new_key in self.model):
            with pytest.raises(LdapError):
                self.backend.modify_rdn(old, new_rdn, delete_old)
            return multiple()
        before = self._state(key)
        record = self.backend.modify_rdn(old, new_rdn, delete_old)
        attrs = self.model.pop(key)
        if delete_old and old.rdn.value != name:
            attrs["cn"].remove(old.rdn.value)
        if name not in attrs["cn"]:
            attrs["cn"].append(name)
        self.model[new_key] = attrs
        # The subtree below moves with it.
        moved = [k[: -len(key)] + new_key for k in self.model if k.endswith("," + key)]
        for desc in moved:
            self.model[desc] = self.model.pop(desc[: -len(new_key)] + key)
        self._keep(record, before, new_key)
        return multiple(new_key, *moved)

    @rule(dn=entries)
    def read_entry(self, dn):
        key = dn.lower()
        if key not in self.model:
            with pytest.raises(LdapError):
                self.backend.get(DN.parse(dn))
            return
        entry = self.backend.get(DN.parse(dn))
        self.reads.append((entry, self._state(key)))

    @invariant()
    def model_matches_backend(self):
        actual = {
            str(e.dn).lower(): self._attrs(e) for e in self.backend.all_entries()
        }
        assert actual == self.model

    @invariant()
    def earlier_results_are_unchanged(self):
        for entry, attrs in self.reads:
            assert self._attrs(entry) == attrs
        for record, before, after in self.images:
            assert self._attrs(record.before) == before
            assert self._attrs(record.after) == after

    @invariant()
    def every_entry_has_its_parent(self):
        for entry in self.backend.all_entries():
            if entry.dn == DN.parse("o=root"):
                continue
            assert self.backend.contains(entry.dn.parent()), (
                f"orphan: {entry.dn}"
            )

    @invariant()
    def changelog_monotone(self):
        csns = [r.csn for r in self.backend.changelog]
        assert all(a < b for a, b in zip(csns, csns[1:]))


DitMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=20,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
TestDitStateful = DitMachine.TestCase


# ---------------------------------------------------------------------------
# Closure idempotence
# ---------------------------------------------------------------------------

extension_values = st.from_regex(r"4[0-9]{3}", fullmatch=True)
name_values = st.tuples(
    st.sampled_from(["John", "Jill", "Pat"]), st.sampled_from(["Doe", "Lu"])
).map(lambda t: f"{t[1]}, {t[0]}")


@given(extension=extension_values, name=name_values)
@settings(max_examples=50, deadline=None)
def test_closure_is_idempotent(extension, name):
    """Propagating the fixpoint images again must change nothing."""
    engine = ClosureEngine(standard_mappings().values())
    first = engine.propagate(
        "pbx", {"Extension": extension, "Name": name}, changed=["Extension", "Name"]
    )
    second = engine.propagate(
        "ldap",
        first.image("ldap"),
        changed=[k for k in first.image("ldap")],
        base_images=first.images,
    )
    # Second pass derives no *different* values anywhere.
    for schema, image in second.images.items():
        for attr, values in image.items():
            prior = first.images.get(schema, {})
            prior_values = next(
                (v for k, v in prior.items() if k.lower() == attr.lower()), None
            )
            if prior_values is not None:
                assert values == prior_values, (schema, attr)


@given(extension=extension_values, name=name_values)
@settings(max_examples=50, deadline=None)
def test_mapping_round_trip_clean_records(extension, name):
    """pbx -> ldap -> pbx is the identity on clean station records."""
    mappings = standard_mappings()
    record = {"Extension": extension, "Name": name, "Room": "2B", "COS": "1"}
    ldap_image = mappings["pbx_to_ldap"].image(record)
    back = mappings["ldap_to_pbx"].image(ldap_image)
    assert back["Extension"] == [extension]
    assert back["Name"] == [name]
    assert back["Room"] == ["2B"]
    assert back["COS"] == ["1"]


# ---------------------------------------------------------------------------
# Replication convergence
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),             # which master
        st.sampled_from(["add", "modify", "delete"]),
        st.sampled_from(["u1", "u2", "u3"]),
        st.text(alphabet="ab", min_size=1, max_size=3),    # value
    ),
    min_size=1,
    max_size=25,
)


@given(operations=ops)
@settings(max_examples=50, deadline=None)
def test_replication_converges_for_random_workloads(operations):
    servers = []
    for sid in ("a", "b"):
        server = LdapServer(["o=L"], server_id=sid)
        LdapConnection(server).add("o=L", {"objectClass": "organization", "o": "L"})
        servers.append(server)
    engine = ReplicationEngine()
    engine.connect_mesh(servers)
    engine.propagate()

    for which, op, user, value in operations:
        conn = LdapConnection(servers[which])
        dn = f"cn={user},o=L"
        try:
            if op == "add":
                conn.add(dn, {"objectClass": "person", "cn": user, "sn": value})
            elif op == "modify":
                conn.modify(dn, [Modification.replace("sn", value)])
            else:
                conn.delete(dn)
        except LdapError:
            pass  # op invalid in current state; fine
        # Interleave propagation at random-ish points: after every op.
        engine.propagate()

    engine.propagate()
    assert engine.converged(), [
        (str(e.dn), e.attributes.to_dict())
        for s in servers
        for e in s.backend.all_entries()
    ]


# ---------------------------------------------------------------------------
# Whole-system consistency under random streams
# ---------------------------------------------------------------------------

stream_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.floats(min_value=0.0, max_value=1.0),     # ddu fraction
    st.floats(min_value=0.0, max_value=0.9),     # conflict probability
)


@given(params=stream_params)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_metacomm_consistent_under_random_streams(params):
    seed, ddu_fraction, conflict = params
    from repro.core import MetaComm, MetaCommConfig
    from repro.workloads import (
        apply_stream,
        make_population,
        make_stream,
        populate_via_ldap,
    )

    system = MetaComm(MetaCommConfig())
    people = make_population(5, seed=seed % 997)
    populate_via_ldap(system, people)
    events = make_stream(
        people, 12, ddu_fraction=ddu_fraction,
        conflict_probability=conflict, seed=seed,
    )
    apply_stream(system, events)
    assert system.inconsistencies() == []
