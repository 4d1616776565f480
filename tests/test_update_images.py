"""One set of attribute images per update.

Intake builds an update's old and new images, and their lower-keyed
views, straight from the directory's immutable entries
(:meth:`Attributes.images`), and enrich, translation and the plan read
those same dicts and lists.  These tests pin that the shortcut changes
nothing and that it stays a shortcut:

* the descriptor intake builds equals the one the public, normalizing
  :class:`UpdateDescriptor` constructor builds from the same entries,
  field by field and in its lower-keyed views, and translating either
  gives equal :class:`TargetUpdate` objects (Hypothesis, both
  ``lexpress_mode`` engines that must agree: compiled and verify);
* no stage changes a list it was handed: the trigger entries, the
  intake descriptor and the enriched descriptor read the same after a
  WBA modify and a craft DDU as before;
* an LTAP modify runs neither ``normalize_attrs`` nor
  ``dataclasses.replace`` between intake and the end of ``build_plan``.
"""

from __future__ import annotations

import copy
import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.core.pipeline import _base_supplement, _descriptor_from_event
from repro.ldap.backend import ChangeType
from repro.ldap.dn import DN
from repro.ldap.entry import Attributes, Entry, Modification
from repro.ldap.protocol import Session
from repro.lexpress import closure as closure_module
from repro.lexpress import descriptor as descriptor_module
from repro.lexpress import mapping as mapping_module
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.ltap.triggers import TriggerEvent
from repro.schemas import PERSON_CLASSES
from repro.wba import WebAdmin

# -- the reference: intake as the public constructor sees it -------------------


def reference_descriptor(event: TriggerEvent) -> UpdateDescriptor | None:
    """Intake through plain dicts and the normalizing constructor: what
    the update path built before it read the entries' stored forms."""
    origin = str(event.session.state.get("metacomm.origin", "ldap"))
    before = event.before.attributes.to_dict() if event.before else None
    after = event.after.attributes.to_dict() if event.after else None
    if event.change_type is ChangeType.ADD:
        op = UpdateOp.ADD
    elif event.change_type is ChangeType.DELETE:
        op = UpdateOp.DELETE
    else:
        op = UpdateOp.MODIFY
        if before is None or after is None:
            return None
    key = str(event.after.dn if event.after is not None else event.dn)
    explicit: set[str] = set()
    if before is not None and after is not None:
        old = {n.lower(): v for n, v in before.items()}
        new = {n.lower(): v for n, v in after.items()}
        explicit = {
            n for n in old.keys() | new.keys() if old.get(n, []) != new.get(n, [])
        }
    elif after is not None:
        explicit = {n.lower() for n in after}
    if after is not None:
        for name in list(after):
            if name.lower() == "lastupdater":
                del after[name]
        after["lastUpdater"] = [origin]
    return UpdateDescriptor(
        op=op,
        source="ldap",
        key=key,
        old=before,
        new=after,
        explicit=frozenset(explicit),
        origin=origin,
    )


# -- generated entries ----------------------------------------------------------

#: Attribute names the shipped mappings read, plus two they ignore.
NAMES = (
    "cn", "sn", "definityExtension", "definityRoom", "definityCOS",
    "telephoneNumber", "mpCOS", "mpLanguage", "description", "roomNumber",
)
ORIGINS = ("ldap", "pbx-41", "pbx-42", "messaging")


def spelled(name: str) -> st.SearchStrategy[str]:
    """The name as written, lower-cased, upper-cased or half and half."""
    return st.sampled_from(
        (name, name.lower(), name.upper(), name[: len(name) // 2].upper()
         + name[len(name) // 2:])
    )


values = st.lists(
    st.sampled_from(("4101", "4207", "4399", "2B-110", "1", "Doe", "x y")),
    min_size=1, max_size=3, unique=True,
)
extensions = st.sampled_from(("4101", "4102", "4207", "4399", "9999"))


@st.composite
def attribute_maps(draw) -> dict[str, list[str]]:
    chosen = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=6))
    attrs: dict[str, list[str]] = {}
    for name in chosen:
        attrs[draw(spelled(name))] = draw(values)
    if draw(st.booleans()):
        attrs[draw(spelled("definityExtension"))] = [draw(extensions)]
    if draw(st.booleans()):
        # An Originator stamp, in any spelling, naming any repository.
        stamp = draw(st.sampled_from(ORIGINS))
        attrs[draw(spelled("lastUpdater"))] = [
            draw(st.sampled_from((stamp, stamp.upper())))
        ]
    attrs[draw(spelled("objectClass"))] = list(PERSON_CLASSES)
    return attrs


@st.composite
def trigger_events(draw) -> TriggerEvent:
    change = draw(st.sampled_from(list(ChangeType)))
    dn = DN.parse(f"cn=P {draw(st.integers(0, 9))},o=Lucent")
    before = Entry(dn, Attributes(draw(attribute_maps())))
    after = None
    if change is ChangeType.ADD:
        before, after = None, Entry(dn, Attributes(draw(attribute_maps())))
    elif change is not ChangeType.DELETE:
        # A modify keeps the entry's spellings for the names it had and
        # takes the modification's spelling for new ones.
        mods = [
            Modification.replace(draw(spelled(name)), *draw(values))
            for name in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
        ]
        target = dn
        if change is ChangeType.MODIFY_RDN:
            target = DN.parse(f"cn=Q {draw(st.integers(0, 9))},o=Lucent")
        after = Entry(target, before.attributes.modified(mods))
    session = Session()
    origin = draw(st.sampled_from((None,) + ORIGINS))
    if origin is not None:
        session.state["metacomm.origin"] = origin
    return TriggerEvent(change, dn, None, before, after, session)


def two_pbx_fleet(mode: str = "compiled") -> MetaComm:
    """Two PBXes on their own prefixes plus the messaging platform."""
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig("pbx-41", ("41",)), PbxConfig("pbx-42", ("42",))],
            lexpress_mode=mode,
        )
    )


@pytest.fixture(scope="module")
def fleets():
    """One read-only fleet per engine: the examples only translate and
    enrich, they write nothing."""
    systems = {mode: two_pbx_fleet(mode) for mode in ("compiled", "verify")}
    yield systems
    for system in systems.values():
        system.close()


def assert_same_descriptor(fast: UpdateDescriptor, slow: UpdateDescriptor) -> None:
    assert fast == slow  # op, source, key, old, new, explicit, origin
    assert fast.lowered() == slow.lowered()
    assert fast.changed_attributes() == slow.changed_attributes()
    assert isinstance(fast.explicit, frozenset)


class TestIntakeEquivalence:
    @pytest.mark.parametrize("mode", ["compiled", "verify"])
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(event=trigger_events())
    def test_intake_matches_the_normalizing_constructor(self, fleets, mode, event):
        fast = _descriptor_from_event(event)
        slow = reference_descriptor(event)
        if slow is None:
            assert fast is None
            return
        assert_same_descriptor(fast, slow)

        system = fleets[mode]
        pipeline = system.um.pipeline
        for binding in system.um.bindings:
            assert binding.from_ldap.translate(
                fast, extra_partition=binding.partition, target_name=binding.name
            ) == binding.from_ldap.translate(
                slow, extra_partition=binding.partition, target_name=binding.name
            )
        assert pipeline._route_shared(fast) == pipeline._route_shared(slow)
        if fast.op is not UpdateOp.DELETE:
            enriched = pipeline._enrich(fast)
            assert_same_descriptor(enriched, pipeline._enrich(slow))
            assert pipeline._route_shared(enriched) == pipeline._route_shared(
                pipeline._enrich(slow)
            )

    def test_stamp_replaces_every_spelling(self):
        dn = DN.parse("cn=A B,o=Lucent")
        before = Entry(dn, {"cn": "A B", "LASTUPDATER": "pbx-41"})
        after = Entry(dn, before.attributes.modified([Modification.replace("sn", "B")]))
        session = Session()
        session.state["metacomm.origin"] = "mp"
        descriptor = _descriptor_from_event(
            TriggerEvent(ChangeType.MODIFY, dn, None, before, after, session)
        )
        assert descriptor.new == {"cn": ["A B"], "sn": ["B"], "lastUpdater": ["mp"]}
        assert descriptor.lowered()[1]["lastupdater"] is descriptor.new["lastUpdater"]
        assert descriptor.explicit == {"sn"}

    def test_originator_stamp_marks_the_update_conditional(self, fleets):
        # A delete carries its old image's stamp: the record was last
        # written by pbx-41, so the delete heads back to where it came from.
        dn = DN.parse("cn=A B,o=Lucent")
        before = Entry(
            dn,
            {
                "objectClass": list(PERSON_CLASSES),
                "cn": "A B",
                "sn": "B",
                "DefinityExtension": "4101",
                "LastUpdater": "PBX-41",
            },
        )
        event = TriggerEvent(ChangeType.DELETE, dn, None, before, None, Session())
        fast, slow = _descriptor_from_event(event), reference_descriptor(event)
        binding = fleets["compiled"].um.bindings[0]
        updates = [
            binding.from_ldap.translate(
                d, extra_partition=binding.partition, target_name=binding.name
            )
            for d in (fast, slow)
        ]
        assert updates[0] == updates[1]
        assert updates[0].conditional

    def test_images_share_one_fresh_list_per_attribute(self):
        attributes = Attributes({"CN": ["A B"], "sn": "B"})
        spelled_image, lowered = attributes.images()
        assert spelled_image == {"CN": ["A B"], "sn": ["B"]}
        assert lowered == {"cn": ["A B"], "sn": ["B"]}
        assert spelled_image["CN"] is lowered["cn"]
        assert attributes.images()[0]["CN"] is not spelled_image["CN"]
        assert attributes.spelling("cn") == "CN"
        assert attributes.spelling("mail") is None

    def test_from_images_sets_every_field(self):
        # ``from_images`` sets the fields one by one instead of running
        # ``__init__``: a field added to the class must be set there too.
        dn = DN.parse("cn=A B,o=Lucent")
        after = Entry(dn, {"cn": "A B", "sn": "B"})
        event = TriggerEvent(ChangeType.ADD, dn, None, None, after, Session())
        fast = _descriptor_from_event(event)
        slow = reference_descriptor(event)
        for f in dataclasses.fields(UpdateDescriptor):
            assert hasattr(fast, f.name), f.name
            if f.compare:
                assert getattr(fast, f.name) == getattr(slow, f.name), f.name


class TestCaseVariantNames:
    """The public constructor keeps whatever names it is given, so a DDU
    or sync descriptor may spell one attribute twice.  Every reader on the
    update path then takes the first spelling and its values: the
    lower-keyed views, translation, the closure and the supplemental
    base."""

    def descriptor(self) -> UpdateDescriptor:
        return UpdateDescriptor(
            op=UpdateOp.ADD,
            source="ldap",
            key="cn=A B,o=Lucent",
            new={
                "objectClass": list(PERSON_CLASSES),
                "cn": "A B",
                "sn": "B",
                "telephoneNumber": "+1 908 582 4101",
                "telephonenumber": "+1 908 582 4202",
            },
        )

    def test_views_and_translation_take_the_first_spelling(self, fleets):
        descriptor = self.descriptor()
        assert descriptor.lowered()[1]["telephonenumber"] == ["+1 908 582 4101"]
        assert descriptor.get_new("TELEPHONENUMBER") == ["+1 908 582 4101"]
        routed = {
            binding.name: update
            for binding, update in zip(
                fleets["compiled"].um.bindings,
                fleets["compiled"].um.pipeline._route_shared(descriptor),
            )
        }
        assert routed["pbx-42"] is None
        assert routed["pbx-41"].key == "4101"
        assert routed["messaging"].key == "+1 908 582 4101"

    def test_closure_enrich_and_supplement_take_the_first_spelling(self, fleets):
        pipeline = fleets["compiled"].um.pipeline
        descriptor = self.descriptor()
        result = pipeline.closure.propagate(
            "ldap",
            descriptor.new,
            explicit=descriptor.explicit,
            lowered=descriptor.lowered()[1],
        )
        image = result.image("ldap")
        assert image["telephoneNumber"] == ["+1 908 582 4101"]
        assert "telephonenumber" not in image
        assert result.image("pbx")["Extension"] == ["4101"]

        enriched = pipeline._enrich(descriptor)
        assert enriched.get_new("definityExtension") == ["4101"]
        assert enriched.get_new("telephoneNumber") == ["+1 908 582 4101"]
        base = _base_supplement(enriched)
        assert base["telephoneNumber"] == ["+1 908 582 4101"]
        assert "telephonenumber" not in base


# -- aliasing and fold-once guards ------------------------------------------------


def add_person(system: MetaComm, cn: str, extension: str) -> None:
    system.connection().add(
        f"cn={cn},o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": cn,
            "sn": cn.split()[-1],
            "definityExtension": extension,
            "definityRoom": "1A-100",
        },
    )


def frozen(value):
    """A deep copy of what *value* holds: entries by DN and attributes,
    descriptors with their lower-keyed views."""
    if isinstance(value, Entry):
        return (str(value.dn), value.attributes.to_dict(), value.attributes.images())
    if isinstance(value, UpdateDescriptor):
        return (copy.deepcopy(value), copy.deepcopy(value.lowered()))
    return copy.deepcopy(value)


class TestNoConsumerMutatesAnImage:
    def test_wba_modify_and_ddu_leave_every_image_as_built(self, monkeypatch):
        system = two_pbx_fleet()
        try:
            add_person(system, "Ann Lee", "4101")
            pipeline = system.um.pipeline
            seen: list[tuple[str, object, object]] = []

            def keep(label, value):
                # The object itself and a copy of what it held then.
                seen.append((label, value, frozen(value)))

            original_intake = pipeline.intake_event

            def intake_event(event):
                keep("before entry", event.before)
                keep("after entry", event.after)
                descriptor = original_intake(event)
                keep("intake descriptor", descriptor)
                if descriptor is not None:
                    keep("intake views", descriptor.lowered())
                return descriptor

            original_enrich = pipeline._enrich

            def enrich(descriptor):
                enriched = original_enrich(descriptor)
                keep("enriched descriptor", enriched)
                keep("enriched views", enriched.lowered())
                return enriched

            monkeypatch.setattr(pipeline, "intake_event", intake_event)
            monkeypatch.setattr(pipeline, "_enrich", enrich)

            WebAdmin(system).update_user("cn=Ann Lee,o=Lucent", room="2B-110")
            assert system.terminal("pbx-41").execute(
                "change station 4101 room 3C-200"
            ).ok
            assert system.consistent()
            labels = {label for label, _, _ in seen}
            assert {"intake descriptor", "enriched descriptor"} <= labels
            for label, value, snapshot in seen:
                assert frozen(value) == snapshot, label
        finally:
            system.close()

    def test_ltap_modify_neither_normalizes_nor_replaces(self, monkeypatch):
        system = two_pbx_fleet()
        try:
            add_person(system, "Bo Park", "4207")
            pipeline = system.um.pipeline
            window = {"open": False}
            calls: list[str] = []

            def spy(module, name):
                original = getattr(module, name)

                def wrapper(*args, **kwargs):
                    if window["open"]:
                        calls.append(f"{module.__name__}.{name}")
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)

            for module in (descriptor_module, mapping_module, closure_module):
                spy(module, "normalize_attrs")
            spy(dataclasses, "replace")
            spy(descriptor_module, "replace")

            original_intake = pipeline.intake_event
            original_build = pipeline.build_plan

            def intake_event(event):
                window["open"] = True
                return original_intake(event)

            def build_plan(*args, **kwargs):
                try:
                    return original_build(*args, **kwargs)
                finally:
                    window["open"] = False

            monkeypatch.setattr(pipeline, "intake_event", intake_event)
            monkeypatch.setattr(pipeline, "build_plan", build_plan)
            system.connection().replace(
                "cn=Bo Park,o=Lucent", {"definityRoom": "4D-400"}
            )
            assert system.pbx("pbx-42").station("4207").get("Room") == "4D-400"
            assert calls == []
        finally:
            system.close()
