"""Tests for the plan stage's shared translation: each distinct mapping is
translated once per update sequence and the resulting images are routed
against every repository instance bound to it (section 4.1's reuse of one
``ldap_to_pbx`` mapping per PBX, each with its own extension prefix).

The shared plan must be exactly the plan that translating every binding
on its own produces — same bindings, same target updates, same
before-images — under every rule engine mode."""

import random

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.lexpress import LexpressDivergenceError
from repro.lexpress import codegen
from repro.lexpress.codegen import CompiledClosure
from repro.lexpress.descriptor import TargetAction, UpdateDescriptor, UpdateOp
from repro.lexpress.mapping import CompiledMapping
from repro.schemas import PERSON_CLASSES

PREFIXES = ("41", "42", "43", "44", "45", "46", "47", "48")
MODES = ("interpret", "compiled", "verify")


def fleet(mode):
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{p}", (p,)) for p in PREFIXES],
            lexpress_mode=mode,
        )
    )


def provision(system, per_prefix=3):
    conn = system.connection()
    for prefix in PREFIXES:
        for n in range(per_prefix):
            cn = f"Pat{prefix}{n} Station"
            conn.add(
                f"cn={cn},o=Lucent",
                {
                    "objectClass": list(PERSON_CLASSES),
                    "cn": cn,
                    "sn": "Station",
                    "definityExtension": f"{prefix}0{n}",
                    "roomNumber": f"R{prefix}{n}",
                },
            )
    return [
        (str(e.dn), e.attributes.to_dict())
        for e in system.find_person("(definityExtension=*)")
    ]


def with_values(attrs, **changes):
    """A copy of an LDAP image with attributes replaced (None removes)."""
    out = {k: list(v) for k, v in attrs.items()}
    for name, value in changes.items():
        for key in [k for k in out if k.lower() == name.lower()]:
            del out[key]
        if value is not None:
            out[name] = [value]
    return out


def descriptors(people, seed):
    """Every kind of update sequence the plan stage routes, drawn over a
    seeded sample of the provisioned people."""
    rng = random.Random(seed)

    def modify(dn, old, **changes):
        return UpdateDescriptor(
            UpdateOp.MODIFY, "ldap", dn, old=old,
            new=with_values(old, **changes),
        )

    out = []
    for dn, attrs in rng.sample(people, 6):
        ext = attrs["definityExtension"][0]
        other = rng.choice([p for p in PREFIXES if p != ext[:2]])
        out += [
            # ADD of a fresh person on a random PBX.
            UpdateDescriptor(
                UpdateOp.ADD, "ldap", "cn=New Person,o=Lucent",
                new=with_values(
                    attrs, cn="New Person",
                    definityExtension=f"{other}9{rng.randrange(10)}",
                    telephoneNumber=None,
                ),
            ),
            modify(dn, attrs, roomNumber=f"Z{rng.randrange(100)}"),
            UpdateDescriptor(UpdateOp.DELETE, "ldap", dn, old=attrs),
            # Rename: the cn feeds Name at the PBX and SubscriberName at
            # the messaging platform.
            modify(dn, attrs, cn=f"Renamed{rng.randrange(100)} Station"),
            # Prefix migration: DELETE at one PBX, ADD at another.
            modify(
                dn, attrs, definityExtension=f"{other}{ext[2:]}",
                telephoneNumber=None,
            ),
            # Messaging-only: no PBX mapping reads mpLanguage.
            modify(dn, attrs, mpLanguage=rng.choice(["fr", "de", "es"])),
            # A DDU forwarded from its own PBX: conditional there only.
            modify(
                dn, attrs, definityRoom=f"D{rng.randrange(100)}",
                lastUpdater=f"pbx-{ext[:2]}",
            ),
            # Irrelevant to every device mapping.
            modify(dn, attrs, description="just a note"),
        ]
    return out


def per_binding_plans(pipeline, enriched):
    plans = []
    for index, binding in enumerate(pipeline.bindings):
        plan = pipeline.plan_device_update(binding, enriched, index)
        if plan is not None:
            plans.append(plan)
    return plans


def plan_view(plans):
    return [(p.index, p.binding.name, p.update, p.before) for p in plans]


@pytest.mark.parametrize("mode", MODES)
def test_shared_plan_equals_per_binding_plans(mode):
    system = fleet(mode)
    try:
        pipeline = system.um.pipeline
        people = provision(system)
        actions = set()
        conditional = set()
        for descriptor in descriptors(people, seed=len(mode)):
            plan = pipeline.build_plan(descriptor)
            expected = per_binding_plans(pipeline, plan.enriched)
            assert plan_view(plan.device_plans) == plan_view(expected)
            actions.update(
                (p.binding.name.startswith("pbx"), p.update.action)
                for p in plan.device_plans
            )
            conditional.update(
                p.binding.name for p in plan.device_plans if p.update.conditional
            )
        # The sample exercised every routing outcome on the PBXes.
        assert {
            (True, TargetAction.ADD),
            (True, TargetAction.MODIFY),
            (True, TargetAction.DELETE),
        } <= actions
        assert (False, TargetAction.MODIFY) in actions
        assert conditional and all(n.startswith("pbx-") for n in conditional)
    finally:
        system.close()


def test_a_prefix_migration_routes_delete_and_add_from_one_translation():
    system = fleet("compiled")
    try:
        people = provision(system, per_prefix=1)
        dn, attrs = next(
            (dn, a) for dn, a in people if a["definityExtension"] == ["4100"]
        )
        descriptor = UpdateDescriptor(
            UpdateOp.MODIFY, "ldap", dn, old=attrs,
            new=with_values(attrs, definityExtension="4200", telephoneNumber=None),
        )
        plan = system.um.pipeline.build_plan(descriptor)
        routed = {p.binding.name: p.update.action for p in plan.device_plans}
        assert routed["pbx-41"] is TargetAction.DELETE
        assert routed["pbx-42"] is TargetAction.ADD
        assert not any(name.startswith("pbx-4") and name not in (
            "pbx-41", "pbx-42") for name in routed)
    finally:
        system.close()


def test_each_mapping_translates_once_per_sequence(monkeypatch):
    system = fleet("compiled")
    try:
        people = provision(system, per_prefix=1)
        calls: list[str] = []
        images: list[str] = []
        translate = CompiledMapping.translate
        dual_images = CompiledMapping._dual_images
        image = CompiledMapping.image

        def spy_translate(self, *args, **kwargs):
            calls.append(self.name)
            return translate(self, *args, **kwargs)

        def spy_dual(self, *args, **kwargs):
            images.append(self.name)
            return dual_images(self, *args, **kwargs)

        def spy_image(self, *args, **kwargs):
            images.append(self.name)
            return image(self, *args, **kwargs)

        monkeypatch.setattr(CompiledMapping, "translate", spy_translate)
        monkeypatch.setattr(CompiledMapping, "_dual_images", spy_dual)
        monkeypatch.setattr(CompiledMapping, "image", spy_image)
        pipeline = system.um.pipeline
        for descriptor in descriptors(people, seed=7):
            calls.clear()
            images.clear()
            pipeline.build_plan(descriptor)
            assert sorted(calls) == ["ldap_to_mp", "ldap_to_pbx"]
            # A modify evaluates the rule set once for both images; an add
            # or delete builds one image per side (a missing side is free).
            per_side = 1 if descriptor.op is UpdateOp.MODIFY else 2
            for name in ("ldap_to_mp", "ldap_to_pbx"):
                assert images.count(name) in (0, per_side), (name, images)
    finally:
        system.close()


def test_plan_stage_keeps_binding_order_and_indexes():
    system = fleet("compiled")
    try:
        people = provision(system, per_prefix=1)
        dn, attrs = people[0]
        descriptor = UpdateDescriptor(
            UpdateOp.MODIFY, "ldap", dn, old=attrs,
            new=with_values(attrs, definityRoom="Q1", mpLanguage="fr"),
        )
        plan = system.um.pipeline.build_plan(descriptor)
        names = [b.name for b in system.um.bindings]
        for device_plan in plan.device_plans:
            assert names[device_plan.index] == device_plan.binding.name
        indexes = [p.index for p in plan.device_plans]
        assert indexes == sorted(indexes) and len(indexes) == 2
    finally:
        system.close()


class TestPartitionEngines:
    """Instance partitions are bound to the system's mode when it boots."""

    def _add(self):
        attrs = {
            "objectClass": list(PERSON_CLASSES),
            "cn": "Jo Smith",
            "sn": "Smith",
            "definityExtension": "4100",
        }
        return UpdateDescriptor(UpdateOp.ADD, "ldap", "cn=Jo Smith,o=Lucent", new=attrs)

    def test_compiled_mode_serves_partitions_from_the_closure_cache(self):
        system = fleet("compiled")
        try:
            binding = system.um.binding("pbx-41")
            for partition in (binding.partition, binding.from_ldap.partition):
                assert partition.run.status == "compiled"
            plan = system.um.pipeline.build_plan(self._add())
            names = [p.binding.name for p in plan.device_plans]
            assert [n for n in names if n.startswith("pbx-")] == ["pbx-41"]
        finally:
            system.close()

    def test_verify_mode_raises_on_a_diverging_partition_closure(
        self, monkeypatch
    ):
        honest = codegen.verified_compile

        def lying_partitions(code, mapping="", attribute=None):
            closure = honest(code, mapping, attribute)
            if not code.name.startswith("partition:"):
                return closure
            return CompiledClosure(
                name=code.name,
                fn=lambda attrs, frame: False,
                source="",
                fingerprint=code.fingerprint(),
            )

        monkeypatch.setattr(codegen, "verified_compile", lying_partitions)
        system = fleet("verify")
        try:
            code = system.um.binding("pbx-41").partition.code
            with pytest.raises(LexpressDivergenceError) as exc_info:
                system.um.pipeline.build_plan(self._add())
            error = exc_info.value
            assert error.mapping == "partition"
            assert error.attribute == code.name
            assert error.interpreted is True and error.compiled is False
        finally:
            system.close()

    def test_interpret_mode_never_compiles_partitions(self):
        system = fleet("interpret")
        try:
            binding = system.um.binding("pbx-41")
            for partition in (binding.partition, binding.from_ldap.partition):
                assert partition.run.status is None
                assert partition.run.closure is None
        finally:
            system.close()
