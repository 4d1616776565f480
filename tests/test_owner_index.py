"""The partition-owner index (repro.lexpress.partition.OwnerIndex) and
the write-path work it and its neighbours stopped repeating: the index
must answer exactly as the partition predicates would, the routing oracle
must reach the same lane decisions through it, and closure conflicts
computed on first read must equal the ones read straight away.

Property tests run on a small Hypothesis budget."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import AnalysisTarget, InstanceBinding, build_routing_plan
from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.lexpress import ClosureEngine, FixpointError, compile_description
from repro.lexpress.bytecode import CodeObject, Op
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.lexpress.partition import (
    OwnerIndex,
    PartitionConstraint,
    prefix_disjunction,
)

from .test_lexpress_closure import DESCRIPTIONS, UNSTABLE

BUDGET = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Constants and values share a small alphabet so nesting, shared
#: prefixes and unclaimed values all come up often.
constants = st.text(alphabet="123", min_size=0, max_size=3)
prefix_sets = st.lists(
    st.lists(constants, min_size=1, max_size=3), min_size=1, max_size=4
)
values = st.one_of(st.none(), st.text(alphabet="1234", max_size=4))


def partition(consts, attribute="Extension", mode="interpret"):
    clauses = " or ".join(f'prefix({attribute}, "{c}")' for c in consts)
    return PartitionConstraint.compile(clauses, mode)


def nested(sets):
    """Is a constant of one instance a prefix of another instance's?"""
    return any(
        b.startswith(a)
        for i, left in enumerate(sets)
        for j, right in enumerate(sets)
        if i != j
        for a in left
        for b in right
    )


def image(value):
    return {} if value is None else {"extension": [value]}


class TestShapeRecognition:
    @pytest.mark.parametrize(
        "expression, shape",
        [
            ('prefix(Extension, "4")', ("extension", {"4"})),
            (
                'prefix(Extension, "41") or prefix(extension, "42")',
                ("extension", {"41", "42"}),
            ),
            (
                'prefix(a, "1") or (prefix(a, "2") or prefix(a, "3"))',
                ("a", {"1", "2", "3"}),
            ),
        ],
    )
    def test_disjunctions_of_prefixes_are_recognized(self, expression, shape):
        attribute, consts = prefix_disjunction(
            PartitionConstraint.compile(expression).code
        )
        assert (attribute, set(consts)) == shape

    @pytest.mark.parametrize(
        "expression",
        [
            'prefix(Extension, "41") and present(cn)',
            'prefix(Extension, "41") and prefix(Extension, "42")',
            'prefix(a, "1") or prefix(b, "2")',
            'not prefix(a, "1")',
            'prefix(a, "1") or true',
            'suffix(a, "1")',
            "present(TelephoneNumber)",
        ],
    )
    def test_any_other_shape_is_refused(self, expression):
        assert prefix_disjunction(PartitionConstraint.compile(expression).code) is None

    def test_a_call_skipped_on_a_false_path_is_refused(self):
        # prefix(a, "1"), with prefix(a, "2") evaluated (and ignored) only
        # once the first call held: every path returns a value that
        # matches some call assumed true, yet "2" alone does not satisfy
        # it, which the false path without that call gives away.
        code = CodeObject("partition:hand-built")
        attr, one, two = code.const("a"), code.const("1"), code.const("2")
        name = code.const("prefix")
        code.emit(Op.LOAD_ATTR, attr)
        code.emit(Op.PUSH, one)
        code.emit(Op.CALL, (name, 2))
        code.emit(Op.JUMP_IF_TRUE, 6)
        code.emit(Op.PUSH, code.const(False))
        code.emit(Op.RETURN)
        code.emit(Op.LOAD_ATTR, attr)
        code.emit(Op.PUSH, two)
        code.emit(Op.CALL, (name, 2))
        code.emit(Op.JUMP_IF_TRUE, 10)
        code.emit(Op.PUSH, code.const(True))
        code.emit(Op.RETURN)
        assert prefix_disjunction(code) is None

    def test_verify_mode_partitions_must_run(self):
        constraint = partition(["41"], mode="verify")
        assert constraint.prefixes is None
        assert OwnerIndex.build([constraint]) is None


class TestOwnerIndex:
    @BUDGET
    @given(sets=prefix_sets, probes=st.lists(values, min_size=1, max_size=8))
    def test_index_agrees_with_the_predicate_scan(self, sets, probes):
        partitions = [partition(consts) for consts in sets]
        index = OwnerIndex.build(partitions)
        # Nested constants across instances: the index must refuse.
        assert (index is None) == nested(sets)
        if index is None:
            return
        for value in probes:
            low = image(value)
            scan = [p.satisfied_by(low, canonical=True) for p in partitions]
            assert index.owners(low) == scan
            assert sum(scan) <= 1

    def test_unclaimed_and_absent_values_have_no_owner(self):
        index = OwnerIndex.build([partition(["41"]), partition(["42", "5"])])
        assert index.owners({"extension": ["4300"]}) == [False, False]
        assert index.owners({}) == [False, False]
        assert index.owners(None) == [False, False]
        assert index.owners({"extension": ["5"]}) == [False, True]

    def test_non_prefix_and_overlapping_partitions_take_the_scan_path(self):
        mapping = compile_description(
            """
            mapping ldap_to_dev {
                source ldap;
                target dev;
                key devId -> Id;
                map Id = devId;
                map Owner = cn;
            }
            """
        )["ldap_to_dev"]
        cases = {
            "non-prefix": (
                PartitionConstraint.compile('prefix(Id, "41") and present(Owner)'),
                partition(["42"], "Id"),
            ),
            "overlapping": (partition(["4"], "Id"), partition(["42"], "Id")),
            "two attributes": (partition(["41"], "Id"), partition(["42"], "Owner")),
            "unpartitioned instance": (partition(["41"], "Id"), None),
        }
        for name, partitions in cases.items():
            assert mapping.owner_index(partitions) is None, name
            # The scan still answers: both claim an overlapping 42xx id.
            claimed = mapping.claimed({"Id": ["4200"], "Owner": ["x"]}, partitions)
            expected = [
                p is None or p.satisfied_by({"Id": ["4200"], "Owner": ["x"]})
                for p in partitions
            ]
            assert claimed == expected, name
        disjoint = (partition(["41"], "Id"), partition(["42"], "Id"))
        assert mapping.owner_index(disjoint).describe() == "prefix(id)"
        assert mapping.claimed({"Id": ["4200"]}, disjoint) == [False, True]

    def test_the_shipped_fleet_routes_through_the_index(self):
        for mode, indexed in (("compiled", True), ("verify", False)):
            system = MetaComm(
                MetaCommConfig(
                    pbxes=[PbxConfig("pbx-41", ("41",)), PbxConfig("pbx-42", ("42",))],
                    lexpress_mode=mode,
                )
            )
            try:
                bindings = [system.um.binding("pbx-41"), system.um.binding("pbx-42")]
                mapping = bindings[0].from_ldap
                index = mapping.owner_index(tuple(b.partition for b in bindings))
                assert (index is not None) == indexed, mode
            finally:
                system.close()


# -- the routing oracle: indexed vs the full predicate walk --------------------

DEV = """
mapping ldap_to_dev {
    source ldap;
    target dev;
    key devId -> Id;
    map Id = devId;
    map Owner = cn;
}
"""

descriptors = st.builds(
    lambda op, old, new: UpdateDescriptor(
        op=op,
        source="ldap",
        key="r",
        old=None if op is UpdateOp.ADD else {"cn": ["a"], **_dev(old)},
        new=None if op is UpdateOp.DELETE else {"cn": ["b"], **_dev(new)},
    ),
    st.sampled_from([UpdateOp.ADD, UpdateOp.MODIFY, UpdateOp.DELETE]),
    values,
    values,
)


def _dev(value):
    return {} if value is None else {"devId": [value]}


def routing_plan(sets, mode):
    mapping = compile_description(DEV)["ldap_to_dev"]
    target = AnalysisTarget(
        mappings=[mapping],
        instances=[
            InstanceBinding(f"dev-{i}", mapping, partition(consts, "Id", mode))
            for i, consts in enumerate(sets)
        ],
    )
    return build_routing_plan(target)


class TestIndexedRouting:
    @BUDGET
    @given(sets=prefix_sets, updates=st.lists(descriptors, min_size=1, max_size=6))
    def test_classify_matches_the_full_walk(self, sets, updates):
        indexed = routing_plan(sets, "interpret")
        # Verify-mode partitions must run, so this plan walks them all.
        walked = routing_plan(sets, "verify")
        assert walked.describe()["owner_lookup"] == {"dev": "scan"}
        expected_lookup = "scan" if nested(sets) else "prefix(id)"
        assert indexed.describe()["owner_lookup"] == {"dev": expected_lookup}
        for descriptor in updates:
            assert indexed.classify(descriptor) == walked.classify(descriptor)

    def test_overlap_and_unclaimed_reasons_survive(self):
        overlapping = routing_plan([["4"], ["42"]], "interpret")
        add = UpdateDescriptor(
            op=UpdateOp.ADD, source="ldap", key="r", new={"devId": ["4200"]}
        )
        assert overlapping.classify(add).reason == "partition-overlap"
        disjoint = routing_plan([["41"], ["42"]], "interpret")
        stray = UpdateDescriptor(
            op=UpdateOp.ADD, source="ldap", key="r", new={"devId": ["4300"]}
        )
        assert disjoint.classify(stray).reason == "unclaimed"
        assert disjoint.classify(add).lane_key == "dev-1:4200"


# -- closure conflicts, computed on first read ---------------------------------

SCENARIOS = [
    (DESCRIPTIONS, "pbx", {"Extension": "4200", "Name": "Doe, John"}, ["Extension"], ()),
    (
        DESCRIPTIONS,
        "ldap",
        {"telephoneNumber": "+1 908 582 4111", "definityExtension": "4999"},
        ["telephoneNumber", "definityExtension"],
        ["telephoneNumber", "definityExtension"],
    ),
    (
        DESCRIPTIONS,
        "ldap",
        {"definityExtension": "4500", "telephoneNumber": "+1 555 000 0000"},
        ["definityExtension"],
        ["telephoneNumber"],
    ),
    (UNSTABLE, "a", {"x2": "seed", "k": "1"}, ["x2", "k"], ()),
]


def _propagate(engine, scenario):
    _, schema, attrs, changed, explicit = scenario
    return engine.propagate(schema, attrs, changed=changed, explicit=explicit)


class TestLazyConflicts:
    @BUDGET
    @given(order=st.lists(st.sampled_from(range(len(SCENARIOS))), min_size=1, max_size=6))
    def test_conflicts_read_late_equal_conflicts_read_at_once(self, order):
        engines = {
            text: ClosureEngine(compile_description(text).values())
            for text in (DESCRIPTIONS, UNSTABLE)
        }
        # Every propagation first, on shared engines; conflicts read last.
        late = [(i, _propagate(engines[SCENARIOS[i][0]], SCENARIOS[i])) for i in order]
        for i, result in late:
            scenario = SCENARIOS[i]
            fresh = ClosureEngine(compile_description(scenario[0]).values())
            at_once = _propagate(fresh, scenario).conflicts
            assert [str(c) for c in result.conflicts] == [str(c) for c in at_once]
            assert result.conflicts == at_once

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_strict_engine_still_checks_eagerly(self, scenario):
        unstable = _propagate(
            ClosureEngine(compile_description(scenario[0]).values()), scenario
        ).unstable_conflicts()
        strict = ClosureEngine(compile_description(scenario[0]).values(), strict=True)
        if unstable:
            with pytest.raises(FixpointError):
                _propagate(strict, scenario)
        else:
            assert _propagate(strict, scenario).unstable_conflicts() == []

    def test_the_paper_scenarios_keep_their_conflicts(self):
        engine = ClosureEngine(compile_description(DESCRIPTIONS).values())
        explicit = _propagate(engine, SCENARIOS[1])
        assert explicit.conflicts and not explicit.unstable_conflicts()
        assert _propagate(engine, SCENARIOS[0]).conflicts == []
        unstable = ClosureEngine(compile_description(UNSTABLE).values())
        assert _propagate(unstable, SCENARIOS[3]).unstable_conflicts()
