"""Tests for the transitive-closure engine and cycle analysis.

These exercise the exact scenarios of paper section 4.2: the LDAP
attributes ``telephoneNumber`` and ``definityExtension`` related through
the Definity attribute ``Extension``, multi-hop propagation into the
messaging platform, and the first-mapping-wins conflict rule for
inconsistently set attributes.
"""

import pytest

from repro.lexpress import (
    ClosureEngine,
    CyclicDependencyError,
    FixpointError,
    analyze_cycles,
    check_cycles,
    compile_description,
    dependency_graph,
)
from repro.schemas.mappings import standard_mappings

# The three-repository mapping web from the paper: PBX <-> LDAP <-> MP.
DESCRIPTIONS = """
mapping pbx_to_ldap {
    source pbx;
    target ldap;
    key Extension -> definityExtension;
    map telephoneNumber = concat("+1 908 582 ", Extension);
    map cn = Name;
}

mapping ldap_to_pbx {
    source ldap;
    target pbx;
    key definityExtension -> Extension;
    map Extension = alt(definityExtension, substr(telephoneNumber, 11));
    map Name = cn;
}

mapping ldap_to_mp {
    source ldap;
    target mp;
    key telephoneNumber -> TelephoneNumber;
    map MailboxId = concat("MB-", digits(substr(telephoneNumber, 11)));
    map SubscriberName = cn;
}

mapping mp_to_ldap {
    source mp;
    target ldap;
    key TelephoneNumber -> telephoneNumber;
    map mpMailboxId = MailboxId;
}
"""


@pytest.fixture
def engine():
    return ClosureEngine(compile_description(DESCRIPTIONS).values())


class TestPaperExamples:
    def test_extension_change_updates_both_ldap_attributes(self, engine):
        """Section 4.2: 'the LDAP attributes telephoneNumber and
        DefinityExtension are related through the Definity attribute
        Extension.  If either changes, lexpress changes the other.'"""
        result = engine.propagate(
            "pbx", {"Extension": "4200", "Name": "Doe, John"}, changed=["Extension"]
        )
        ldap = result.image("ldap")
        assert ldap["definityExtension"] == ["4200"]
        assert ldap["telephoneNumber"] == ["+1 908 582 4200"]

    def test_multi_hop_pbx_to_mp(self, engine):
        """Section 4.2: 'When the extension of an existing object changes,
        the PBX-to-LDAP mapping changes the telephone number.  Because
        lexpress processes the transitive closure of mappings, it also
        uses the LDAP-to-MP mapping to change the voice mailbox id.'"""
        result = engine.propagate(
            "pbx", {"Extension": "4300", "Name": "Lu, Jill"}, changed=["Extension"]
        )
        mp = result.image("mp")
        assert mp["TelephoneNumber"] == ["+1 908 582 4300"]
        assert mp["MailboxId"] == ["MB-4300"]

    def test_ldap_change_reaches_pbx(self, engine):
        result = engine.propagate(
            "ldap",
            {"telephoneNumber": "+1 908 582 4400", "cn": "Pat Smith"},
            changed=["telephoneNumber"],
        )
        assert result.image("pbx")["Extension"] == ["4400"]

    def test_inconsistent_explicit_attributes_first_win(self, engine):
        """Section 4.2: 'If telephoneNumber and DefinityExtension are set
        inconsistently ... the inconsistently set attributes do not affect
        each other's values and only one of them has its value propagated
        to other attributes.'"""
        result = engine.propagate(
            "ldap",
            {"telephoneNumber": "+1 908 582 4111", "definityExtension": "4999"},
            changed=["telephoneNumber", "definityExtension"],
            explicit=["telephoneNumber", "definityExtension"],
        )
        ldap = result.image("ldap")
        # Both keep exactly the values the client set.
        assert ldap["telephoneNumber"] == ["+1 908 582 4111"]
        assert ldap["definityExtension"] == ["4999"]
        # Exactly one of them drove the PBX Extension (first mapping wins;
        # ldap_to_pbx prefers definityExtension through alt()).
        assert result.image("pbx")["Extension"] in (["4999"], ["4111"])
        # The disagreement is visible but classified as explicit/benign.
        assert result.conflicts
        assert not result.unstable_conflicts()

    def test_explicit_attribute_never_overwritten(self, engine):
        result = engine.propagate(
            "ldap",
            {"definityExtension": "4500", "telephoneNumber": "+1 555 000 0000"},
            changed=["definityExtension"],
            explicit=["telephoneNumber"],
        )
        # telephoneNumber was explicitly set; the closure must not replace
        # it even though definityExtension maps onto it via the PBX.
        assert result.image("ldap")["telephoneNumber"] == ["+1 555 000 0000"]


class TestMechanics:
    def test_unchanged_attributes_keep_context(self, engine):
        base = {"ldap": {"cn": ["Old Name"], "definityExtension": ["4100"]}}
        result = engine.propagate(
            "ldap",
            {"cn": "New Name", "definityExtension": "4100"},
            changed=["cn"],
            base_images=base,
        )
        assert result.image("pbx")["Name"] == ["New Name"]

    def test_changed_tracking(self, engine):
        result = engine.propagate(
            "pbx", {"Extension": "4000", "Name": "A"}, changed=["Extension"]
        )
        assert "telephonenumber" in result.changed["ldap"]
        assert "mailboxid" in result.changed["mp"]
        # Name did not change, so cn must not be in the changed set.
        assert "cn" not in result.changed.get("ldap", set())

    def test_no_relevant_mapping_is_a_noop(self, engine):
        result = engine.propagate("pbx", {"Port": "01A0101"}, changed=["Port"])
        assert result.image("ldap") == {}

    def test_value_equal_does_not_ripple(self, engine):
        base = {
            "ldap": {
                "definityExtension": ["4100"],
                "telephoneNumber": ["+1 908 582 4100"],
            },
            "pbx": {"Extension": ["4100"]},
        }
        result = engine.propagate(
            "pbx", {"Extension": "4100"}, changed=["Extension"], base_images=base
        )
        # The recomputed values match what is already there — nothing
        # should be reported as changed at the LDAP level.
        assert "telephonenumber" not in result.changed.get("ldap", set())

    def test_iterations_bounded(self):
        engine = ClosureEngine(
            compile_description(DESCRIPTIONS).values(), max_iterations=1
        )
        with pytest.raises(FixpointError):
            engine.propagate(
                "pbx", {"Extension": "4100", "Name": "X"}, changed=["Extension"]
            )


UNSTABLE = """
mapping a_to_b {
    source a;
    target b;
    key k -> k;
    map x = concat(x2, "!");
}
mapping b_to_a {
    source b;
    target a;
    key k -> k;
    map x2 = x;
}
"""

STABLE_CYCLE = """
mapping a_to_b {
    source a;
    target b;
    key k -> k;
    map x = upper(x2);
}
mapping b_to_a {
    source b;
    target a;
    key k -> k;
    map x2 = x;
}
"""

# Two mappings between the same schemas write b.x from a.x2: the first
# is unstable round the cycle, the second is not.
PARALLEL = """
mapping a_to_b_bang {
    source a;
    target b;
    key k -> k;
    map x = concat(x2, "!");
}
mapping a_to_b_plain {
    source a;
    target b;
    key k -> k;
    map x = x2;
}
mapping b_to_a {
    source b;
    target a;
    key k -> k;
    map x2 = x;
}
"""


class TestCycleAnalysis:
    def test_dependency_graph_shape(self, engine):
        graph = dependency_graph(
            compile_description(DESCRIPTIONS).values()
        )
        assert ("pbx", "extension") in graph
        assert ("ldap", "telephonenumber") in graph[("pbx", "extension")]

    def test_stable_cycle_detected_as_stable(self):
        reports = analyze_cycles(compile_description(STABLE_CYCLE).values())
        cycles_with_x = [r for r in reports if ("b", "x") in r.nodes]
        assert cycles_with_x
        assert all(r.stable for r in cycles_with_x)

    def test_unstable_cycle_detected(self):
        reports = analyze_cycles(compile_description(UNSTABLE).values())
        assert any(not r.stable for r in reports)

    def test_check_cycles_raises_on_unstable(self):
        with pytest.raises(CyclicDependencyError):
            check_cycles(compile_description(UNSTABLE).values())

    def test_check_cycles_passes_stable(self):
        reports = check_cycles(compile_description(STABLE_CYCLE).values())
        assert reports  # cycles exist, but all stable

    def test_paper_mappings_are_fixpoint_safe(self, engine):
        reports = check_cycles(compile_description(DESCRIPTIONS).values())
        assert all(r.stable for r in reports)

    @pytest.mark.parametrize(
        "order",
        [
            ("a_to_b_bang", "a_to_b_plain", "b_to_a"),
            ("a_to_b_plain", "a_to_b_bang", "b_to_a"),
        ],
        ids=["bang-first", "plain-first"],
    )
    def test_every_parallel_rule_is_probed(self, order):
        """Either rule on the a.x2 -> b.x edge may be the one the
        closure fires first, so the verdict must not depend on which
        mapping was registered last."""
        compiled = compile_description(PARALLEL)
        mappings = [compiled[name] for name in order]
        graph = dependency_graph(mappings)
        assert len(graph[("a", "x2")][("b", "x")]) == 2
        reports = analyze_cycles(mappings)
        assert [str(r) for r in reports if ("b", "x") in r.nodes] == [
            "UNSTABLE cycle: a.x2 -> b.x"
        ]
        with pytest.raises(CyclicDependencyError):
            check_cycles(mappings)

    def test_shipped_mappings_cycles(self):
        """The standard mapping library: 14 two-node round trips between
        a device attribute and an ``ldap`` attribute, all stable."""
        reports = analyze_cycles(standard_mappings().values())
        assert all(r.stable for r in reports)
        assert len(reports) == 14
        round_trips = [
            ("mp", "language", "mplanguage"),
            ("mp", "cos", "mpcos"),
            ("mp", "subscribername", "mpsubscribername"),
            ("pbx", "coveragepath", "definitycoveragepath"),
            ("pbx", "type", "definitytype"),
            ("pbx", "cos", "definitycos"),
            ("pbx", "cor", "definitycor"),
            ("pbx", "port", "definityport"),
            ("pbx", "building", "definitybuilding"),
            ("pbx", "room", "definityroom"),
            ("pbx", "name", "cn"),
            ("pbx", "extension", "definityextension"),
            ("pbx", "extension", "telephonenumber"),
            ("mp", "telephonenumber", "telephonenumber"),
        ]
        assert {frozenset(r.nodes) for r in reports} == {
            frozenset({(device, attr), ("ldap", ldap_attr)})
            for device, attr, ldap_attr in round_trips
        }

    def test_runtime_unstable_conflict_surfaces(self):
        engine = ClosureEngine(compile_description(UNSTABLE).values())
        result = engine.propagate("a", {"x2": "seed", "k": "1"}, changed=["x2", "k"])
        assert result.unstable_conflicts()

    def test_strict_engine_raises_at_runtime(self):
        engine = ClosureEngine(compile_description(UNSTABLE).values(), strict=True)
        with pytest.raises(FixpointError):
            engine.propagate("a", {"x2": "seed", "k": "1"}, changed=["x2", "k"])
