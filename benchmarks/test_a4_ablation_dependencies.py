"""Ablation A4 — lexpress dependency analysis on vs off.

The compiler records the source attributes each rule reads; the
translation path uses those sets to (a) skip mappings untouched by a
modify and (b) re-evaluate only affected rules in the closure.  We ablate
the analysis (pretend every rule depends on everything) and measure the
extra evaluation work on a realistic modify-heavy stream.
"""

import pytest
from conftest import report

from repro.lexpress import UpdateDescriptor, UpdateOp
from repro.lexpress.mapping import CompiledMapping
from repro.schemas import standard_mappings

ROWS: list[tuple] = []


def make_descriptors(n: int) -> list[UpdateDescriptor]:
    """A stream of small modifies: one attribute changes at a time."""
    out = []
    for i in range(n):
        field, old, new = [
            ("Room", "1A", f"R{i}"),
            ("COS", "1", str(i % 9 + 1)),
            ("Port", "01A0101", "01A0202"),
        ][i % 3]
        base = {"Extension": "4100", "Name": "Doe, John", field: old}
        changed = dict(base)
        changed[field] = new
        out.append(
            UpdateDescriptor(UpdateOp.MODIFY, "pbx", "4100", old=base, new=changed)
        )
    return out


def ablate_dependencies(mapping: CompiledMapping) -> CompiledMapping:
    """Return a clone whose every rule claims to depend on everything."""
    import copy

    clone = copy.copy(mapping)
    all_deps = frozenset().union(*(r.deps for r in mapping.rules))

    class _FatRule:
        def __init__(self, rule):
            self.target = rule.target
            self.target_low = rule.target_low
            self.code = rule.code
            self.run = rule.run

        @property
        def deps(self):
            return all_deps

    clone.rules = tuple(_FatRule(r) for r in mapping.rules)
    return clone


COUNTER = {"evaluations": 0}


def counting_evaluate(original_evaluate):
    def wrapper(*args, **kwargs):
        COUNTER["evaluations"] += 1
        return original_evaluate(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("analysis", ["on", "off"])
def test_a4_rule_evaluations(benchmark, analysis, monkeypatch):
    mapping = standard_mappings()["pbx_to_ldap"]
    if analysis == "off":
        mapping = ablate_dependencies(mapping)
    descriptors = make_descriptors(60)

    COUNTER["evaluations"] = 0
    monkeypatch.setattr(
        CompiledMapping, "evaluate", counting_evaluate(CompiledMapping.evaluate)
    )

    def run():
        for descriptor in descriptors:
            mapping.translate(descriptor)

    benchmark.pedantic(run, rounds=1)
    ROWS.append((analysis, len(descriptors), COUNTER["evaluations"]))
    if analysis == "off":
        on_count = next(r[2] for r in ROWS if r[0] == "on")
        off_count = COUNTER["evaluations"]
        report(
            "A4: lexpress rule evaluations, dependency analysis on vs off",
            ["analysis", "modify descriptors", "rule evaluations"],
            ROWS,
        )
        # Shape: the analysis must cut evaluation work substantially.
        assert on_count < off_count
        assert on_count <= off_count * 0.8
