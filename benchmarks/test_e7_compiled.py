"""E7 (compiled tier) — interpreter vs compiled-closure rule evaluation.

The compilation tier (docs/LEXPRESS_COMPILER.md) lowers verified lexpress
byte code into plain Python closures, bound to each rule when its mapping
is built.  This benchmark measures the payoff on the E7 steady-state
workload: full target-schema ``image()`` evaluation of the standard
``pbx_to_ldap`` mapping — the exact computation the Update Manager's
enrich/plan stages run per update — with the mapping built once per
``lexpress_mode``.

The three cells run in alternation (``conftest.alternate``); the gate
is the same-run ratio of medians, compiled over interpreter, which must
reach 2.  Also asserts that verify mode completes every run with zero
divergences, and writes each cell's median, quartiles and runs plus the
compiled mapping's bind statistics to ``BENCH_e7.json``
(``conftest.record``).
Run with::

    make bench-e7
"""

import time

import pytest

from conftest import alternate, record

from repro.lexpress import MODES
from repro.schemas import standard_mappings

#: image() evaluations per measured run.
ITERATIONS = 10_000
#: Alternating runs per mode.
REPEATS = 5
#: Required speedup of compiled closures over the interpreter.
SPEEDUP_FLOOR = 2.0

#: A representative PBX station record: exercises the regex name swap,
#: prefix concatenation, and the plain identity rules.
RECORD = {
    "Extension": "4100",
    "Name": "Doe, John",
    "Room": "2B-110",
    "COS": "standard",
    "CoveragePath": "ops",
}


def _cell(mapping):
    """A cell timing ITERATIONS image() evaluations of *mapping*; its
    expected image is computed here, outside every timed run."""
    expected = mapping.image(RECORD)

    def run() -> float:
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            mapping.image(RECORD)
        elapsed = time.perf_counter() - start
        assert mapping.image(RECORD) == expected
        return ITERATIONS / elapsed

    return run


@pytest.mark.benchmarks
def test_e7_compiled_vs_interpreter():
    mappings = {mode: standard_mappings(mode=mode)["pbx_to_ldap"] for mode in MODES}
    cells = {mode: _cell(mapping) for mode, mapping in mappings.items()}
    samples = alternate(cells, REPEATS)
    runners = mappings["compiled"].runners
    bound = {
        "runners": len(runners),
        "compiles": sum(r.status == "compiled" for r in runners),
        "rejected": sum(r.status == "rejected" for r in runners),
    }
    document = record(
        "BENCH_e7.json",
        "e7_compiled_rule_evaluation",
        {
            "mapping": "pbx_to_ldap",
            "iterations": ITERATIONS,
            "metric": "full image() evaluations per second",
        },
        samples,
        ("compiled", "interpret", SPEEDUP_FLOOR),
        extra={"bind": bound},
    )

    # verify mode ran both engines for every evaluation without raising:
    # the shipped mapping library has zero divergences on this workload.
    assert bound["rejected"] == 0, "verifier rejected a shipped rule"
    assert document["gate"]["passed"], document["gate"]
