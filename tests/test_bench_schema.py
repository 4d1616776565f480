"""Every committed ``BENCH_*.json`` follows the one benchmark schema.

The throughput gates all measure through ``benchmarks/conftest.py``
(``alternate`` and ``record``): each cell's median, quartiles and runs,
and a gate that is the same-run ratio of two cells' medians.  A result
file that drifts from that schema would be a gate nobody can read the
noise band of.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_every_gate_has_a_result_file():
    names = {path.name for path in BENCH_FILES}
    assert names >= {
        "BENCH_e7.json",
        "BENCH_health.json",
        "BENCH_lanes.json",
        "BENCH_links.json",
        "BENCH_obs.json",
        "BENCH_pipeline.json",
    }


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_schema(path):
    document = json.loads(path.read_text())
    assert {"benchmark", "env", "workload", "cells", "gate"} <= document.keys()
    assert set(document) <= {"benchmark", "env", "workload", "cells", "gate", "extra"}
    assert {"python", "cpu_count", "commit"} <= document["env"].keys()

    repeats = document["workload"]["repeats"]
    for name, cell in document["cells"].items():
        assert {"median", "q1", "q3", "runs"} <= cell.keys(), name
        assert cell["q1"] <= cell["median"] <= cell["q3"], name
        assert len(cell["runs"]) == repeats, name

    gate = document["gate"]
    numerator, denominator = gate["ratio"].split(" / ")
    assert {numerator, denominator} <= document["cells"].keys()
    assert gate["passed"] == (gate["value"] >= gate["floor"])
