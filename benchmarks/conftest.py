"""Shared helpers for the MetaComm experiment harness.

Every module in this directory regenerates one row of the experiment
index in DESIGN.md (the paper has no numeric tables; each experiment
checks the *shape* of a claimed behaviour and reports measurements).
Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Callable

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.schemas import PERSON_CLASSES

#: The repository root, where every ``BENCH_*.json`` is written.
ROOT = Path(__file__).resolve().parent.parent


def fresh_system(**kwargs) -> MetaComm:
    config = MetaCommConfig(organizations=("Marketing", "R&D"), **kwargs)
    return MetaComm(config)


def person_attrs(cn: str, sn: str, **extra) -> dict:
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def report(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print one experiment's result table (captured by pytest -s)."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def alternate(
    cells: dict[str, Callable[[], float]], repeats: int
) -> dict[str, list[float]]:
    """Run every cell once per repeat; return each cell's throughputs.

    Repeat *r* starts at cell *r* mod *n* and goes round in order, so
    host drift while the benchmark runs lands on every cell alike."""
    names = list(cells)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for r in range(repeats):
        for i in range(len(names)):
            name = names[(r + i) % len(names)]
            samples[name].append(cells[name]())
    return samples


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(
    path: str,
    benchmark: str,
    workload: dict,
    cells: dict[str, list[float]],
    gate: tuple[str, str, float],
    extra: dict | None = None,
) -> dict:
    """Write one gate's result document to *path* (relative to the
    repository root), print it, return it.

    *gate* is ``(numerator, denominator, floor)``: the gate passes when
    the ratio of the two cells' medians is at least *floor*.  Each cell
    keeps its median, quartiles and every run, so the noise band sits
    beside the ratio it qualifies."""
    summary = {}
    for name, runs in cells.items():
        q1, median, q3 = statistics.quantiles(runs, n=4)
        summary[name] = {
            "median": round(median, 1),
            "q1": round(q1, 1),
            "q3": round(q3, 1),
            "runs": [round(run, 1) for run in runs],
        }
    numerator, denominator, floor = gate
    value = statistics.median(cells[numerator]) / statistics.median(
        cells[denominator]
    )
    document = {
        "benchmark": benchmark,
        "env": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": _commit(),
        },
        "workload": {**workload, "repeats": len(next(iter(cells.values())))},
        "cells": summary,
        "gate": {
            "ratio": f"{numerator} / {denominator}",
            "value": value,
            "floor": floor,
            "passed": value >= floor,
        },
    }
    if extra is not None:
        document["extra"] = extra
    (ROOT / path).write_text(json.dumps(document, indent=2) + "\n")
    report(
        f"{benchmark} ({path})",
        ["cell", "median", "q1", "q3"],
        [(name, c["median"], c["q1"], c["q3"]) for name, c in summary.items()],
    )
    print(f"{document['gate']['ratio']} = {value:.3f}  (floor {floor:.3f})")
    return document


@pytest.fixture
def system():
    return fresh_system()
