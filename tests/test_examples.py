"""Smoke test: every script under ``examples/`` runs to completion.

Each example is run in-process as ``__main__`` (``runpy``) and must end
with its repositories consistent: the last line of its output that
mentions consistency reads ``True``.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_ends_consistent(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    verdicts = [
        line for line in capsys.readouterr().out.splitlines()
        if "consistent" in line.lower()
    ]
    assert verdicts, "the example never reports consistency"
    assert verdicts[-1].rstrip().endswith("True"), verdicts[-1]
