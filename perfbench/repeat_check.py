"""Exact-repeat check of the per-layer count metrics.

    python3 perfbench/repeat_check.py --seed 1 --seconds 10

Runs the traced benchmark twice per single-client workload (``wba_churn``
and ``craft_ddu``: one client and no timers, so the same seed must make
the same calls) and fails when any count metric differs between the two
runs.  Prints each workload's counts and exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("wba_churn", "craft_ddu")
COUNTS = (
    "lexpress.translate_calls",
    "lexpress.image_calls",
    "pipeline.plan_calls",
    "pipeline.plan_hit_ratio",
    "devices.ops",
    "obs.journal_emits",
    "obs.spans",
    "audit.records_probed",
    "ddu.reapplied",
)


def traced_counts(workload: str, seed: int, seconds: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its oracle\n{out.stdout}")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:10} {name:26} {first[name]!r:>22} "
                  f"{second[name]!r:>22} {'same' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
