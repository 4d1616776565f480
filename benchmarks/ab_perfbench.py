"""A/B the perfbench end-to-end metrics: a base revision against the
working tree, runs alternating.

    python3 benchmarks/ab_perfbench.py --base HEAD~1
    python3 benchmarks/ab_perfbench.py --base main --seeds 1-5 \\
        --workloads wba_churn,craft_ddu
    make bench-ab BASE=HEAD~1 [SEEDS=1-5] [WORKLOADS=wba_churn]

The base revision's files are exported (``git archive``) into a
temporary directory, so the repository itself — its worktree list, its
index, its branches — is never touched, and an interrupted run leaves
nothing registered.  The working tree is this checkout as it is on disk,
uncommitted changes included.

For every seed and workload the two trees run ``perfbench/run.py
--seconds 8 --trace 0`` one after the other, each in a process of its own, the first
tree of each pair alternating, so host drift lands on both sides alike.
The summary gives, per workload and end-to-end metric of
``BENCHMARK.json``, the median of each side, the base side's
interquartile range, the ratio (working tree / base) and the pairs the
working tree won (strictly better in the metric's direction).  A gain
counts when most pairs are won and the gap between the medians is wider
than the base's interquartile range.  Only such alternating runs count
as evidence of a speed change on a noisy host; the tool reports, it
gates nothing, and it writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wba_churn", "craft_ddu", "slow_links")
#: Length of every run, in seconds (the benchmark's own run length).
SECONDS = 8


def parse_seeds(text: str) -> list[int]:
    """``1-5`` or ``1,3,7`` (or a mix: ``1-3,9``)."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def export(rev: str, dest: Path) -> str:
    """Write the files of *rev* under *dest*; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), commit],
        cwd=ROOT, check=True,
    )
    # The "data" filter (Python 3.11.4+) refuses links out of *dest*.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)
    archive.unlink()
    return commit


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in *tree*: its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(pairs: list[tuple[dict, dict]], spec: list[dict]) -> list[dict]:
    """One row per end-to-end metric: medians, the base's quartiles,
    ratio, pairs won."""
    rows = []
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        work = [w["metrics"][name]["value"] for _, w in pairs]
        won = sum((w > b) if higher else (w < b) for b, w in zip(base, work))
        base_median, work_median = statistics.median(base), statistics.median(work)
        # Quartiles need two runs; one run has no spread to report.
        q1, _, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                     else (base[0], None, base[0]))
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base_median,
            "base_iqr": q3 - q1,
            "work": work_median,
            "ratio": work_median / base_median if base_median else float("nan"),
            "won": won,
            "pairs": len(pairs),
        })
    return rows


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7 (default 1-5)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w for w in args.workloads.split(",") if w]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix="ab-perfbench-"))
    try:
        base_tree = scratch / "base"
        commit = export(args.base, base_tree)
        print(f"# base {args.base} = {commit}; work = {ROOT} (as on disk)")
        print(f"# seeds {seeds}; workloads {workloads}; {SECONDS} s per run")
        results: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                # Each workload's pairs alternate which tree runs first.
                order = [("base", base_tree), ("work", ROOT)]
                if len(results[workload]) % 2:
                    order.reverse()
                got = {side: run_once(tree, workload, seed)
                       for side, tree in order}
                results[workload].append((got["base"], got["work"]))
                ops = {side: got[side]["metrics"]["ops_per_s"]["value"] for side in got}
                print(f"# {workload} seed {seed} ({order[0][0]} first): ops_per_s "
                      f"base {ops['base']:.1f}, work {ops['work']:.1f}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for workload, pairs in results.items():
        base_runs, work_runs = [b for b, _ in pairs], [w for _, w in pairs]
        print(f"\n{workload}  ({len(pairs)} alternating pairs; failed share "
              f"base {failed_share(base_runs):.4f}, "
              f"work {failed_share(work_runs):.4f}; incorrect runs "
              f"base {sum(not r['correct'] for r in base_runs)}, "
              f"work {sum(not r['correct'] for r in work_runs)})")
        print(f"  {'metric':<15} {'unit':<5} {'base':>11} {'base IQR':>10} "
              f"{'work':>11} {'ratio':>7}  won")
        for row in summarize(pairs, spec):
            print(f"  {row['metric']:<15} {row['unit']:<5} {row['base']:>11.4g} "
                  f"{row['base_iqr']:>10.3g} {row['work']:>11.4g} "
                  f"{row['ratio']:>7.3f}  "
                  f"{row['won']}/{row['pairs']} ({row['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
