"""Interleaved A/B of per-op thread CPU: a base revision and the working
tree imported side by side in one process, fed the same ops.

    python3 benchmarks/ab_interleaved.py --base HEAD~1
    python3 benchmarks/ab_interleaved.py --base main --seeds 1-3 \\
        --workloads wba_churn --ops 3000
    make bench-interleave BASE=HEAD~1 [SEEDS=1-2] [WORKLOADS=wba_churn]

Separate processes see a shared host drift between runs by 20-30 %; one
process that alternates the two trees op by op sees both sides under the
same drift.  The base revision is exported with ``git archive`` and its
``src/repro`` imported under a second package name (``tree_base``); a
second copy of it (``tree_control``) gives the A/A control, and the
working tree as it is on disk is imported as ``tree_work``.  The
program imports itself only relatively, so each copy runs its own code.
perfbench's set-up and client (``perfbench/bench.py``) import ``repro``
by name: while one tree builds its system and client, ``repro`` and
its submodules are aliased to that tree's modules.

Each tree gets its own system, built and preloaded from the same seeded
perfbench inputs (``perfbench/inputs.py``).  The build order rotates
with every seed, so over a multiple of three seeds each tree is built
first, second and last equally often.  Then every probe op and
``--ops`` main-loop ops run on all three systems in turn, the order
rotating with every op, so each tree goes first, second and last
equally often.  The measure is the client thread's CPU time
(``time.thread_time``) per op; link dispatcher threads are not counted,
so only the single-client workloads are accepted.

The report gives per op kind the p50 and mean thread-CPU ratio work /
base and, next to it, the A/A ratio control / base.  A ratio the A/A
control also reaches is noise.  Informational: it gates nothing, and it
imports from ``perfbench/`` but writes nothing there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from ab_perfbench import export, parse_seeds

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402  (perfbench/bench.py)
from inputs import build  # noqa: E402  (perfbench/inputs.py)

#: The trees of every run: label -> package name.
TREES = {"work": "tree_work", "base": "tree_base", "control": "tree_control"}
WORKLOADS = tuple(name for name, w in bench.WORKLOADS.items() if w.clients == 1)


class Tree:
    """One copy of ``src/repro`` imported under its own package name."""

    def __init__(self, label: str, package: str, src: Path, home: Path):
        shutil.copytree(src / "src" / "repro", home / package)
        importlib.import_module(package)
        for info in pkgutil.walk_packages(
            sys.modules[package].__path__, package + "."
        ):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        self.label = label
        #: ``repro...`` -> this tree's module of the same place.
        self.aliases = {
            "repro" + name[len(package):]: module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }

    @contextmanager
    def active(self):
        """Make ``import repro...`` resolve to this tree."""
        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "repro" or name.startswith("repro.")
        }
        sys.modules.update(self.aliases)
        try:
            yield
        finally:
            for name in self.aliases:
                sys.modules.pop(name, None)
            sys.modules.update(saved)


def measure(trees: list[Tree], workload, seed: int, main_ops: int) -> dict:
    """Thread CPU seconds per tree and op kind, over the probes and the
    first ``main_ops`` main-loop ops of one seed."""
    inputs = build(workload.name, seed, main_ops, workload.probes,
                   workload.stations_per_pbx, 1, workload.audit_every)
    clients, systems = [], []
    for tree in trees:
        with tree.active():
            system, _, _ = bench.set_up(workload, inputs)
            systems.append(system)
            clients.append(bench.Client(system))
    ops = inputs.probes + inputs.clients[0]
    cpu: dict[str, dict[str, list[float]]] = {t.label: {} for t in trees}
    failed = {t.label: 0 for t in trees}
    thread_time = time.thread_time
    gc.collect()
    try:
        for index, op in enumerate(ops):
            shift = index % len(trees)
            for tree, client in list(zip(trees, clients))[shift:] + list(
                zip(trees, clients)
            )[:shift]:
                action = client.actions[op.action]
                start = thread_time()
                try:
                    ok = action(op)
                except Exception:
                    ok = False
                spent = thread_time() - start
                cpu[tree.label].setdefault(op.kind, []).append(spent)
                failed[tree.label] += not ok
    finally:
        for system in systems:
            system.close()
    return {"cpu": cpu, "failed": failed, "ops": len(ops)}


def ratios(cpu: dict, label: str, kind: str) -> tuple[float, float]:
    """(p50, mean) thread-CPU ratio of ``label`` against the base."""
    side, base = cpu[label][kind], cpu["base"][kind]
    return (
        statistics.median(side) / statistics.median(base),
        statistics.fmean(side) / statistics.fmean(base),
    )


def report(title: str, cpu: dict) -> None:
    print(f"\n## {title}")
    print(f"{'kind':8} {'n':>6} {'base p50 us':>12} "
          f"{'work/base p50':>14} {'mean':>7} {'A/A p50':>8} {'mean':>7}")
    for kind in sorted(cpu["base"]):
        work_p50, work_mean = ratios(cpu, "work", kind)
        aa_p50, aa_mean = ratios(cpu, "control", kind)
        base_p50 = statistics.median(cpu["base"][kind]) * 1e6
        print(f"{kind:8} {len(cpu['base'][kind]):>6} {base_p50:>12.1f} "
              f"{work_p50:>14.3f} {work_mean:>7.3f} {aa_p50:>8.3f} {aa_mean:>7.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", default="1", help="e.g. 1-3 or 1,4 (default 1)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--ops", type=int, default=2000,
                        help="main-loop ops per seed, after the probes (default 2000)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w for w in args.workloads.split(",") if w]
    for name in workloads:
        if name not in WORKLOADS:
            parser.error(f"{name}: only single-client workloads ({', '.join(WORKLOADS)})")

    scratch = Path(tempfile.mkdtemp(prefix="ab-interleaved-"))
    try:
        base_src = scratch / "base"
        commit = export(args.base, base_src)
        home = scratch / "packages"
        home.mkdir()
        sys.path.insert(0, str(home))
        trees = [
            Tree("work", TREES["work"], ROOT, home),
            Tree("base", TREES["base"], base_src, home),
            Tree("control", TREES["control"], base_src, home),
        ]
        print(f"# base {args.base} = {commit}; work = {ROOT} (as on disk); "
              f"control = a second copy of base")
        print(f"# seeds {seeds}; workloads {workloads}; probes + {args.ops} "
              "main-loop ops per seed; client thread CPU per op")
        for name in workloads:
            workload = bench.WORKLOADS[name]
            pooled: dict[str, dict[str, list[float]]] = {t.label: {} for t in trees}
            for run, seed in enumerate(seeds):
                shift = run % len(trees)
                order = trees[shift:] + trees[:shift]
                result = measure(order, workload, seed, args.ops)
                print(f"# {name} seed {seed}: built {[t.label for t in order]}, "
                      f"{result['ops']} ops per tree, failed {result['failed']}")
                for label, kinds in result["cpu"].items():
                    for kind, samples in kinds.items():
                        pooled[label].setdefault(kind, []).extend(samples)
            report(f"{name}, seeds {args.seeds}", pooled)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
