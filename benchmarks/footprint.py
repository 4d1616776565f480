"""Memory footprint of one MetaComm process, stage by stage.

    python3 benchmarks/footprint.py
    python3 benchmarks/footprint.py --workloads craft_ddu --seed 3
    make footprint [WORKLOADS=craft_ddu]

Each workload runs in a fresh interpreter of its own, which reports its
resident set size (RSS, MB; Linux, read from ``/proc``):

* ``start`` — as soon as the interpreter runs this script;
* ``import`` — after ``import repro``;
* ``build`` — after perfbench's ``build_system`` (the workload's
  ``MetaComm``, with its lanes and device links);
* ``preload`` — after perfbench's ``preload``, the LTAP adds that create
  the workload's population (its inputs are generated just before);
* ``peak`` — the most the process held, transients of the preload
  included: ``ru_maxrss``, or the ``preload`` reading where that is
  higher (the kernel raises its high-water mark in batches).

Then it names every module outside the standard library that the run
loaded (``repro`` itself; the harness's own ``bench`` and ``inputs``
are left out, as is whatever the interpreter loaded before the script
ran).  The set-up is perfbench's, imported as ``ab_interleaved.py``
does; no op after the preload runs, so ``peak`` is the set-up's, not
perfbench's ``peak_rss_mb``.  Informational: it gates nothing, and it
writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

#: The columns of a row, in the order the process reaches them.
STAGES = ("start", "import", "build", "preload", "peak")
#: perfbench's own modules: the harness, not the program.
HARNESS = {"bench", "inputs"}


def rss_mb() -> float:
    """This process's resident set size now (Linux: ``/proc/self/statm``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _outside_stdlib() -> set[str]:
    return {
        name.partition(".")[0] for name in sys.modules
    } - set(sys.stdlib_module_names) - {"__main__"}


def measure(workload_name: str, seed: int) -> dict:
    """Run the stages in this process; returns the row."""
    row = {"workload": workload_name, "start": rss_mb()}
    before = _outside_stdlib()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    row["import"] = rss_mb()
    import bench  # perfbench/bench.py
    from inputs import build  # perfbench/inputs.py

    workload = bench.WORKLOADS[workload_name]
    system = bench.build_system(workload)
    row["build"] = rss_mb()
    inputs = build(workload.name, seed, 0, {}, workload.stations_per_pbx,
                   workload.clients, workload.audit_every)
    bench.preload(system, inputs, bench.Pace())
    row["preload"] = rss_mb()
    row["peak"] = max(peak_mb(), row["preload"])
    system.close()
    row["modules"] = sorted(_outside_stdlib() - before - HARNESS)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="wba_churn,craft_ddu,slow_links")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.seed)))
        return 0

    print(f"{'workload':<12}" + "".join(f"{s:>9}" for s in STAGES)
          + "  (MB)  non-stdlib modules")
    for name in (w for w in args.workloads.split(",") if w):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, "--seed", str(args.seed)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<12}" + "".join(f"{row[s]:>9.1f}" for s in STAGES)
              + "        " + (", ".join(row["modules"]) or "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
