"""MetaComm benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload wba_churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs a fixed op list twice,
untraced and then with the per-layer wrappers of ``ledger.py``, and
reports the per-layer ledger.  Both print a few ``#`` summary lines and,
last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, mixes and sizes are in ``bench.py``; how the
inputs are made from the seed is in ``inputs.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Timed set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A traced run executes this fraction (1 in N) of the untraced probes.
TRACED_PROBE_SHARE = 4
#: Latency percentiles are the median over this many stretches of a run.
CHUNKS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def chunked_percentile(values: list[float], q: float) -> float:
    """The median of the percentiles of ``CHUNKS`` consecutive stretches
    of ``values`` (client by client, each in the order measured), so a
    burst of host stalls in one stretch does not move the figure."""
    if len(values) < CHUNKS * 20:
        return percentile(values, q)
    size = len(values) / CHUNKS
    return statistics.median(
        percentile(values[round(i * size): round((i + 1) * size)], q)
        for i in range(CHUNKS)
    )


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    return "unknown"


def expected_state(workload, seed: int, probes: dict, done: list[int]):
    """The model after the ops a run really executed, and the update
    sequences those ops had to produce."""
    from inputs import build

    inputs = build(workload.name, seed, done, probes, workload.stations_per_pbx,
                   workload.clients, workload.audit_every)
    ops = inputs.probes + [op for client in inputs.clients for op in client]
    return inputs.model, sum(op.sequences for op in ops)


def figures(latencies: dict, ops_per_s: float, setups: list[float],
            peak_rss_kb: int) -> dict:
    """The end-to-end metrics from per-kind latencies in seconds."""
    ms, us = 1e3, 1e6
    p = chunked_percentile
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "update_p50_ms": (p(latencies["update"], 0.50) * ms, "ms"),
        "update_p95_ms": (p(latencies["update"], 0.95) * ms, "ms"),
        "ddu_p50_ms": (p(latencies["ddu"], 0.50) * ms, "ms"),
        "ddu_p95_ms": (p(latencies["ddu"], 0.95) * ms, "ms"),
        "read_p50_us": (p(latencies["read"], 0.50) * us, "us"),
        "read_p95_us": (p(latencies["read"], 0.95) * us, "us"),
        "audit_p50_ms": (percentile(latencies["audit"], 0.50) * ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def untraced(workload, seed: int, seconds: int) -> tuple[dict, int, int, list[str], dict]:
    from bench import KINDS, Watch, oracle, run_clients, set_up
    from inputs import build

    cap = seconds * workload.nominal_rate * 4 // workload.clients
    inputs = build(workload.name, seed, cap, workload.probes,
                   workload.stations_per_pbx, workload.clients,
                   workload.audit_every)
    measured_setups, setups, system = [], [], None
    for _ in range(SETUPS):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        system, measured, scaled = set_up(workload, inputs)
        measured_setups.append(measured)
        setups.append(scaled)
    try:
        watch = Watch(system)
        probes = run_clients(system, [inputs.probes], None)
        gc.collect()
        main = run_clients(system, inputs.clients, seconds)
        # Read before the oracle builds its model, which is the
        # benchmark's memory, not the program's.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        model, sequences = expected_state(workload, seed, workload.probes, main.done)
        problems = probes.problems + main.problems
        problems += oracle(system, model, watch, sequences, seed)
    finally:
        system.close()

    latencies, as_measured = {}, {}
    for kind in KINDS:
        latencies[kind] = probes.scaled[kind] + main.scaled[kind]
        as_measured[kind] = probes.measured[kind] + main.measured[kind]
        if not latencies[kind]:
            problems.append(f"no {kind} samples")
            latencies[kind] = as_measured[kind] = [0.0]
    metrics = figures(latencies, main.rate, setups, peak_rss_kb)
    measured = figures(as_measured, main.measured_rate, measured_setups, peak_rss_kb)
    info = {
        "samples": {kind: len(v) for kind, v in as_measured.items()},
        "main_ops": sum(main.done),
        "main_seconds": round(main.wall, 3),
        "speed": {"probes": round(probes.speed, 3), "main": round(main.speed, 3)},
        "as_measured": {name: round(v, 4) for name, (v, _unit) in measured.items()},
        # p99 swings with the host's stall rate (see README): shown, not
        # a metric.
        "p99_ms": {
            kind: round(percentile(latencies[kind], 0.99) * 1e3, 4)
            for kind in ("update", "ddu", "read")
        },
    }
    attempted = sum(probes.done) + sum(main.done)
    return metrics, attempted, probes.failed + main.failed, problems, info


def traced(workload, seed: int, seconds: int) -> tuple[dict, int, int, list[str], dict]:
    from bench import Watch, oracle, run_clients, set_up
    from inputs import build
    from ledger import Recorder, install, layer_metrics, top_layers

    per_client = max(1, seconds * workload.nominal_rate // workload.clients)
    # The same probe kinds as the untraced run, so every layer has samples
    # on every workload, but fewer: the ledger reports means, not tails.
    probe_counts = {
        kind: max(1, n // TRACED_PROBE_SHARE) for kind, n in workload.probes.items()
    }
    inputs = build(workload.name, seed, per_client, probe_counts,
                   workload.stations_per_pbx, workload.clients,
                   workload.audit_every)
    sequences = sum(
        op.sequences for ops in [inputs.probes, *inputs.clients] for op in ops
    )
    attempted = failed = 0
    problems: list[str] = []
    rates = []
    # The traces whose span count obs.spans reports.
    trace_name = "ddu" if workload.write_kind == "ddu" else "update"
    for phase in ("untraced", "traced"):
        system, _, _ = set_up(workload, inputs)
        try:
            watch = Watch(system)
            recorder = None
            if phase == "traced":
                reapplied = system.um.statistics["reapplied"]
                recorder = Recorder()
                problems += [
                    f"cannot wrap {target}: the program no longer has it"
                    for target in install(recorder, system)
                ]
            try:
                probed = run_clients(system, [inputs.probes], None, recorder,
                                     id_base=0)
                links = _link_totals(system)
                if recorder is not None:
                    recorder.submit_to_done.clear()
                gc.collect()
                outcome = run_clients(system, inputs.clients, None, recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            rates.append(outcome.rate)
            for part in (probed, outcome):
                attempted += sum(part.done)
                failed += part.failed
                problems += part.problems
            problems += oracle(system, inputs.model, watch, sequences, seed)
            if phase == "traced":
                ops = {
                    kind: len(probed.measured[kind]) + len(outcome.measured[kind])
                    for kind in outcome.measured
                }
                flushes, completed = (
                    now - before for now, before in zip(_link_totals(system), links)
                )
                traces = [t for t in system.traces(trace_name) if t.finished]
                extra = {
                    "reapplied": system.um.statistics["reapplied"] - reapplied,
                    "link_flushes": flushes,
                    "link_completed": completed,
                    "spans_per_trace": (
                        sum(len(t.spans) for t in traces) / len(traces)
                        if traces else 0.0
                    ),
                }
        finally:
            system.close()
    metrics = layer_metrics(recorder, ops, workload.write_kind, extra)
    metrics["bench.trace_overhead"] = (rates[1] / rates[0], "ratio")
    ledger = top_layers(recorder, workload.write_kind, ops[workload.write_kind])
    recorder.write(HERE / "out" / f"{workload.name}.spans.csv")
    info = {
        "ops_per_client": per_client,
        "ops_per_s": [round(r, 1) for r in rates],
        "spans": len(recorder.spans),
        "ledger": [
            {"layer": layer, "us_per_op": round(us, 1), "share": round(share, 3)}
            for layer, us, share in ledger
        ],
    }
    return metrics, attempted, failed, problems, info


def _link_totals(system) -> tuple[int, int]:
    if system.links is None:
        return 0, 0
    rows = system.links.snapshot()
    return sum(r["flushes"] for r in rows), sum(r["completed"] for r in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no MetaComm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    run = traced if args.trace else untraced
    metrics, attempted, failed, problems, info = run(
        workload, args.seed, args.seconds
    )
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    print("# meta " + json.dumps(meta))
    print("# run " + json.dumps(info))
    print(f"# failed_ratio {failed / attempted if attempted else 1.0:.6f}")
    for layer in info.get("ledger", []):
        print(f"# ledger {layer['layer']}: {layer['us_per_op']} us per "
              f"{workload.write_kind} ({layer['share']:.1%} of traced op time)")
    for problem in problems:
        print(f"# problem {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
