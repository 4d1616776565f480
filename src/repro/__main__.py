"""Command-line entry point: ``python -m repro [command]``.

Commands
--------
demo        the quickstart walk-through (default)
tree        build and print the paper's Figure-2 sample tree as LDIF
mappings    show the standard telecom mapping library (source + disassembly)
check       lexcheck — static analysis of the mapping configuration
stats       run the demo workload, dump metrics (Prometheus text) + traces
monitor     run the demo workload, show the health-plane dashboard
events      run the demo workload, print the event journal
explain     print one update's timeline, read from the event journal
experiments list the experiment harness and how to run it

``check`` usage::

    python -m repro check [--json] [--fail-on=warning] [--show-suppressed]
                          [--disasm] [description.lex ...]
    python -m repro check --concurrency [--json] [--fail-on=warning]

With no files, analyzes the default MetaComm deployment (the standard
mapping library plus its device bindings).  With files, compiles each
lexpress description and analyzes them as one configuration.  Exit code
is 1 when error-severity findings remain (or warnings, with
``--fail-on=warning``), 0 otherwise.  ``--disasm`` appends the optimized
byte code of every analyzed rule (what the compiled tier lowers; see
docs/LEXPRESS_COMPILER.md).  ``--concurrency`` runs the LX5xx lint pass
over the runtime source instead (lock-order inversions, blocking calls
under locks, guarded-field races — docs/CONCURRENCY.md); with ``--json``
the document carries the acquisition-order graph under ``lock_order``.

``stats`` usage::

    python -m repro stats [--lexpress=interpret|compiled|verify]

``--lexpress`` selects the rule execution engine for the workload
(docs/LEXPRESS_COMPILER.md; default ``compiled``); ``compiled`` and
``verify`` add a ``#``-prefixed compiled-rule-cache section ahead of the
metrics.

``monitor`` usage::

    python -m repro monitor [--json] [--watch] [--interval=0.5] [--cycles=N]
                            [--lanes=N] [--links]

One-shot by default: runs the demo workload, one full audit cycle, and
prints queue staleness, per-device health, active alerts and the audit
verdict.  ``--watch`` redraws every ``--interval`` seconds (``--cycles``
bounds the redraws; Ctrl-C stops).  ``--links`` runs the workload over
event-driven device links (docs/DEVICE_LINKS.md) and adds a per-device
link section: window occupancy, the batch-size histogram, and the
deferred/rejected admission counters.  Exit code is 1 when any alert is
active, 0 otherwise.

``events`` usage::

    python -m repro events [--json] [--follow] [--limit=N] [--witness]

Prints the event journal of the demo workload — text lines by default,
JSONL with ``--json`` (pipe to a file for offline analysis).
``--follow`` prints each event as it is emitted, while the workload runs.
``--witness`` runs the workload under the runtime lock witness
(docs/CONCURRENCY.md) so any ``witness.violation`` events appear in the
stream.

``explain`` usage::

    python -m repro explain <trace-id|serial> [--from=JOURNAL.jsonl]

Prints one update's timeline from the journal alone: its LTAP legs, the
queue wait, each pipeline stage, each device's commit or failure (and
any rollback or compensation) with its duration, and the supplemental
write, then the time no stage accounts for.  Reads the demo workload's
journal, or a JSONL export (``python -m repro events --json``) with
``--from``.  Exit code is 1 when the journal holds no such trace.
"""

from __future__ import annotations

import sys


def cmd_demo(args: list[str]) -> int:
    from repro.core import MetaComm, MetaCommConfig
    from repro.schemas import PERSON_CLASSES

    system = MetaComm(MetaCommConfig(organizations=("Marketing",)))
    conn = system.connection()
    print("MetaComm demo — one update per path of Figure 1\n")
    conn.add(
        "cn=John Doe,o=Marketing,o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": "John Doe",
            "sn": "Doe",
            "definityExtension": "4100",
        },
    )
    print("LDAP add  -> station:", system.pbx().station("4100"))
    print("          -> mailbox:", system.messaging.mailbox_of("+1 908 582 4100"))
    system.terminal().execute("change station 4100 room 2B-110")
    entry = conn.get("cn=John Doe,o=Marketing,o=Lucent")
    print("DDU       -> directory definityRoom:", entry.get("definityRoom"))
    print("\nconsistent:", system.consistent())
    counts = {
        name: int(system.obs.registry.value(f"metacomm_um_{name}_total"))
        for name in ("ldap_events", "ddus", "fanout", "reapplied",
                     "supplemental_writes", "aborted_sequences", "compensated")
    }
    print("UM counts:", counts)
    return 0


def cmd_tree(args: list[str]) -> int:
    from repro.ldap import LdapConnection, LdapServer, write_ldif

    server = LdapServer(["o=Lucent"])
    conn = LdapConnection(server)
    conn.add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
    figure2 = {
        "Marketing": "John Doe",
        "Accounting": "Pat Smith",
        "R&D": "Tim Dickens",
        "DEN Group": "Jill Lu",
    }
    for org, cn in figure2.items():
        conn.add(f"o={org},o=Lucent", {"objectClass": "organization", "o": org})
        conn.add(
            f"cn={cn},o={org},o=Lucent",
            {"objectClass": "person", "cn": cn, "sn": cn.split()[-1]},
        )
    print(write_ldif(server.backend.all_entries()))
    return 0


def cmd_mappings(args: list[str]) -> int:
    from repro.schemas import render_mp_pair, render_pbx_pair, standard_mappings

    print(render_pbx_pair())
    print(render_mp_pair())
    print("# --- compiled rule disassembly (pbx_to_ldap.cn) ---")
    mapping = standard_mappings()["pbx_to_ldap"]
    for rule in mapping.rules:
        if rule.target == "cn":
            print(rule.code.disassemble())
    return 0


def cmd_check(args: list[str]) -> int:
    """lexcheck: static analysis of a mapping configuration."""
    from repro.analysis import (
        AnalysisTarget,
        InstanceBinding,
        analyze,
        render_json,
        render_text,
    )

    as_json = False
    fail_on = "error"
    show_suppressed = False
    disasm = False
    concurrency = False
    files: list[str] = []
    for arg in args:
        if arg == "--json":
            as_json = True
        elif arg == "--concurrency":
            concurrency = True
        elif arg.startswith("--fail-on="):
            fail_on = arg.split("=", 1)[1]
            if fail_on not in ("error", "warning"):
                print(f"check: bad --fail-on value {fail_on!r} "
                      "(expected 'error' or 'warning')", file=sys.stderr)
                return 2
        elif arg == "--show-suppressed":
            show_suppressed = True
        elif arg == "--disasm":
            disasm = True
        elif arg.startswith("-"):
            print(f"check: unknown option {arg!r}", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        else:
            files.append(arg)

    if concurrency:
        # LX5xx: the runtime's own lock discipline, not the mapping
        # configuration (docs/CONCURRENCY.md).  Extra positional args are
        # package roots to analyze instead of the shipped tree.
        from repro.analysis.concur import lock_order_report

        import json as _json

        root = files[0] if files else None
        report, graph = lock_order_report(root)
        if as_json:
            document = _json.loads(render_json(report))
            document["lock_order"] = graph.to_dict()
            print(_json.dumps(document, indent=2))
        else:
            print(render_text(report, show_suppressed=show_suppressed))
            print(
                f"lock-order graph: {len(graph.nodes)} lock(s), "
                f"{len(graph.pairs())} ordered pair(s)"
            )
            for held, acquired in graph.pairs():
                print(f"  {held} -> {acquired}")
        failed = bool(report.errors) or (
            fail_on == "warning" and report.warnings
        )
        return 1 if failed else 0

    if files:
        from repro.lexpress import LexpressError, compile_description

        mappings = {}
        for path in files:
            try:
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                compiled = compile_description(source)
            except OSError as exc:
                print(f"check: {path}: {exc}", file=sys.stderr)
                return 2
            except LexpressError as exc:
                print(f"check: {path}: {exc}", file=sys.stderr)
                return 2
            for name, mapping in compiled.items():
                if name in mappings:
                    print(f"check: duplicate mapping {name!r} in {path}",
                          file=sys.stderr)
                    return 2
                mappings[name] = mapping
        target = AnalysisTarget(
            mappings=list(mappings.values()),
            # Each mapping is its own (unnarrowed) instance so partition
            # constraints are checked against each other.
            instances=[
                InstanceBinding(m.name, m) for m in mappings.values()
            ],
        )
        report = analyze(target)
        analyzed = list(mappings.values())
    else:
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(MetaCommConfig()) as system:
            report = system.analyze()
            analyzed = list(system.mappings.values())

    if as_json:
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=show_suppressed))
    if disasm:
        for mapping in analyzed:
            for rule in mapping.rules:
                print(f"\n# --- {mapping.name}.{rule.target} (optimized) ---")
                print(rule.code.disassemble())
    failed = bool(report.errors) or (fail_on == "warning" and report.warnings)
    return 1 if failed else 0


def _demo_system(
    lanes: int = 1,
    lexpress_mode: str = "compiled",
    lock_witness: bool = False,
    links: bool = False,
):
    """The stats/monitor/events demo workload: one LDAP add (fan-out to
    PBX + messaging) and one DDU (craft-terminal room change).

    ``lanes`` > 1 runs the workload through the commutativity-sharded
    queue (docs/CONCURRENCY.md) so the per-lane monitor section has
    real lanes to show.  ``lexpress_mode`` selects the rule execution
    engine (docs/LEXPRESS_COMPILER.md).  ``lock_witness`` wraps the
    subsystem locks in order-recording proxies so any acquisition-order
    reversal during the workload lands in the journal.  ``links`` routes
    the device fan-out through event-driven device links
    (docs/DEVICE_LINKS.md) so the link monitor section has data.
    """
    from repro.core import MetaComm, MetaCommConfig
    from repro.schemas import PERSON_CLASSES

    system = MetaComm(
        MetaCommConfig(
            organizations=("Marketing",),
            coordinator_lanes=lanes,
            lexpress_mode=lexpress_mode,
            lock_witness=lock_witness,
            device_links=links,
        )
    )
    conn = system.connection()
    conn.add(
        "cn=John Doe,o=Marketing,o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": "John Doe",
            "sn": "Doe",
            "definityExtension": "4100",
        },
    )
    system.terminal().execute("change station 4100 room 2B-110")
    return system


def cmd_stats(args: list[str]) -> int:
    """Run the demo workload and dump the pipeline's observability data.

    Output is valid Prometheus text exposition format end to end: the
    trace summaries are emitted as ``#``-prefixed comment lines, so the
    whole thing can be piped straight into a scrape file.
    """
    from repro.lexpress import MODES

    mode = "compiled"
    for arg in args:
        if arg.startswith("--lexpress="):
            mode = arg.split("=", 1)[1]
            if mode not in MODES:
                print(f"stats: bad --lexpress value {mode!r} "
                      f"(expected one of {', '.join(MODES)})", file=sys.stderr)
                return 2
        else:
            print(f"stats: unknown option {arg!r}", file=sys.stderr)
            return 2

    system = _demo_system(lexpress_mode=mode)
    # Release the background machinery before dumping: the workload is
    # done, the dump must be self-consistent.
    system.close()

    if mode != "interpret":
        runners = system.lexpress_runners
        print(
            f"# lexpress compiled rules ({mode} mode): "
            f"compile_seconds={sum(r.seconds for r in runners)} "
            f"compiles={sum(r.status == 'compiled' for r in runners)} "
            f"rejected={sum(r.status == 'rejected' for r in runners)}"
        )
    for trace in system.traces():
        spans = ", ".join(
            f"{span.name}={span.duration * 1e6:.0f}us" for span in trace.spans
        )
        total = (
            f"total={trace.duration * 1e6:.0f}us"
            if trace.duration is not None
            else "open"
        )
        print(f"# trace: {trace.trace_id} ({trace.name}): {spans} [{total}]")
    print(system.metrics_text(), end="")
    return 0


def _render_monitor(snapshot: dict) -> str:
    """The `monitor` text dashboard for one health-plane snapshot."""
    lines: list[str] = []
    queue = snapshot["queue"]
    lines.append(
        f"queue: depth={queue['depth']} "
        f"oldest_age={queue['oldest_age'] * 1000:.1f}ms "
        f"last_serial={queue['last_serial']}"
    )
    lanes = queue.get("lanes") or []
    if len(lanes) > 1:
        for lane in lanes:
            lines.append(
                f"  lane {lane['lane']:<7} depth={lane['depth']} "
                f"oldest_age={lane['oldest_age'] * 1000:.1f}ms "
                f"last_serial={lane['last_serial']}"
            )
    devices = snapshot["devices"]
    if devices:
        lines.append(
            f"{'device':<12} {'state':<12} {'ok/err':<8} {'streak':<7} "
            f"{'err_rate':<9} {'p50':>9} {'p95':>9} {'p99':>9} {'lag':>4}"
        )
        for name in sorted(devices):
            d = devices[name]
            latency = d["latency"]
            lag = snapshot.get("audit") or {}
            lines.append(
                f"{name:<12} {d['state']:<12} "
                f"{d['successes']}/{d['failures']:<6} {d['streak']:<7} "
                f"{d['error_rate']:<9.2f} "
                f"{latency['p50'] * 1e6:>7.0f}us "
                f"{latency['p95'] * 1e6:>7.0f}us "
                f"{latency['p99'] * 1e6:>7.0f}us "
                f"{lag.get('device_lag', {}).get(name, 0):>4}"
            )
    else:
        lines.append("devices: none observed yet")
    links = snapshot.get("links")
    if links:
        lines.append("links:")
        for link in links:
            sizes = link.get("batch_sizes") or {}
            hist = (
                " ".join(
                    f"{size}x{count}"
                    for size, count in sorted(sizes.items())
                )
                or "-"
            )
            paused = " PAUSED" if link.get("paused") else ""
            lines.append(
                f"  {link['device']:<12} "
                f"window={link['inflight']}/{link['window']} "
                f"pending={link['pending']}/{link['queue_limit']} "
                f"flushes={link['flushes']} batches[{hist}] "
                f"deferred={link['deferred']} "
                f"rejected={link['rejected']}{paused}"
            )
    audit = snapshot.get("audit")
    if audit is not None:
        verdict = "ok" if audit["ok"] else "MISMATCH"
        lines.append(
            f"audit: cycle={audit['cycle']} probed={len(audit['probed'])} "
            f"mismatches={sum(len(v) for v in audit['mismatches'].values())} "
            f"[{verdict}]"
        )
        for device, problems in sorted(audit["mismatches"].items()):
            for problem in problems:
                lines.append(f"  ! {problem}")
    alerts = snapshot["alerts"]
    if alerts:
        lines.append(f"alerts: {len(alerts)} active")
        for alert in alerts:
            labels = " ".join(f"{k}={v}" for k, v in alert["labels"].items())
            lines.append(
                f"  ALERT {alert['rule']} ({alert['expr']}) "
                f"value={alert['value']} {labels}".rstrip()
            )
    else:
        lines.append("alerts: none")
    lines.append(f"journal: {snapshot['journal_events']} events retained")
    return "\n".join(lines)


def cmd_monitor(args: list[str]) -> int:
    """The health-plane dashboard over the demo workload."""
    import json
    import time as _time

    as_json = False
    watch = False
    interval = 0.5
    cycles: int | None = None
    lanes = 1
    links = False
    for arg in args:
        if arg == "--json":
            as_json = True
        elif arg == "--watch":
            watch = True
        elif arg == "--links":
            links = True
        elif arg.startswith("--interval="):
            interval = float(arg.split("=", 1)[1])
        elif arg.startswith("--cycles="):
            cycles = int(arg.split("=", 1)[1])
        elif arg.startswith("--lanes="):
            lanes = int(arg.split("=", 1)[1])
        else:
            print(f"monitor: unknown option {arg!r}", file=sys.stderr)
            return 2

    system = _demo_system(lanes=lanes, links=links)
    try:
        remaining = cycles if cycles is not None else (1 if not watch else None)
        ran = 0
        while True:
            system.auditor.run_cycle(full=True)
            snapshot = system.monitor_snapshot()
            if as_json:
                print(json.dumps(snapshot, sort_keys=True, default=str))
            else:
                if watch and ran:
                    print()
                print(_render_monitor(snapshot))
            ran += 1
            if remaining is not None and ran >= remaining:
                break
            try:
                _time.sleep(interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                break
        return 1 if system.alerts.active() else 0
    finally:
        system.close()


def cmd_events(args: list[str]) -> int:
    """Print the demo workload's event journal (text or JSONL)."""
    as_json = False
    follow = False
    witness = False
    limit: int | None = None
    for arg in args:
        if arg == "--json":
            as_json = True
        elif arg == "--follow":
            follow = True
        elif arg == "--witness":
            witness = True
        elif arg.startswith("--limit="):
            limit = int(arg.split("=", 1)[1])
        else:
            print(f"events: unknown option {arg!r}", file=sys.stderr)
            return 2

    def render(event) -> str:
        if as_json:
            return event.to_json()
        attrs = " ".join(f"{k}={v}" for k, v in event.attributes.items())
        trace = f" [{event.trace_id}]" if event.trace_id else ""
        return f"#{event.seq} {event.kind}{trace} {attrs}".rstrip()

    if follow:
        # Stream mode: print each event as the workload emits it.  The
        # journal listener fires synchronously after each append, so the
        # stream is in order and complete.
        from repro.core import MetaComm, MetaCommConfig

        system = MetaComm(MetaCommConfig(organizations=("Marketing",)))
        system.obs.journal.subscribe(lambda event: print(render(event)))
        conn = system.connection()
        from repro.schemas import PERSON_CLASSES

        conn.add(
            "cn=John Doe,o=Marketing,o=Lucent",
            {
                "objectClass": list(PERSON_CLASSES),
                "cn": "John Doe",
                "sn": "Doe",
                "definityExtension": "4100",
            },
        )
        system.terminal().execute("change station 4100 room 2B-110")
        system.auditor.run_cycle(full=True)
        system.close()
        return 0

    system = _demo_system(lock_witness=witness)
    system.auditor.run_cycle(full=True)
    system.close()
    events = system.obs.journal.events()
    if limit is not None:
        events = events[-limit:]
    for event in events:
        print(render(event))
    return 0


#: Journal events shown under the fan-out stage of a timeline.
_FANOUT_EVENTS = (
    "device.commit",
    "device.failure",
    "device.rollback",
    "saga.compensated",
    "sequence.aborted",
)


def _render_timeline(trace) -> str:
    """One trace as an indented timeline, stage by stage (µs)."""
    identity = " ".join(f"{k}={v}" for k, v in trace.attributes.items())
    lines = [f"{trace.trace_id} ({trace.name}) {identity}".rstrip()]
    if trace.serial is not None:
        lines[0] += f" serial={trace.serial}"

    def row(depth: int, label: str, seconds: float | None, note: str = "") -> None:
        took = f"{seconds * 1e6:9.0f} us" if seconds is not None else " " * 12
        lines.append(f"{'  ' * depth}{label:<{34 - 2 * depth}}{took}  {note}".rstrip())

    notes: dict[str, str] = {}
    for event in trace.events:
        attrs = event.attributes
        if event.kind == "update.claimed":
            notes["queue.wait"] = f"lane={attrs['lane']}"
        elif event.kind == "queue.barrier":
            notes["barrier"] = " (cleared the serial-lane barrier)"
    done = trace.done.attributes if trace.finished else {}
    if "devices" in done:
        notes["stage.plan"] = "devices=" + ",".join(done["devices"])
        notes["stage.fanout"] = f"mode={done['mode']}"
    if "supplemental" in done:
        notes["ldap.supplemental"] = f"wrote {done['supplemental']} attributes"
    if "barrier" in notes:
        notes["queue.wait"] = notes.get("queue.wait", "") + notes["barrier"]
    if not trace.finished:
        lines.append("  (open: no update.done in the journal)")
    for name, seconds in trace.stages.items():
        row(1, name, seconds, notes.get(name, ""))
        if name != "stage.fanout":
            continue
        for event in trace.events:
            if event.kind in _FANOUT_EVENTS:
                attrs = event.attributes
                detail = attrs.get("error") or attrs.get("key") or ""
                row(2, f"{event.kind} {attrs['device']}",
                    attrs.get("duration"), str(detail))
    if trace.finished:
        row(1, "(not in any stage)", trace.duration - sum(trace.stages.values()))
        row(0, "total", trace.duration)
    return "\n".join(lines)


def cmd_explain(args: list[str]) -> int:
    """Print one update's timeline, read from the event journal."""
    import json

    from repro.obs.events import Event
    from repro.obs.trace import traces

    source = None
    wanted = None
    for arg in args:
        if arg.startswith("--from="):
            source = arg.split("=", 1)[1]
        elif not arg.startswith("--") and wanted is None:
            wanted = arg
        else:
            print(f"explain: unknown option {arg!r}", file=sys.stderr)
            return 2
    if wanted is None:
        print("explain: expected a trace id or a serial", file=sys.stderr)
        return 2
    if source is None:
        system = _demo_system()
        system.close()
        events = system.obs.journal.events()
    else:
        with open(source, encoding="utf-8") as handle:
            events = [
                Event(d["seq"], d["ts"], d["kind"], d["trace_id"], d["attributes"])
                for d in map(json.loads, filter(str.strip, handle))
            ]
    for trace in reversed(traces(events)):
        if wanted in (trace.trace_id, str(trace.serial)):
            print(_render_timeline(trace))
            return 0
    print(f"explain: no trace {wanted!r} in the journal", file=sys.stderr)
    return 1


def cmd_experiments(args: list[str]) -> int:
    print(
        "Experiment harness (one module per DESIGN.md row):\n"
        "  pytest benchmarks/ --benchmark-only        # timings\n"
        "  pytest benchmarks/ --benchmark-only -s     # + result tables\n\n"
        "F1/F2 reproduce the paper's figures; E1-E13 its behavioural\n"
        "claims; A1-A4 are ablations of the design decisions.  See\n"
        "EXPERIMENTS.md for the paper-claim vs measured summary."
    )
    return 0


COMMANDS = {
    "demo": cmd_demo,
    "tree": cmd_tree,
    "mappings": cmd_mappings,
    "check": cmd_check,
    "stats": cmd_stats,
    "monitor": cmd_monitor,
    "events": cmd_events,
    "explain": cmd_explain,
    "experiments": cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else "demo"
    command = COMMANDS.get(name)
    if command is None:
        print(__doc__)
        return 2
    return command(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
