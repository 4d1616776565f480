"""E8 — Conditional (Originator) updates.

Claim (section 5.4): "reapplying add or delete requests to devices where
those operations had already occurred produces errors", so lexpress marks
updates headed back to their source as *conditional*: adds are reapplied
as conditional modifies (falling back to add), failed conditional deletes
are tolerated.  We compare the conditional protocol against the naive
reapplication the paper says broke, over a stream of DDU adds/deletes.
"""

from conftest import fresh_system, report

from repro.devices import DuplicateRecordError, NoSuchRecordError

ROWS: list[tuple] = []
N = 25


def test_e8_conditional_protocol_error_free(benchmark):
    """The shipped protocol: a stream of DDU adds and deletes reapplies to
    the originating PBX without a single device error."""

    def setup():
        return (fresh_system(),), {}

    def run(system):
        terminal = system.terminal()
        for i in range(N):
            ext = str(4100 + i)
            assert terminal.execute(f'add station {ext} name "U, {ext}"').ok
        for i in range(0, N, 2):
            assert terminal.execute(f"remove station {4100 + i}").ok
        return system

    system = benchmark.pedantic(run, setup=setup, rounds=3)
    def events(event):
        return int(system.obs.registry.value(
            "metacomm_filter_events_total", filter="definity", event=event
        ))

    assert events("failed") == 0
    assert events("conditional") >= N  # every DDU reapplied conditionally
    assert events("recovered") >= 1    # conditional semantics actually used
    assert len(system.error_log) == 0
    assert system.consistent()
    ROWS.append(
        ("conditional (section 5.4)", N + N // 2, events("recovered"), 0)
    )


def test_e8_naive_reapplication_breaks(benchmark):
    """The counterfactual: replaying committed adds/deletes verbatim at the
    device produces one error per reapplied operation."""
    system = fresh_system()
    pbx = system.pbx()
    operations = []
    for i in range(N):
        ext = str(4100 + i)
        pbx.add_station(ext, agent="craft", Name=f"U, {ext}")
        operations.append(("add", ext))
    for i in range(0, N, 2):
        ext = str(4100 + i)
        pbx.remove_station(ext, agent="craft")
        operations.append(("delete", ext))

    def naive_replay():
        errors = 0
        for op, ext in operations:
            try:
                if op == "add":
                    pbx.add_station(ext, agent="um-naive", Name=f"U, {ext}")
                else:
                    pbx.remove_station(ext, agent="um-naive")
            except (DuplicateRecordError, NoSuchRecordError):
                errors += 1
        return errors

    errors = benchmark(naive_replay)
    # Shape: every replayed add against a still-existing station errors
    # out (the deleted ones are silently *resurrected* mid-replay — worse
    # than an error).  Conditional semantics produce zero of either.
    surviving = N - (N + 1) // 2
    assert errors >= surviving
    ROWS.append(("naive replay", len(operations), 0, errors))
    report(
        "E8: reapplication protocol comparison",
        ["protocol", "ops reapplied", "conditional recoveries", "device errors"],
        ROWS,
    )
