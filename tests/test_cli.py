"""Tests for the ``python -m repro`` command-line entry point."""

import json

import pytest

from repro.__main__ import main

# A deliberately broken configuration: overlapping partitions (LX301),
# a partial table (LX201), and a write-write conflict (LX403).
BAD_DESCRIPTION = """
mapping ldap_to_west {
    source ldap;
    target dev;
    key devId -> Id;
    map Kind = table userKind { "emp" => "1"; };
    map Owner = "west";
    partition when prefix(Id, "4");
}
mapping ldap_to_east {
    source ldap;
    target dev;
    key devId -> Id;
    map Owner = "east";
    partition when prefix(Id, "41");
}
"""


class TestCli:
    def test_default_is_demo(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "consistent: True" in out
        assert "station" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "MB-000001" in out

    def test_tree_emits_figure2_ldif(self, capsys):
        assert main(["tree"]) == 0
        out = capsys.readouterr().out
        for dn in (
            "cn=John Doe,o=Marketing,o=Lucent",
            "cn=Pat Smith,o=Accounting,o=Lucent",
            "cn=Tim Dickens,o=R&D,o=Lucent",
            "cn=Jill Lu,o=DEN Group,o=Lucent",
        ):
            assert f"dn: {dn}" in out

    def test_mappings_shows_source_and_bytecode(self, capsys):
        assert main(["mappings"]) == 0
        out = capsys.readouterr().out
        assert "mapping pbx_to_ldap" in out
        assert "MATCH_RE" in out  # the cn rule's compiled pattern match

    def test_stats_emits_prometheus_text_and_traces(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        # Every line is valid Prometheus text: a comment or a sample.
        for line in out.splitlines():
            assert line.startswith("#") or line[0].isalpha()
        assert "(update): ltap.trigger=" in out
        assert "(ddu): ddu.translate=" in out
        assert "metacomm_queue_depth 0" in out
        assert 'metacomm_um_fanout_total{device="definity"} 2' in out
        assert "lexpress_instructions_total" in out

    def test_stats_closes_open_traces_before_dumping(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        trace_lines = [
            line for line in out.splitlines() if line.startswith("# trace:")
        ]
        assert trace_lines
        # The flush closed every trace: no dangling "[open]" markers.
        assert all(line.endswith("us]") for line in trace_lines)
        assert not any("[open]" in line for line in trace_lines)

    def test_stats_lexpress_compiled_adds_cache_section(self, capsys):
        assert main(["stats", "--lexpress=compiled"]) == 0
        out = capsys.readouterr().out
        cache_lines = [
            line for line in out.splitlines()
            if line.startswith("# lexpress compiled rules")
        ]
        assert len(cache_lines) == 1
        assert "compiles=" in cache_lines[0]
        assert "rejected=0" in cache_lines[0]
        assert "compile_seconds=" in cache_lines[0]
        # The output stays valid Prometheus text end to end.
        for line in out.splitlines():
            assert line.startswith("#") or line[0].isalpha()

    def test_stats_default_mode_is_compiled(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "# lexpress compiled rules" in out

    def test_stats_interpret_mode_has_no_cache_section(self, capsys):
        assert main(["stats", "--lexpress=interpret"]) == 0
        out = capsys.readouterr().out
        assert "lexpress compiled rules" not in out

    def test_stats_bad_lexpress_mode_is_exit_2(self, capsys):
        assert main(["stats", "--lexpress=bogus"]) == 2
        assert "interpret, compiled, verify" in capsys.readouterr().err

    def test_stats_unknown_option_is_exit_2(self, capsys):
        assert main(["stats", "--bogus"]) == 2
        capsys.readouterr()

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        assert "--benchmark-only" in capsys.readouterr().out

    def test_unknown_command_prints_usage(self, capsys):
        assert main(["bogus"]) == 2
        assert "Commands" in capsys.readouterr().out


class TestMonitorCommand:
    def test_one_shot_dashboard(self, capsys):
        assert main(["monitor"]) == 0
        out = capsys.readouterr().out
        assert "queue: depth=0" in out
        assert "definity" in out and "messaging" in out
        assert "healthy" in out
        assert "[ok]" in out
        assert "alerts: none" in out
        assert "journal:" in out

    def test_json_snapshot(self, capsys):
        assert main(["monitor", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["audit"]["ok"] is True
        assert snapshot["alerts"] == []
        assert snapshot["devices"]["definity"]["state"] == "healthy"
        # The demo workload: one LDAP add serial + one DDU serial.
        assert snapshot["queue"]["last_serial"] == 2

    def test_lanes_text_section(self, capsys):
        assert main(["monitor", "--lanes=3"]) == 0
        out = capsys.readouterr().out
        assert "queue: depth=0" in out
        for label in ("0", "1", "2", "serial"):
            assert f"lane {label}" in out
        # The single-lane dashboard stays untouched: no lane section.
        assert main(["monitor"]) == 0
        assert "lane serial" not in capsys.readouterr().out

    def test_lanes_json_snapshot(self, capsys):
        assert main(["monitor", "--lanes=3", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        lanes = snapshot["queue"]["lanes"]
        assert [row["lane"] for row in lanes] == ["0", "1", "2", "serial"]
        assert all(row["depth"] == 0 for row in lanes)
        # The demo workload: one LDAP add (laned) + one DDU (serial).
        assert snapshot["queue"]["last_serial"] == 2
        serial_row = lanes[-1]
        assert serial_row["last_serial"] == 2

    def test_watch_cycles(self, capsys):
        assert main(["monitor", "--watch", "--interval=0.01",
                     "--cycles=2"]) == 0
        out = capsys.readouterr().out
        assert out.count("queue: depth=") == 2

    def test_links_text_section(self, capsys):
        assert main(["monitor", "--links"]) == 0
        out = capsys.readouterr().out
        assert "links:" in out
        for device in ("definity", "messaging"):
            assert f"  {device}" in out
        assert "window=0/4" in out
        assert "batches[" in out
        assert "deferred=0" in out and "rejected=0" in out
        # Without --links the dashboard has no link section.
        assert main(["monitor"]) == 0
        assert "links:" not in capsys.readouterr().out

    def test_links_json_snapshot(self, capsys):
        assert main(["monitor", "--links", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        links = {row["device"]: row for row in snapshot["links"]}
        assert set(links) == {"definity", "messaging"}
        for row in links.values():
            assert row["window"] == 4
            assert row["pending"] == 0 and row["inflight"] == 0
            assert row["failed"] == 0
            assert row["deferred"] == 0 and row["rejected"] == 0
            assert row["flushes"] >= 1
            assert sum(row["batch_sizes"].values()) == row["flushes"]
        # Without --links the snapshot carries an explicit null.
        assert main(["monitor", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["links"] is None

    def test_unknown_option_is_exit_2(self, capsys):
        assert main(["monitor", "--bogus"]) == 2
        capsys.readouterr()


class TestEventsCommand:
    def test_text_stream_shows_the_update_journey(self, capsys):
        assert main(["events"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "update.accepted",
            "update.claimed",
            "device.commit",
            "update.done",
            "ddu.received",
            "audit.cycle",
        ):
            assert kind in out
        # Events carry their trace correlation inline.
        assert "[trace-" in out

    def test_json_output_is_jsonl(self, capsys):
        assert main(["events", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert all("kind" in e and "seq" in e for e in events)
        # Boot journals the rule compiles; the first update comes next.
        kinds = [e["kind"] for e in events]
        first = kinds.index("update.accepted")
        assert first > 0 and set(kinds[:first]) == {"lexpress.compiled"}

    def test_limit(self, capsys):
        assert main(["events", "--limit=3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1].split()[1] == "audit.cycle"

    def test_follow_streams_in_order(self, capsys):
        assert main(["events", "--follow"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        seqs = [int(line.split()[0].lstrip("#")) for line in lines]
        assert seqs == sorted(seqs)
        assert any("device.commit" in line for line in lines)

    def test_unknown_option_is_exit_2(self, capsys):
        assert main(["events", "--bogus"]) == 2
        capsys.readouterr()


class TestCheckCommand:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.lex"
        path.write_text(BAD_DESCRIPTION)
        return str(path)

    def test_default_configuration_is_clean(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "2 suppressed" in out

    def test_show_suppressed_lists_the_shipped_waivers(self, capsys):
        assert main(["check", "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "LX403" in out and "LX404" in out
        assert "[suppressed]" in out

    def test_bad_fixture_fails_with_diagnostics(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        out = capsys.readouterr().out
        assert "LX301" in out  # overlapping partitions
        assert "LX201" in out  # partial table
        assert "LX403" in out  # write-write conflict on Owner
        assert "error" in out

    def test_bad_fixture_json_is_parseable(self, bad_file, capsys):
        assert main(["check", "--json", bad_file]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        found = {d["code"] for d in document["diagnostics"]}
        assert {"LX301", "LX201", "LX403"} <= found

    def test_fail_on_warning_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.lex"
        path.write_text(
            "mapping m { source a; target b; key Id -> Id;\n"
            '    map X = table Kind { "a" => "1"; }; }'
        )
        assert main(["check", str(path)]) == 0  # warning only
        capsys.readouterr()
        assert main(["check", "--fail-on=warning", str(path)]) == 1

    def test_unparseable_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.lex"
        path.write_text("mapping { this is not lexpress")
        assert main(["check", str(path)]) == 2
        assert "broken.lex" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["check", "/no/such/file.lex"]) == 2
        capsys.readouterr()

    def test_bad_option_is_exit_2(self, capsys):
        assert main(["check", "--fail-on=bogus"]) == 2
        capsys.readouterr()

    def test_disasm_appends_optimized_bytecode(self, capsys):
        assert main(["check", "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "# --- pbx_to_ldap.cn (optimized) ---" in out
        assert "MATCH_RE" in out and "RETURN" in out

    def test_disasm_covers_file_configurations(self, bad_file, capsys):
        assert main(["check", "--disasm", bad_file]) == 1
        out = capsys.readouterr().out
        assert "# --- ldap_to_west.Kind (optimized) ---" in out
        assert "TABLE_CONST" in out


class TestExplainCommand:
    def test_timeline_by_serial(self, capsys):
        # Serial 1 is the demo's LDAP add: both devices, then the write-back.
        assert main(["explain", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("trace-") and "(update) op=add" in lines[0]
        order = [
            "ltap.server",
            "queue.wait",
            "stage.plan",
            "stage.fanout",
            "device.commit definity",
            "device.commit messaging",
            "ldap.supplemental",
            "(not in any stage)",
            "total",
        ]
        positions = [
            next(i for i, line in enumerate(lines) if line.strip().startswith(label))
            for label in order
        ]
        assert positions == sorted(positions)
        assert all(" us" in lines[i] for i in positions)

    def test_timeline_from_a_recorded_journal(self, capsys, tmp_path):
        assert main(["events", "--json"]) == 0
        recorded = tmp_path / "journal.jsonl"
        recorded.write_text(capsys.readouterr().out)
        events = [json.loads(line) for line in recorded.read_text().splitlines()]
        (ddu,) = [e["trace_id"] for e in events if e["kind"] == "ddu.received"]
        assert main(["explain", ddu, f"--from={recorded}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{ddu} (ddu) device=definity key=4100")
        for label in ("ddu.translate", "ddu.forward", "device.commit definity",
                      "ldap.supplemental", "total"):
            assert label in out

    def test_rename_on_lanes_shows_the_barrier(self):
        from repro.__main__ import _render_timeline
        from repro.core import MetaComm, MetaCommConfig
        from repro.schemas import PERSON_CLASSES

        system = MetaComm(MetaCommConfig(coordinator_lanes=2))
        try:
            conn = system.connection()
            conn.add(
                "cn=A B,o=Lucent",
                {"objectClass": list(PERSON_CLASSES), "cn": "A B", "sn": "B",
                 "definityExtension": "4100"},
            )
            conn.modify_rdn("cn=A B,o=Lucent", "cn=A C")
            timeline = _render_timeline(system.last_trace("update"))
        finally:
            system.close()
        assert "op=modifyrdn" in timeline.splitlines()[0]
        assert "lane=serial (cleared the serial-lane barrier)" in timeline

    def test_unknown_trace_is_exit_1(self, capsys):
        assert main(["explain", "trace-0"]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_missing_argument_is_exit_2(self, capsys):
        assert main(["explain"]) == 2
        assert main(["explain", "1", "--bogus"]) == 2
        capsys.readouterr()
