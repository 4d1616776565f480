"""Tests for repro.analysis.concur: the LX5xx concurrency lints.

Mirrors tests/test_analysis.py — one test per diagnostic code on a
seeded-bad snippet, suppression scoping, the lock-order graph, CLI
``--fail-on`` interaction, and the shipped-tree-is-clean gate.  Each
snippet is written to a tmp package root and analyzed with
``analyze_concurrency(root)``.
"""

import json

import pytest

from repro.analysis import AnalysisError
from repro.analysis.concur import (
    analyze_concurrency,
    analyze_concurrency_strict,
    build_lock_order_graph,
    build_model,
    lock_order_report,
    static_lock_order,
)
from repro.__main__ import main

HEADER = "import threading\nimport time\n\n\n"

INVERSION = HEADER + """
class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""

SLEEP_UNDER_LOCK = HEADER + """
class Sleeper:
    def __init__(self):
        self._lock = threading.Lock()

    def tick(self):
        with self._lock:
            time.sleep(1.0)
"""

GUARD_SKEW = HEADER + """
class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self):
        with self._lock:
            self._value += 1

    def reset(self):
        with self._lock:
            self._value = 0

    def peek(self):
        return self._value
"""

CALLBACK_UNDER_LOCK = HEADER + """
class Emitter:
    def __init__(self, reentrant=False):
        self._lock = threading.{factory}()
        self._listeners = []

    def subscribe(self, fn):
        with self._lock:
            self._listeners.append(fn)

    def emit(self, value):
        with self._lock:
            for listener in self._listeners:
                listener(value)
"""

LEAKED_THREAD = HEADER + """
class Spawner:
    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        pass
"""

STOPPABLE_THREAD = HEADER + """
class Stoppable:
    def __init__(self):
        self._halt = threading.Event()

    def start(self):
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def stop(self):
        self._halt.set()
        self._thread.join(timeout=5)

    def _run(self):
        pass
"""

CONTRACT = HEADER + """
class Contracted:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {{}}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def size(self):
        {doc}return len(self._items)
"""


def analyze_snippet(tmp_path, source, name="snippet.py"):
    (tmp_path / name).write_text(source)
    return analyze_concurrency(tmp_path)


def codes(diagnostics) -> set[str]:
    return {d.code for d in diagnostics}


# -- the five checks ----------------------------------------------------------------


class TestLockOrder:
    def test_lx501_opposite_nesting_orders(self, tmp_path):
        report = analyze_snippet(tmp_path, INVERSION)
        (finding,) = [d for d in report.errors if d.code == "LX501"]
        assert "Pair._a" in finding.message
        assert "Pair._b" in finding.message
        assert finding.related  # the counter-edge site is anchored too

    def test_consistent_order_is_clean(self, tmp_path):
        clean = INVERSION.replace(
            "with self._b:\n            with self._a:",
            "with self._a:\n            with self._b:",
        )
        report = analyze_snippet(tmp_path, clean)
        assert "LX501" not in codes(report.diagnostics)

    def test_call_propagation_contributes_edges(self, tmp_path):
        source = HEADER + (
            "class Deep:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = threading.Lock()\n"
            "\n"
            "    def _low(self):\n"
            "        with self._inner:\n"
            "            pass\n"
            "\n"
            "    def high(self):\n"
            "        with self._outer:\n"
            "            self._low()\n"
        )
        (tmp_path / "deep.py").write_text(source)
        graph = build_lock_order_graph(build_model(tmp_path))
        assert ("Deep._outer", "Deep._inner") in graph.pairs()
        (edge,) = [e for e in graph.edges if e.held == "Deep._outer"]
        assert edge.origin == "call"

    def test_graph_to_dict_shape(self, tmp_path):
        (tmp_path / "pair.py").write_text(INVERSION)
        graph = build_lock_order_graph(build_model(tmp_path))
        document = graph.to_dict()
        assert set(document["nodes"]) == {"Pair._a", "Pair._b"}
        edge = document["edges"][0]
        assert set(edge) == {"held", "acquired", "site", "method", "origin"}
        assert ":" in edge["site"] and edge["site"].partition(":")[0].endswith(
            "pair.py"
        )


class TestBlocking:
    def test_lx502_sleep_under_lock(self, tmp_path):
        report = analyze_snippet(tmp_path, SLEEP_UNDER_LOCK)
        (finding,) = [d for d in report.warnings if d.code == "LX502"]
        assert "time.sleep" in finding.message
        assert "Sleeper._lock" in finding.message

    def test_lx502_propagates_through_self_calls(self, tmp_path):
        source = HEADER + (
            "class Chained:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def _slow(self):\n"
            "        time.sleep(0.5)\n"
            "\n"
            "    def tick(self):\n"
            "        with self._lock:\n"
            "            self._slow()\n"
        )
        report = analyze_snippet(tmp_path, source)
        assert any(
            d.code == "LX502" and "may block" in d.message
            for d in report.warnings
        )

    def test_bounded_own_condition_wait_is_clean(self, tmp_path):
        source = HEADER + (
            "class Waiter:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "\n"
            "    def pump(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait(timeout=0.1)\n"
        )
        report = analyze_snippet(tmp_path, source)
        assert "LX502" not in codes(report.diagnostics)

    def test_foreign_lock_across_bounded_wait_is_flagged(self, tmp_path):
        source = HEADER + (
            "class Waiter:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self._aux = threading.Lock()\n"
            "\n"
            "    def pump(self):\n"
            "        with self._aux:\n"
            "            with self._cond:\n"
            "                self._cond.wait(timeout=0.1)\n"
        )
        report = analyze_snippet(tmp_path, source)
        (finding,) = [d for d in report.warnings if d.code == "LX502"]
        assert "Waiter._aux" in finding.message
        assert "stays held" in finding.message


class TestGuardedFields:
    def test_lx503_majority_guarded_field_with_bare_read(self, tmp_path):
        report = analyze_snippet(tmp_path, GUARD_SKEW)
        (finding,) = [d for d in report.warnings if d.code == "LX503"]
        assert "Box._value" in finding.message
        assert "Box._lock" in finding.message
        assert "peek" in finding.message

    def test_one_diagnostic_per_field_with_related_anchors(self, tmp_path):
        source = GUARD_SKEW + (
            "\n    def peek2(self):\n        return self._value\n"
            "\n    def peek3(self):\n        return self._value\n"
        )
        report = analyze_snippet(tmp_path, source)
        findings = [d for d in report.warnings if d.code == "LX503"]
        assert len(findings) == 1
        assert len(findings[0].related) == 2  # the other bare sites

    def test_init_publication_does_not_count(self, tmp_path):
        # ``self._value = 0`` in __init__ is pre-publication, not a race.
        report = analyze_snippet(tmp_path, GUARD_SKEW)
        (finding,) = [d for d in report.warnings if d.code == "LX503"]
        assert "2/2 write(s)" in finding.message

    def test_contract_docstring_marks_lock_held(self, tmp_path):
        contracted = CONTRACT.format(
            doc='"""Caller holds ``_lock``."""\n        '
        )
        report = analyze_snippet(tmp_path, contracted)
        assert "LX503" not in codes(report.diagnostics)

    def test_without_contract_the_same_read_is_bare(self, tmp_path):
        report = analyze_snippet(tmp_path, CONTRACT.format(doc=""))
        assert "LX503" in codes(report.warnings)

    def test_unlocked_suffix_is_a_naming_contract(self, tmp_path):
        renamed = CONTRACT.format(doc="").replace(
            "def size(self):", "def size_unlocked(self):"
        )
        report = analyze_snippet(tmp_path, renamed)
        assert "LX503" not in codes(report.diagnostics)


class TestCallbacks:
    def test_lx504_listener_loop_under_plain_lock(self, tmp_path):
        report = analyze_snippet(
            tmp_path, CALLBACK_UNDER_LOCK.format(factory="Lock")
        )
        (finding,) = [d for d in report.warnings if d.code == "LX504"]
        assert "Emitter._lock" in finding.message
        assert "listener" in finding.message

    def test_rlock_holders_are_exempt(self, tmp_path):
        report = analyze_snippet(
            tmp_path, CALLBACK_UNDER_LOCK.format(factory="RLock")
        )
        assert "LX504" not in codes(report.diagnostics)

    def test_snapshot_then_invoke_outside_lock_is_clean(self, tmp_path):
        source = HEADER + (
            "class Emitter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._listeners = []\n"
            "\n"
            "    def emit(self, value):\n"
            "        with self._lock:\n"
            "            listeners = tuple(self._listeners)\n"
            "        for listener in listeners:\n"
            "            listener(value)\n"
        )
        report = analyze_snippet(tmp_path, source)
        assert "LX504" not in codes(report.diagnostics)


class TestThreads:
    def test_lx505_thread_with_no_stop_path(self, tmp_path):
        report = analyze_snippet(tmp_path, LEAKED_THREAD)
        (finding,) = [d for d in report.warnings if d.code == "LX505"]
        assert "daemon thread" in finding.message
        assert "Spawner.start" in finding.message

    def test_stop_event_and_join_satisfy_the_check(self, tmp_path):
        report = analyze_snippet(tmp_path, STOPPABLE_THREAD)
        assert "LX505" not in codes(report.diagnostics)


# -- suppressions -------------------------------------------------------------------


class TestSuppressions:
    def test_inline_suppression_moves_finding_to_suppressed(self, tmp_path):
        suppressed = GUARD_SKEW.replace(
            "return self._value",
            "return self._value  # lexcheck: ignore[LX503]",
        )
        report = analyze_snippet(tmp_path, suppressed)
        assert "LX503" not in codes(report.diagnostics)
        assert "LX503" in codes(report.suppressed)

    def test_suppression_on_any_related_anchor_silences(self, tmp_path):
        # The finding anchors at the *first* bare site; a suppression on a
        # later (related) site must still silence it.
        source = GUARD_SKEW + (
            "\n    def peek2(self):\n"
            "        # lexcheck: ignore[LX503]\n"
            "        return self._value\n"
        )
        report = analyze_snippet(tmp_path, source)
        assert "LX503" in codes(report.suppressed)

    def test_unrelated_code_not_suppressed(self, tmp_path):
        suppressed = GUARD_SKEW.replace(
            "return self._value",
            "return self._value  # lexcheck: ignore[LX999]",
        )
        report = analyze_snippet(tmp_path, suppressed)
        assert "LX503" in codes(report.diagnostics)


# -- strictness and metrics ---------------------------------------------------------


class TestStrict:
    def test_strict_raises_on_inversion(self, tmp_path):
        (tmp_path / "pair.py").write_text(INVERSION)
        with pytest.raises(AnalysisError) as excinfo:
            analyze_concurrency_strict(tmp_path)
        assert any(d.code == "LX501" for d in excinfo.value.report.errors)

    def test_warnings_do_not_trip_strict(self, tmp_path):
        (tmp_path / "box.py").write_text(GUARD_SKEW)
        report = analyze_concurrency_strict(tmp_path)
        assert "LX503" in codes(report.warnings)

    def test_strict_boot_gate_refuses_inverted_runtime(self, tmp_path):
        from repro.core import MetaComm, MetaCommConfig

        # The shipped tree is clean, so the gate passes on the default
        # root and the system constructs.
        with MetaComm(MetaCommConfig(strict_concurrency=True)) as system:
            assert system.consistent()

    def test_registry_counts_findings(self, tmp_path):
        from repro.obs.export import render_prometheus
        from repro.obs.metrics import MetricsRegistry

        (tmp_path / "box.py").write_text(GUARD_SKEW)
        registry = MetricsRegistry()
        analyze_concurrency(tmp_path, registry=registry)
        text = render_prometheus(registry)
        assert (
            'metacomm_concurrency_diagnostics_total{severity="warning"} 1'
            in text
        )


# -- the shipped tree ---------------------------------------------------------------


class TestShippedTree:
    def test_runtime_is_clean_with_justified_suppressions(self):
        report = analyze_concurrency()
        assert report.diagnostics == []
        # Every suppression in the runtime is a documented benign race.
        assert codes(report.suppressed) == {"LX503"}

    def test_static_order_has_no_dispatcher_edge(self):
        # The link dispatcher binds each link's in-flight gauge child at
        # registration, so its event loop sets the gauge without taking
        # the metric family's lock under its condition.
        pairs = static_lock_order()
        assert not [p for p in pairs if p[0] == "LinkDispatcher._cond"]

    def test_lock_order_report_returns_graph(self):
        report, graph = lock_order_report()
        assert report.ok
        assert "UpdateQueue._cond" in graph.nodes
        assert "Backend._lock" in graph.nodes


# -- the CLI ------------------------------------------------------------------------


class TestCli:
    def test_check_concurrency_text_mode(self, capsys):
        assert main(["check", "--concurrency"]) == 0
        out = capsys.readouterr().out
        assert "lock-order graph:" in out
        assert "LinkDispatcher._cond ->" not in out

    def test_check_concurrency_json_has_lock_order(self, capsys):
        assert main(["check", "--concurrency", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["diagnostics"] == []
        assert "LinkDispatcher._cond" in document["lock_order"]["nodes"]
        held = {e["held"] for e in document["lock_order"]["edges"]}
        assert "LinkDispatcher._cond" not in held

    def test_fail_on_warning_trips_on_lx503(self, tmp_path, capsys):
        (tmp_path / "box.py").write_text(GUARD_SKEW)
        root = str(tmp_path)
        assert main(["check", "--concurrency", root]) == 0
        assert main(
            ["check", "--concurrency", "--fail-on=warning", root]
        ) == 1
        capsys.readouterr()

    def test_errors_fail_regardless_of_fail_on(self, tmp_path, capsys):
        (tmp_path / "pair.py").write_text(INVERSION)
        assert main(["check", "--concurrency", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_shipped_tree_passes_fail_on_warning(self, capsys):
        assert main(["check", "--concurrency", "--fail-on=warning"]) == 0
        capsys.readouterr()
