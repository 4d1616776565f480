"""Tests for the lexpress compilation tier: the constant-folding /
dead-branch optimizer, closure code generation, the process-wide
compiled-rule cache, ``run_rule`` mode dispatch, and the MetaComm
``lexpress_mode`` wiring (docs/LEXPRESS_COMPILER.md)."""

import pytest

from repro.lexpress import (
    CodeObject,
    LexpressCompileError,
    LexpressDivergenceError,
    LexpressRuntimeError,
    Op,
    compile_closure,
    compile_expr,
    execute,
    lower_attrs,
    rule_cache,
    run_rule,
    tokenize,
)
from repro.lexpress.codegen import (
    CompiledClosure,
    CompiledRuleCache,
    _CFrame,
    verified_compile,
)
from repro.lexpress.parser import Parser


def expr_code(source: str, optimize: bool = True) -> CodeObject:
    parser = Parser(tokenize(source))
    return compile_expr(parser.parse_expr(), source, optimize=optimize)


def ops(code: CodeObject) -> list[Op]:
    return [ins.op for ins in code.instructions]


def run_closure(code: CodeObject, attrs=None, value=None):
    closure = compile_closure(code)
    frame = _CFrame()
    frame.value = value
    return closure.fn(lower_attrs(attrs or {}), frame)


def broken_code() -> CodeObject:
    """Verifier-rejected (LX102) but interpreter-executable code."""
    code = CodeObject("broken")
    code.emit(Op.PUSH, code.const("a"))
    code.emit(Op.PUSH, code.const("b"))
    code.emit(Op.RETURN)
    return code


# -- constant folding / dead-branch elimination ------------------------------


class TestOptimizer:
    def test_pure_calls_fold_to_a_push(self):
        code = expr_code('concat("a", upper("bc"))')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["aBC"]

    def test_folding_can_be_disabled(self):
        code = expr_code('concat("a", upper("bc"))', optimize=False)
        assert Op.CALL in ops(code)

    def test_failing_calls_are_left_for_the_runtime(self):
        # Wrong arity: folding must not swallow the author's error site.
        code = expr_code('substr("abc")')
        assert Op.CALL in ops(code)
        with pytest.raises(LexpressRuntimeError):
            execute(code, {})

    def test_literal_compare_folds(self):
        code = expr_code('("a" == "a")')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == [True]

    def test_boolop_short_circuits_at_compile_time(self):
        false_and = expr_code('(("a" == "b") and upper(Name))')
        assert ops(false_and) == [Op.PUSH, Op.RETURN]
        assert false_and.consts == [False]
        true_or = expr_code('(("a" == "a") or upper(Name))')
        assert ops(true_or) == [Op.PUSH, Op.RETURN]
        assert true_or.consts == [True]

    def test_surviving_right_side_is_coerced_to_bool(self):
        # true and X  ->  X under double-NOT: the result stays a bool.
        code = expr_code('(("a" == "a") and Name)')
        assert execute(code, {"Name": ["x"]}) is True
        assert execute(code, {}) is False

    def test_literal_right_side_never_simplifies(self):
        # Name's evaluation (and group writes) must be kept.
        code = expr_code('(Name and "x")')
        assert Op.LOAD_ATTR in ops(code)

    def test_literal_subject_match_resolves_to_the_hit_body(self):
        code = expr_code('match upper("ab") { /^A/ => "hit"; _ => "miss"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["hit"]

    def test_literal_subject_miss_resolves_to_the_wildcard(self):
        code = expr_code('match "zz" { /^A/ => "hit"; _ => "miss"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["miss"]

    def test_null_subject_match_is_the_wildcard_body(self):
        code = expr_code('match null { /^a/ => "x"; _ => "y"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["y"]

    def test_groupref_blocks_hit_body_substitution(self):
        # The hit writes frame.groups, and $1 reads them: the match
        # machinery must survive even though the subject is a literal.
        code = expr_code('match "abc" { /^(a)/ => $1; _ => "miss"; }')
        assert Op.MATCH_RE in ops(code)
        assert execute(code, {}) == "a"

    def test_bad_regex_still_fails_compilation(self):
        # Even on an arm a literal subject would never reach.
        with pytest.raises(LexpressCompileError):
            expr_code('match "zz" { /(/ => "x"; _ => "y"; }')

    def test_bool_subject_prunes_impossible_table_keys(self):
        code = expr_code(
            'table present(Name) { "True" => "yes"; "emp" => "no"; }'
        )
        assert Op.TABLE_CONST in ops(code)
        (table, default), = [
            c for c in code.consts if isinstance(c, tuple)
        ]
        assert set(table) == {"True"}
        assert default is None

    def test_all_literal_table_interns_to_table_const(self):
        code = expr_code('table Kind { "emp" => "1"; "ctr" => "2"; }')
        assert ops(code) == [Op.LOAD_ATTR, Op.TABLE_CONST, Op.RETURN]
        assert execute(code, {"Kind": ["ctr"]}) == "2"
        assert execute(code, {"Kind": ["xxx"]}) is None

    def test_computed_table_body_keeps_the_match_chain(self):
        code = expr_code('table Kind { "emp" => upper(Name); }')
        assert Op.TABLE_CONST not in ops(code)
        assert Op.MATCH_LIT in ops(code)


# -- closure code generation -------------------------------------------------


class TestCodegen:
    def test_single_block_closures_are_straight_line(self):
        closure = compile_closure(expr_code('concat(Name, "x")'))
        assert "while True" not in closure.source
        assert "stack" not in closure.source

    def test_branchy_code_uses_block_dispatch(self):
        closure = compile_closure(
            expr_code('match Name { /^a/ => "x"; _ => "y"; }')
        )
        assert "while True" in closure.source

    @pytest.mark.parametrize(
        "source, attrs, value",
        [
            ('concat(upper(Name), "-", Room)', {"Name": ["ab"], "Room": ["2B"]}, None),
            ('match Name { /^(\\w+), ?(\\w+)$/ => concat($2, " ", $1); _ => Name; }',
             {"Name": ["Doe, John"]}, None),
            ('match Name { /^z/ => "x"; _ => trim(Name); }', {"Name": [" a "]}, None),
            ('table Kind { "emp" => "1"; "ctr" => "2"; }', {"Kind": ["ctr"]}, None),
            ('table Kind { "emp" => "1"; }', {"Kind": ["xxx"]}, None),
            ('each Member => upper(value)', {"Member": ["a", "b"]}, None),
            ('alt(Name, Room)', {"Room": ["2B"]}, None),
            ('(present(Name) and not empty(Room))', {"Name": ["x"], "Room": []}, None),
            ('count(Member)', {"Member": ["a", "b", "c"]}, None),
            ('concat(table Kind { "emp" => "1"; }, $0)', {"Kind": ["emp"]}, None),
        ],
    )
    def test_closures_match_the_interpreter(self, source, attrs, value):
        code = expr_code(source)
        interpreted = execute(code, attrs, value)
        compiled = run_closure(code, attrs, value)
        assert compiled == interpreted
        assert type(compiled) is type(interpreted)

    def test_runtime_errors_match_the_interpreter(self):
        code = expr_code("substr(Name)")  # wrong arity, not foldable
        with pytest.raises(LexpressRuntimeError):
            execute(code, {"Name": ["x"]})
        with pytest.raises(LexpressRuntimeError):
            run_closure(code, {"Name": ["x"]})

    def test_empty_code_cannot_be_lowered(self):
        with pytest.raises(LexpressRuntimeError):
            compile_closure(CodeObject("partition:always"))

    def test_fingerprint_travels_with_the_closure(self):
        code = expr_code('upper(Name)')
        assert compile_closure(code).fingerprint == code.fingerprint()


class TestVerifiedCompile:
    def test_clean_code_compiles(self):
        closure = verified_compile(expr_code('upper(Name)'), "m", "a")
        assert isinstance(closure, CompiledClosure)
        assert closure.name == "m.a"

    def test_rejected_code_returns_none(self):
        assert verified_compile(broken_code(), "m", "a") is None


# -- the compiled-rule cache -------------------------------------------------


class TestCompiledRuleCache:
    def test_miss_then_hit(self):
        cache = CompiledRuleCache()
        code = expr_code('upper(Name)')
        first = cache.get_or_compile("m", "a", code)
        second = cache.get_or_compile("m", "a", code)
        assert first is second
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["compiles"] == 1 and stats["entries"] == 1

    def test_recompiling_a_rule_invalidates_the_entry(self):
        cache = CompiledRuleCache()
        old = expr_code('upper(Name)')
        stale = cache.get_or_compile("m", "a", old)
        # The description was recompiled: same key, different byte code.
        new = expr_code('lower(Name)')
        fresh = cache.get_or_compile("m", "a", new)
        assert fresh is not stale
        assert fresh.fingerprint == new.fingerprint() != stale.fingerprint
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["compiles"] == 2
        frame = _CFrame()
        assert fresh.fn(lower_attrs({"Name": ["Ab"]}), frame) == "ab"

    def test_rejections_are_cached_and_served_without_reverifying(self):
        cache = CompiledRuleCache()
        code = broken_code()
        assert cache.get_or_compile("m", "a", code) is None
        assert cache.get_or_compile("m", "a", code) is None
        stats = cache.stats()
        assert stats["rejected"] == 1 and stats["hits"] == 1

    def test_listeners_see_every_compile_outcome(self):
        cache = CompiledRuleCache()
        events = []
        cache.subscribe(events.append)
        cache.get_or_compile("m", "good", expr_code('upper(Name)'))
        cache.get_or_compile("m", "good", expr_code('upper(Name)'))  # hit
        cache.get_or_compile("m", "bad", broken_code())
        assert [(e["attribute"], e["status"]) for e in events] == [
            ("good", "compiled"),
            ("bad", "rejected"),
        ]
        assert all(e["mapping"] == "m" and "fingerprint" in e for e in events)
        cache.unsubscribe(events.append)

    def test_unsubscribed_listeners_go_quiet(self):
        cache = CompiledRuleCache()
        events = []
        listener = events.append
        cache.subscribe(listener)
        cache.unsubscribe(listener)
        cache.get_or_compile("m", "a", expr_code('upper(Name)'))
        assert events == []

    def test_clear_resets_entries_and_counters(self):
        cache = CompiledRuleCache()
        cache.get_or_compile("m", "a", expr_code('upper(Name)'))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0


# -- run_rule mode dispatch --------------------------------------------------


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = CompiledRuleCache()
    monkeypatch.setattr("repro.lexpress.codegen._CACHE", cache)
    return cache


class TestRunRule:
    def test_default_mode_is_plain_interpretation(self, fresh_cache):
        code = expr_code('upper(Name)')
        assert run_rule(code, {"Name": ["ab"]}) == "AB"
        assert len(fresh_cache) == 0

    def test_compiled_mode_serves_the_cache(self, fresh_cache):
        code = expr_code('concat(upper(Name), "-", Room)')
        attrs = {"Name": ["ab"], "Room": ["2B"]}
        result = run_rule(
            code, attrs, mapping="m", attribute="a", mode="compiled"
        )
        assert result == execute(code, attrs)
        assert fresh_cache.stats()["compiles"] == 1

    def test_compiled_mode_falls_back_on_rejected_code(self, fresh_cache):
        code = broken_code()
        result = run_rule(
            code, {}, mapping="m", attribute="a", mode="compiled"
        )
        assert result == execute(code, {}) == "b"
        assert fresh_cache.stats()["rejected"] == 1

    def test_verify_mode_agrees_on_honest_closures(self, fresh_cache):
        code = expr_code('upper(Name)')
        result = run_rule(
            code, {"Name": ["ab"]}, mapping="m", attribute="a", mode="verify"
        )
        assert result == "AB"

    def test_verify_mode_raises_on_divergence(self, fresh_cache):
        code = expr_code('upper(Name)')
        lying = CompiledClosure(
            name="m.a",
            fn=lambda attrs, frame: "WRONG",
            source="",
            fingerprint=code.fingerprint(),
        )
        fresh_cache._entries[("m", "a")] = (code.fingerprint(), lying)
        with pytest.raises(LexpressDivergenceError) as exc_info:
            run_rule(
                code, {"Name": ["ab"]},
                mapping="m", attribute="a", mode="verify",
            )
        error = exc_info.value
        assert error.mapping == "m" and error.attribute == "a"
        assert error.interpreted == "AB" and error.compiled == "WRONG"
        assert "divergence" in str(error)

    def test_unknown_mode_is_an_error(self, fresh_cache):
        with pytest.raises(ValueError, match="lexpress_mode"):
            run_rule(expr_code('Name'), {}, mode="bogus")


# -- MetaComm wiring ---------------------------------------------------------


def _provision(system):
    from repro.schemas import PERSON_CLASSES

    system.connection().add(
        "cn=Jo Smith,o=Marketing,o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": "Jo Smith",
            "sn": "Smith",
            "definityExtension": "4100",
        },
    )


class TestMetaCommModes:
    def test_invalid_mode_is_rejected_at_boot(self):
        from repro.core import MetaComm, MetaCommConfig

        with pytest.raises(ValueError, match="lexpress_mode"):
            MetaComm(MetaCommConfig(lexpress_mode="bogus"))

    def test_compiled_mode_provisions_and_journals(self):
        from repro.core import MetaComm, MetaCommConfig
        from repro.obs.events import LEXPRESS_COMPILED

        # A warm process-wide cache would serve hits and journal nothing.
        rule_cache().clear()
        system = MetaComm(
            MetaCommConfig(
                organizations=("Marketing",), lexpress_mode="compiled"
            )
        )
        try:
            _provision(system)
            assert system.pbx().station("4100") is not None
            assert system.consistent()
            compiles = system.obs.journal.events(LEXPRESS_COMPILED)
            assert compiles
            assert all(
                e.attributes["status"] == "compiled" for e in compiles
            )
        finally:
            system.close()

    def test_verify_mode_runs_the_workload_without_divergence(self):
        # The acceptance gate: the shipped mapping library produces
        # identical values from both engines across a full provisioning
        # fan-out (any disagreement raises LexpressDivergenceError).
        from repro.core import MetaComm, MetaCommConfig

        rule_cache().clear()
        system = MetaComm(
            MetaCommConfig(
                organizations=("Marketing",), lexpress_mode="verify"
            )
        )
        try:
            _provision(system)
            system.terminal().execute("change station 4100 room 2B-110")
            assert system.consistent()
            assert rule_cache().stats()["compiles"] > 0
        finally:
            system.close()

    def test_close_unsubscribes_the_compile_listener(self):
        from repro.core import MetaComm, MetaCommConfig

        before = len(rule_cache()._listeners)
        system = MetaComm(
            MetaCommConfig(
                organizations=("Marketing",), lexpress_mode="compiled"
            )
        )
        assert len(rule_cache()._listeners) == before + 1
        system.close()
        assert len(rule_cache()._listeners) == before

    def test_interpret_mode_leaves_mappings_alone(self):
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(
            MetaCommConfig(organizations=("Marketing",), lexpress_mode="interpret")
        ) as system:
            assert all(
                m.lexpress_mode is None for m in system.mappings.values()
            )
