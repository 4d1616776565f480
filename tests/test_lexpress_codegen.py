"""Tests for the lexpress compilation tier: the constant-folding /
dead-branch optimizer, closure code generation, engine binding
(``bind``), and the MetaComm ``lexpress_mode`` wiring
(docs/LEXPRESS_COMPILER.md)."""

from collections import Counter

import pytest

from repro.lexpress import (
    MODES,
    AlwaysTrue,
    CodeObject,
    LexpressCompileError,
    LexpressDivergenceError,
    LexpressRuntimeError,
    Op,
    bind,
    compile_closure,
    compile_expr,
    compile_mapping,
    execute,
    lower_attrs,
    tokenize,
)
from repro.lexpress.codegen import CompiledClosure, _CFrame, verified_compile
from repro.lexpress.kernel import ImageKernel, compile_kernel
from repro.lexpress.mapping import CompiledRule
from repro.lexpress.parser import Parser
from repro.schemas.mappings import standard_mappings


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


# -- engine binding ----------------------------------------------------------


class TestRunRule:
    """Running one rule through the runner :func:`bind` returns."""

    def test_default_mode_is_plain_interpretation(self):
        runner = bind(expr_code('upper(Name)'), "interpret", mapping="m", attribute="a")
        assert runner({"Name": ["ab"]}) == "AB"
        assert runner.status is None and runner.closure is None

    def test_compiled_mode_runs_the_verified_closure(self):
        code = expr_code('concat(upper(Name), "-", Room)')
        attrs = {"Name": ["ab"], "Room": ["2B"]}
        runner = bind(code, "compiled", mapping="m", attribute="a")
        assert runner.status == "compiled"
        assert runner.closure.fingerprint == code.fingerprint()
        assert runner.fingerprint == code.fingerprint()[:12]
        assert runner(attrs) == execute(code, attrs)

    def test_compiled_mode_falls_back_on_rejected_code(self):
        code = broken_code()
        runner = bind(code, "compiled", mapping="m", attribute="a")
        assert runner.status == "rejected" and runner.closure is None
        assert runner({}) == execute(code, {}) == "b"

    def test_verify_mode_agrees_on_honest_closures(self):
        runner = bind(expr_code('upper(Name)'), "verify", mapping="m", attribute="a")
        assert runner({"Name": ["ab"]}) == "AB"

    def test_verify_mode_raises_on_divergence(self, monkeypatch):
        code = expr_code('upper(Name)')
        lying = CompiledClosure(
            name="m.a",
            fn=lambda attrs, frame: "WRONG",
            source="",
            fingerprint=code.fingerprint(),
        )
        monkeypatch.setattr(
            "repro.lexpress.codegen.verified_compile", lambda *args: lying
        )
        runner = bind(code, "verify", mapping="m", attribute="a")
        with pytest.raises(LexpressDivergenceError) as exc_info:
            runner({"Name": ["ab"]})
        error = exc_info.value
        assert error.mapping == "m" and error.attribute == "a"
        assert error.interpreted == "AB" and error.compiled == "WRONG"
        assert "divergence" in str(error)

    def test_unknown_mode_is_an_error(self):
        with pytest.raises(ValueError, match="lexpress_mode"):
            bind(expr_code('Name'), "bogus", mapping="m", attribute="a")

    def test_mappings_bind_every_rule_and_partition_when_built(self):
        mapping = compile_mapping(
            "mapping m { source a; target b; map X = upper(Name);"
            " partition when present(X); }",
            mode="compiled",
        )
        assert [(r.attribute, r.status) for r in mapping.runners] == [
            ("X", "compiled"),
            ("m.partition", "compiled"),
        ]
        assert mapping.image({"Name": ["ab"]}) == {"X": ["AB"]}


# -- image kernels -----------------------------------------------------------

#: Source records of each schema the shipped mappings read, hitting and
#: missing their regex arms, with and without their keys.
SHIPPED_RECORDS = {
    "pbx": [
        {"Extension": "4100", "Name": "Doe, John", "Room": "2B-110",
         "Building": "MH", "Port": "01A0101", "COR": "1", "COS": "2",
         "Type": "8410D", "CoveragePath": "7"},
        {"Extension": "4101", "Name": "Prince"},
        {"Name": "Ada King Lovelace", "Room": ""},
        {},
    ],
    "ldap": [
        {"cn": "John Doe", "sn": "Doe", "definityExtension": "4100",
         "telephoneNumber": "+1 908 582 4100", "definityRoom": "2B",
         "mpSubscriberName": "J Doe", "mpCOS": "3", "mpLanguage": "en",
         "lastUpdater": "pbx"},
        {"cn": ["Prince", "P"], "telephoneNumber": "+1 908 582 4101"},
        {"cn": "Jo Smith", "definityCOS": "1"},
        {},
    ],
    "mp": [
        {"TelephoneNumber": "+1 908 582 4100", "MailboxId": "mb-1",
         "SubscriberName": "John Doe", "COS": "3", "Language": "fr"},
        {"SubscriberName": "Nobody"},
        {},
    ],
}


def _images(mapping, record):
    """Every image the mapping serves of *record*: the full one, and one
    per target set a single rule and the key make."""
    low = lower_attrs({k: [v] if isinstance(v, str) else v for k, v in record.items()})
    images = [mapping.image(record), mapping._image(low)]
    for rule in mapping.rules:
        targets = frozenset({rule.target_low, mapping.key_target.lower()})
        images.append(mapping._image(low, targets))
    return images


class TestImageKernels:
    def test_shipped_mappings_image_alike_in_every_mode(self):
        by_mode = {mode: standard_mappings(mode=mode) for mode in MODES}
        for name, mapping in by_mode["interpret"].items():
            for record in SHIPPED_RECORDS[mapping.source]:
                expected = _images(mapping, record)
                for mode in ("compiled", "verify"):
                    assert _images(by_mode[mode][name], record) == expected, (
                        mode, name, record
                    )

    def test_compiled_mode_images_with_the_kernel_and_inlines_every_rule(self):
        for mapping in standard_mappings(mode="compiled").values():
            kernel = mapping.kernel()
            assert isinstance(kernel, ImageKernel)
            assert mapping.imager() is kernel.fn
            assert kernel.inlined == tuple(rule.target for rule in mapping.rules)
            assert kernel.called == ()
            assert kernel.source.startswith("def _kernel(attrs):")

    def test_interpret_mode_has_no_kernel(self):
        mapping = standard_mappings(mode="interpret")["pbx_to_ldap"]
        assert mapping.kernel() is None
        assert mapping.kernel(frozenset({"cn"})) is None

    def test_target_set_kernels_are_built_once_and_bounded(self):
        from repro.lexpress.mapping import KERNEL_MEMO_SIZE

        mapping = standard_mappings(mode="compiled")["pbx_to_ldap"]
        full = mapping.kernel()
        cn = mapping.kernel(frozenset({"cn"}))
        assert cn.inlined == ("cn",) and cn.targets == frozenset({"cn"})
        assert mapping.kernel(frozenset({"cn"})) is cn
        for n in range(KERNEL_MEMO_SIZE + 1):
            mapping.imager(frozenset({f"t{n}"}))
        assert len(mapping._imagers) <= KERNEL_MEMO_SIZE + 1
        assert mapping.kernel() is full

    def test_verify_mode_names_the_rule_a_kernel_disagrees_on(self, monkeypatch):
        import repro.lexpress.mapping as mapping_module

        real = mapping_module.compile_kernel

        def lying(mapping, targets=None):
            kernel = real(mapping, targets)

            def fn(low):
                image, image_low = kernel.fn(low)
                image["Y"] = image_low["y"] = ["WRONG"]
                return image, image_low

            return ImageKernel(
                kernel.name, targets, fn, kernel.source, kernel.inlined, kernel.called
            )

        monkeypatch.setattr(mapping_module, "compile_kernel", lying)
        mapping = compile_mapping(
            "mapping m { source a; target b; map X = upper(Name);"
            " map Y = lower(Name); }",
            mode="verify",
        )
        with pytest.raises(LexpressDivergenceError) as exc_info:
            mapping.image({"Name": ["Ab"]})
        error = exc_info.value
        assert error.mapping == "m" and error.attribute == "Y"
        assert error.interpreted == ["ab"] and error.compiled == ["WRONG"]
        assert error.span is not None

    def test_a_rule_the_gate_rejected_is_interpreted_inside_the_kernel(self):
        mapping = compile_mapping(
            "mapping m { source a; target b; map X = upper(Name);"
            " map Z = lower(Name); }",
            mode="compiled",
        )
        broken = broken_code()
        run = bind(broken, "compiled", mapping="m", attribute="Broken")
        assert run.status == "rejected"
        x, z = mapping.rules
        mapping.rules = (x, CompiledRule("Broken", broken, run), z)
        kernel = compile_kernel(mapping)
        assert kernel.inlined == ("X", "Z") and kernel.called == ("Broken",)
        assert "_1run(attrs, None, True)" in kernel.source
        image, image_low = kernel.fn({"name": ["Ab"]})
        assert image == {"X": ["AB"], "Broken": ["b"], "Z": ["ab"]}
        assert (image, image_low) == mapping._image_by_rule({"name": ["Ab"]})

    def test_kernels_raise_what_the_rule_raises(self):
        mapping = compile_mapping(
            "mapping m { source a; target b; map X = upper(Name);"
            " map Y = substr(Name); }",
            mode="compiled",
        )
        with pytest.raises(LexpressRuntimeError) as interpreted:
            mapping._image_by_rule({"name": ["x"]})
        with pytest.raises(LexpressRuntimeError) as fused:
            mapping.kernel().fn({"name": ["x"]})
        assert str(fused.value) == str(interpreted.value)


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


def _own_fingerprints(system) -> Counter:
    """Fingerprint prefixes of every rule and partition of *system*'s
    mappings and device bindings."""
    codes = []
    for mapping in system.mappings.values():
        codes += [rule.code for rule in mapping.rules]
        if not isinstance(mapping.partition, AlwaysTrue):
            codes.append(mapping.partition.code)
    codes += [b.partition.code for b in system.um.bindings if b.partition]
    return Counter(code.fingerprint()[:12] for code in codes)


class TestMetaCommModes:
    def test_invalid_mode_is_rejected_at_boot(self):
        from repro.core import MetaComm, MetaCommConfig

        with pytest.raises(ValueError, match="lexpress_mode"):
            MetaComm(MetaCommConfig(lexpress_mode="bogus"))

    def test_compiled_mode_provisions_and_journals(self):
        from repro.core import MetaComm, MetaCommConfig
        from repro.obs.events import LEXPRESS_COMPILED

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

    def test_co_hosted_systems_journal_only_their_own_compiles(self):
        # Two systems in one process, with different dial plans so their
        # telephone-number rules differ: each journals one compile per
        # rule and partition it binds, and nothing of the other's.
        from repro.core import MetaComm, MetaCommConfig
        from repro.obs.events import LEXPRESS_COMPILED

        systems = []
        try:
            for prefix in ("+1 908 582 ", "+1 212 555 "):
                system = MetaComm(
                    MetaCommConfig(
                        organizations=("Marketing",),
                        phone_prefix=prefix,
                        lexpress_mode="compiled",
                    )
                )
                systems.append(system)
                _provision(system)
            journaled = [
                Counter(
                    e.attributes["fingerprint"]
                    for e in system.obs.journal.events(LEXPRESS_COMPILED)
                )
                for system in systems
            ]
            for system, seen in zip(systems, journaled):
                assert seen == _own_fingerprints(system)
            assert journaled[0] != journaled[1]
            assert sum(journaled[0].values()) == sum(journaled[1].values())
        finally:
            for system in systems:
                system.close()

    def test_verify_mode_runs_the_workload_without_divergence(self):
        # The acceptance gate: the shipped mapping library produces
        # identical values from both engines across a full provisioning
        # fan-out (any disagreement raises LexpressDivergenceError).
        from repro.core import MetaComm, MetaCommConfig

        system = MetaComm(
            MetaCommConfig(
                organizations=("Marketing",), lexpress_mode="verify"
            )
        )
        try:
            _provision(system)
            system.terminal().execute("change station 4100 room 2B-110")
            assert system.consistent()
            assert all(r.status == "compiled" for r in system.lexpress_runners)
        finally:
            system.close()

    def test_interpret_mode_leaves_mappings_alone(self):
        from repro.core import MetaComm, MetaCommConfig
        from repro.obs.events import LEXPRESS_COMPILED

        with MetaComm(
            MetaCommConfig(organizations=("Marketing",), lexpress_mode="interpret")
        ) as system:
            assert all(r.status is None for r in system.lexpress_runners)
            assert system.obs.journal.events(LEXPRESS_COMPILED) == []
