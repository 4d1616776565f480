"""Fuzz tests: randomly generated lexpress programs must compile and
execute without crashing the toolchain (errors are fine, crashes are not),
and deterministic expressions must be referentially transparent."""

import hypothesis.strategies as st
from hypothesis import given, settings

import pytest

from repro.lexpress import (
    LexpressError,
    TokenType,
    compile_closure,
    compile_expr,
    compile_mapping,
    execute,
    lower_attrs,
    tokenize,
)
from repro.lexpress.codegen import _CFrame
from repro.lexpress.parser import Parser

ATTRS = ["Name", "Extension", "Room", "COS"]
IDENT = st.sampled_from(ATTRS)
STRING = st.text(alphabet="abc 0-9,", max_size=8).map(
    lambda s: '"' + s.replace('"', "") + '"'
)

# Grammar-directed expression source generator.
expr_source = st.deferred(
    lambda: st.one_of(
        STRING,
        IDENT,
        st.sampled_from(["null", "true", "false", "1234"]),
        st.tuples(st.sampled_from(["upper", "lower", "trim", "digits"]), expr_source).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(
            lambda t: f"concat({t[0]}, {t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(lambda t: f"alt({t[0]}, {t[1]})"),
        st.tuples(IDENT, STRING).map(lambda t: f"prefix({t[0]}, {t[1]})"),
        st.tuples(IDENT, expr_source, expr_source).map(
            lambda t: "match " + t[0] + " { /^a/ => " + t[1] + "; _ => " + t[2] + "; }"
        ),
        st.tuples(IDENT, STRING, expr_source).map(
            lambda t: "table " + t[0] + " { " + t[1] + " => " + t[2] + "; }"
        ),
        st.tuples(IDENT, expr_source).map(
            lambda t: f"each {t[0]} => concat(value, {t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(lambda t: f"({t[0]} == {t[1]})"),
    )
)

record = st.fixed_dictionaries(
    {},
    optional={
        name: st.lists(st.text(alphabet="abc4 ", max_size=6), max_size=3)
        for name in ATTRS
    },
)


def _compile(source: str):
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    assert parser.peek().type is TokenType.EOF
    return compile_expr(expr, source)


@given(source=expr_source, attrs=record)
@settings(max_examples=200, deadline=None)
def test_random_programs_never_crash(source, attrs):
    try:
        code = _compile(source)
    except LexpressError:
        return  # rejected inputs are fine; crashes are not
    try:
        result = execute(code, attrs)
    except LexpressError:
        return
    assert result is None or isinstance(result, (str, bool, list))
    if isinstance(result, list):
        assert all(isinstance(v, str) for v in result)


@given(source=expr_source, attrs=record)
@settings(max_examples=100, deadline=None)
def test_execution_is_deterministic(source, attrs):
    try:
        code = _compile(source)
        first = execute(code, attrs)
        second = execute(code, attrs)
    except LexpressError:
        return
    assert first == second


@given(source=expr_source, attrs=record)
@settings(max_examples=200, deadline=None)
def test_compiled_closures_match_the_interpreter(source, attrs):
    """The differential property behind lexpress_mode="verify": for any
    program, the synthesized closure and the interpreter must agree on
    the value *and its type* — or fail with the same error family."""
    try:
        code = _compile(source)
    except LexpressError:
        return
    closure = compile_closure(code)
    low = lower_attrs(attrs)
    frame = _CFrame()
    try:
        interpreted = execute(code, low, canonical=True)
    except LexpressError:
        with pytest.raises(LexpressError):
            closure.fn(low, frame)
        return
    compiled = closure.fn(low, frame)
    assert compiled == interpreted
    assert type(compiled) is type(interpreted)


#: A rule that sets capture groups, and one that reads them outside any
#: match: every rule starts on a fresh frame, so the reader sees none.
GROUP_SETTER = 'match Name { /^(a)(b)?/ => concat($1, $2); _ => $0; }'
GROUP_READER = 'alt($1, $0, "none")'


@given(
    sources=st.lists(expr_source, min_size=2, max_size=5),
    setter_at=st.integers(min_value=0, max_value=5),
    reader_after=st.integers(min_value=1, max_value=5),
    keyed=st.booleans(),
    attrs=record,
)
@settings(max_examples=150, deadline=None)
def test_image_kernels_match_the_per_rule_interpreter(
    sources, setter_at, reader_after, keyed, attrs
):
    """A mapping's image kernel must build the very (image, image_low)
    pair the per-rule interpreter loop builds — or fail with the same
    error family."""
    setter_at = min(setter_at, len(sources))
    sources.insert(setter_at, GROUP_SETTER)
    sources.insert(min(setter_at + reader_after, len(sources)), GROUP_READER)
    rules = "".join(f" map T{i} = {source};" for i, source in enumerate(sources))
    key = " key Extension -> T0;" if keyed else ""
    try:
        mapping = compile_mapping(
            f"mapping m {{ source a; target b;{key}{rules} }}", mode="compiled"
        )
    except LexpressError:
        return
    kernel = mapping.kernel()
    low = lower_attrs(attrs)
    try:
        expected = mapping._image_by_rule(low)
    except LexpressError:
        with pytest.raises(LexpressError):
            kernel.fn(low)
        return
    image, image_low = kernel.fn(low)
    assert (image, image_low) == expected
    for target, values in image.items():
        assert image_low[target.lower()] is values
        assert all(type(v) is str for v in values)


@given(source=expr_source)
@settings(max_examples=100, deadline=None)
def test_compilation_is_pure(source):
    """Compiling twice yields equivalent code objects."""
    try:
        first = _compile(source)
        second = _compile(source)
    except LexpressError:
        return
    assert [str(i) for i in first.instructions] == [
        str(i) for i in second.instructions
    ]
    assert first.deps == second.deps
