"""Tests for the RFC 2254 search-filter parser and evaluator."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import Entry, matches, parse_filter
from repro.ldap.entry import _norm_value
from repro.ldap.filter import (
    _Parser,
    _order_key,
    And,
    Approx,
    Equality,
    FilterSyntaxError,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Substrings,
)

JOHN = Entry(
    "cn=John Doe,o=Marketing,o=Lucent",
    {
        "objectClass": ["top", "person", "inetOrgPerson"],
        "cn": "John Doe",
        "sn": "Doe",
        "telephoneNumber": "+1 908 582 9000",
        "extension": "4100",
        "mail": ["john@lucent.com", "jdoe@lucent.com"],
    },
)


class TestParsing:
    def test_equality(self):
        node = parse_filter("(cn=John Doe)")
        assert isinstance(node, Equality)
        assert node.attribute == "cn"
        assert node.value == "John Doe"

    def test_presence(self):
        assert isinstance(parse_filter("(cn=*)"), Present)

    def test_substrings(self):
        node = parse_filter("(cn=Jo*hn*oe)")
        assert isinstance(node, Substrings)
        assert node.initial == "Jo"
        assert node.any_parts == ("hn",)
        assert node.final == "oe"

    def test_substring_leading_star(self):
        node = parse_filter("(cn=*Doe)")
        assert isinstance(node, Substrings)
        assert node.initial is None
        assert node.final == "Doe"

    def test_ordering_operators(self):
        assert isinstance(parse_filter("(extension>=4000)"), GreaterOrEqual)
        assert isinstance(parse_filter("(extension<=4999)"), LessOrEqual)

    def test_approx(self):
        assert isinstance(parse_filter("(cn~=johndoe)"), Approx)

    def test_boolean_nesting(self):
        node = parse_filter("(&(objectClass=person)(|(cn=John*)(sn=Doe))(!(ou=x)))")
        assert isinstance(node, And)
        assert isinstance(node.parts[1], Or)
        assert isinstance(node.parts[2], Not)

    def test_shorthand_without_parens(self):
        assert isinstance(parse_filter("cn=John"), Equality)

    def test_str_round_trip(self):
        text = "(&(objectClass=person)(!(cn=Jo*hn))(extension>=4000))"
        node = parse_filter(text)
        assert parse_filter(str(node)) == node

    def test_already_compiled_passthrough(self):
        node = parse_filter("(cn=x)")
        assert parse_filter(node) is node

    @pytest.mark.parametrize(
        "bad",
        ["", "()", "(cn)", "(&)", "(cn=a", "(cn=a))", "((cn=a))", "(=x)", "(cn=a(b)",
         "( =x)", "(  =*)", " =x"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(FilterSyntaxError):
            parse_filter(bad)

    def test_escaped_value(self):
        node = parse_filter(r"(cn=a\2ab)")  # \2a is '*'
        assert isinstance(node, Equality)
        assert node.value == "a*b"


class TestMatching:
    def test_equality_case_insensitive(self):
        assert matches("(cn=john doe)", JOHN)
        assert not matches("(cn=jane doe)", JOHN)

    def test_multi_valued_any_match(self):
        assert matches("(mail=jdoe@lucent.com)", JOHN)

    def test_presence(self):
        assert matches("(telephoneNumber=*)", JOHN)
        assert not matches("(roomNumber=*)", JOHN)

    def test_substring_patterns(self):
        assert matches("(cn=John*)", JOHN)
        assert matches("(cn=*Doe)", JOHN)
        assert matches("(cn=*ohn*o*)", JOHN)
        assert not matches("(cn=Jane*)", JOHN)

    def test_substring_anchors(self):
        assert not matches("(cn=ohn*)", JOHN)   # initial must anchor at start
        assert not matches("(cn=*Jo)", JOHN)    # final must anchor at end

    def test_numeric_ordering(self):
        assert matches("(extension>=4000)", JOHN)
        assert matches("(extension<=4100)", JOHN)
        assert not matches("(extension>=5000)", JOHN)

    def test_lexicographic_ordering_for_text(self):
        assert matches("(sn>=Dae)", JOHN)
        assert not matches("(sn>=Z)", JOHN)

    def test_approx_ignores_space_and_hyphen(self):
        assert matches("(cn~=john-doe)", JOHN)
        assert matches("(cn~=JOHNDOE)", JOHN)
        assert not matches("(cn~=johndough)", JOHN)

    def test_and_or_not(self):
        assert matches("(&(objectClass=person)(sn=Doe))", JOHN)
        assert matches("(|(sn=Smith)(sn=Doe))", JOHN)
        assert not matches("(!(sn=Doe))", JOHN)
        assert matches("(&(|(cn=John*)(cn=Jane*))(!(ou=any)))", JOHN)

    def test_missing_attribute_never_matches(self):
        assert not matches("(roomNumber=12)", JOHN)
        assert not matches("(roomNumber>=1)", JOHN)

    def test_paper_style_device_filter(self):
        # Find people with a Definity extension in a given range.
        entry = Entry(
            "cn=Pat,o=L",
            {"objectClass": "person", "cn": "Pat", "definityExtension": "4321"},
        )
        f = "(&(objectClass=person)(definityExtension>=4000)(definityExtension<=4999))"
        assert matches(f, entry)


@given(st.text(alphabet="abcdefg ", min_size=1, max_size=12).filter(lambda s: s.strip()))
def test_equality_matches_self(value):
    entry = Entry("cn=T,o=L", {"cn": value.strip()})
    node = parse_filter(f"(cn={value.strip()})")
    assert node.matches(entry)


@given(
    st.text(alphabet="abcXYZ", min_size=1, max_size=10),
    st.integers(min_value=0, max_value=9),
)
def test_substring_initial_matches_prefix(value, cut):
    cut = min(cut, len(value))
    if cut == 0:
        return
    entry = Entry("cn=T,o=L", {"cn": value})
    assert matches(f"(cn={value[:cut]}*)", entry)


# -- parse_filter against the general parser ----------------------------------

_NAMES = st.sampled_from(["cn", "CN", "definityExtension", "DEFINITYroom", "mail"])
_PAD = st.sampled_from(["", " ", "  "])
#: Value pieces: plain text, operator characters (literal inside a value),
#: and the escapes of '*', '(', ')' and '\'.
_PIECES = st.sampled_from(
    ["a", "B", "4", " ", "-", "=", ".", "&", "|", "!", "<", ">", "~",
     r"\2a", r"\2A", r"\28", r"\29", r"\5c"]
)
_VALUES = st.lists(_PIECES, max_size=4).map("".join)


@st.composite
def _items(draw):
    attribute = draw(_PAD) + draw(_NAMES) + draw(_PAD)
    kind = draw(st.sampled_from(["=", "=*", "sub", ">=", "<=", "~="]))
    if kind == "=*":
        return f"({attribute}=*)"
    if kind == "sub":
        value = "*".join(draw(st.lists(_VALUES, min_size=2, max_size=4)))
        return f"({attribute}={value})"
    return f"({attribute}{kind}{draw(_VALUES)})"


_FILTER_TEXTS = st.recursive(
    _items(),
    lambda inner: st.one_of(
        st.builds(lambda op, parts: f"({op}{''.join(parts)})",
                  st.sampled_from("&|"), st.lists(inner, min_size=1, max_size=3)),
        inner.map(lambda part: f"(!{part})"),
    ),
    max_leaves=6,
)


def _parser_tree(text: str):
    """What parse_filter built before it had a fast path: the general
    parser over the stripped, parenthesized text."""
    text = text.strip()
    if not text.startswith("("):
        text = f"({text})"
    return _Parser(text).parse()


def _outcome(parse, text):
    try:
        node = parse(text)
    except FilterSyntaxError as exc:
        return ("error", str(exc))
    return (node, str(node), repr(node))


@given(
    text=_FILTER_TEXTS,
    pad=_PAD,
    bare=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_parse_filter_builds_the_parsers_tree(text, pad, bare):
    """Every filter text parses to the tree the general parser builds,
    with the same str(); a single item may also come without parentheses
    and with surrounding spaces."""
    if bare and text[1] not in "&|!":
        text = text[1:-1]
    text = pad + text + pad
    assert _outcome(parse_filter, text) == _outcome(_parser_tree, text)


@given(st.text(alphabet="()=*&|!<>~\\ a2", min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_parse_filter_rejects_what_the_parser_rejects(text):
    """Arbitrary text: the same tree or the same syntax error."""
    if not text.strip():
        return
    assert _outcome(parse_filter, text) == _outcome(_parser_tree, text)


class TestDerivedOperands:
    def test_stay_out_of_equality_hash_and_repr(self):
        node = Equality("CN", "John  DOE")
        assert (node.key, node.norm) == ("cn", "john doe")
        assert node == Equality("CN", "John  DOE") != Equality("cn", "John  DOE")
        assert hash(node) == hash(("CN", "John  DOE"))
        assert repr(node) == "Equality(attribute='CN', value='John  DOE')"
        assert repr(Substrings("cn", "a", (), None)) == (
            "Substrings(attribute='cn', initial='a', any_parts=(), final=None)"
        )


@given(
    values=st.lists(
        st.text(alphabet="aB1 -.", min_size=1, max_size=5), min_size=0, max_size=3
    ),
    probe=st.text(alphabet="aB1 -.", min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_leaf_filters_match_as_with_per_call_operands(values, probe):
    """Each leaf filter, with its operands computed at construction,
    answers what computing them on every call answered."""
    entry = Entry("cn=T,o=L", {"cn": "T", "Mail": values})
    squash = Approx._squash
    stored = entry.get("mail")
    assert Equality("MAIL", probe).matches(entry) == entry.attributes.has_value(
        "mail", probe
    )
    assert Present("mAIL").matches(entry) == entry.has("mail")
    assert GreaterOrEqual("mail", probe).matches(entry) == any(
        _order_key(v) >= _order_key(probe) for v in stored
    )
    assert LessOrEqual("mail", probe).matches(entry) == any(
        _order_key(v) <= _order_key(probe) for v in stored
    )
    assert Approx("mail", probe).matches(entry) == any(
        squash(v) == squash(probe) for v in stored
    )
    initial, final = probe[:2], probe[-1:]
    regex = re.compile(
        f"^{re.escape(_norm_value(initial))}.*{re.escape(_norm_value(final))}$"
    )
    assert Substrings("mail", initial, (), final).matches(entry) == any(
        regex.match(_norm_value(v)) for v in stored
    )
