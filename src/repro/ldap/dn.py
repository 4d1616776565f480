"""Distinguished Names.

Implements the subset of RFC 2253 used by MetaComm: DNs are sequences of
RDNs from leaf to root (``cn=John Doe, o=Marketing, o=Lucent``), an RDN is
one or more ``attribute=value`` pairs joined by ``+``, and special
characters can be escaped with a backslash.

Matching is case-insensitive for both attribute names and values (the
caseIgnoreMatch rule that applies to directory strings), and insensitive to
insignificant whitespace around separators.  Normalized forms are used as
dictionary keys throughout the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .result import InvalidDnError

_ESCAPED = {",", "+", '"', "\\", "<", ">", ";", "=", "#"}


def escape_value(value: str) -> str:
    """Escape an attribute value for inclusion in a DN string."""
    out = []
    for i, ch in enumerate(value):
        if ch in _ESCAPED:
            out.append("\\" + ch)
        elif ch == " " and (i == 0 or i == len(value) - 1):
            out.append("\\ ")
        else:
            out.append(ch)
    return "".join(out)


def _split_unescaped(text: str, sep: str) -> list[str]:
    """Split *text* at unescaped occurrences of *sep*."""
    parts: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if escaped:
        raise InvalidDnError(f"dangling escape in {text!r}")
    parts.append("".join(current))
    return parts


def _unescape(text: str) -> str:
    out = []
    escaped = False
    for ch in text:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class Ava:
    """A single attribute/value assertion, e.g. ``cn=John Doe``."""

    attribute: str
    value: str

    def normalized(self) -> tuple[str, str]:
        return (self.attribute.lower(), " ".join(self.value.lower().split()))

    def __str__(self) -> str:
        return f"{self.attribute}={escape_value(self.value)}"


class Rdn:
    """A Relative Distinguished Name: one or more AVAs joined by ``+``.

    The RDN of an entry must be unique among the children of its parent;
    uniqueness is judged on the normalized form.
    """

    __slots__ = ("avas", "_norm")

    def __init__(self, avas: Iterable[Ava]):
        avas = tuple(avas)
        if not avas:
            raise InvalidDnError("empty RDN")
        self.avas: tuple[Ava, ...] = avas
        self._norm = tuple(sorted(a.normalized() for a in avas))

    @classmethod
    def parse(cls, text: str) -> "Rdn":
        text = text.strip()
        if not text:
            raise InvalidDnError("empty RDN component")
        avas = []
        for part in _split_unescaped(text, "+"):
            halves = _split_unescaped(part, "=")
            if len(halves) != 2:
                raise InvalidDnError(f"malformed RDN component {part!r}")
            attr = _unescape(halves[0]).strip()
            value = _unescape(halves[1]).strip()
            if not attr or not value:
                raise InvalidDnError(f"empty attribute or value in {part!r}")
            avas.append(Ava(attr, value))
        return cls(avas)

    @classmethod
    def single(cls, attribute: str, value: str) -> "Rdn":
        return cls([Ava(attribute, value)])

    @property
    def attribute(self) -> str:
        """Attribute name of the first AVA (the common single-AVA case)."""
        return self.avas[0].attribute

    @property
    def value(self) -> str:
        """Value of the first AVA (the common single-AVA case)."""
        return self.avas[0].value

    def items(self) -> Iterator[tuple[str, str]]:
        for ava in self.avas:
            yield ava.attribute, ava.value

    def normalized(self) -> tuple:
        return self._norm

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rdn) and self._norm == other._norm

    def __hash__(self) -> int:
        return hash(self._norm)

    def __str__(self) -> str:
        return "+".join(str(a) for a in self.avas)

    def __repr__(self) -> str:
        return f"Rdn({str(self)!r})"


class DN:
    """A Distinguished Name: a path of RDNs from leaf to root.

    ``DN.parse("cn=John Doe, o=Marketing, o=Lucent")`` names the entry
    whose RDN is ``cn=John Doe`` under ``o=Marketing, o=Lucent``.  The
    empty DN (``DN.root()``) denotes the conceptual root above all
    suffixes.
    """

    __slots__ = ("rdns", "_norm", "_text")

    def __init__(self, rdns: Sequence[Rdn] = ()):
        self.rdns: tuple[Rdn, ...] = tuple(rdns)
        self._norm = tuple(r.normalized() for r in self.rdns)
        #: The string form, escaped once on first use (a DN is immutable).
        self._text: str | None = None

    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse *text*.  A DN is immutable, so repeated strings are
        served from a bounded process-wide memo (:func:`_parse_memo`);
        subclasses always parse afresh."""
        if cls is DN:
            return _parse_memo(text)
        return cls._parse(text)

    @classmethod
    def _parse(cls, text: str) -> "DN":
        text = text.strip()
        if not text:
            return cls(())
        return cls([Rdn.parse(part) for part in _split_unescaped(text, ",")])

    @classmethod
    def root(cls) -> "DN":
        return cls(())

    @property
    def rdn(self) -> Rdn:
        if not self.rdns:
            raise InvalidDnError("root DN has no RDN")
        return self.rdns[0]

    def parent(self) -> "DN":
        if not self.rdns:
            raise InvalidDnError("root DN has no parent")
        return DN(self.rdns[1:])

    def child(self, rdn: Rdn | str) -> "DN":
        if isinstance(rdn, str):
            rdn = Rdn.parse(rdn)
        return DN((rdn,) + self.rdns)

    def is_root(self) -> bool:
        return not self.rdns

    def is_descendant_of(self, ancestor: "DN") -> bool:
        """True when *self* lies strictly below *ancestor*."""
        alen = len(ancestor.rdns)
        if len(self.rdns) <= alen:
            return False
        return self._norm[len(self._norm) - alen:] == ancestor._norm

    def is_under(self, base: "DN") -> bool:
        """True when *self* equals *base* or lies below it."""
        return self == base or self.is_descendant_of(base)

    def depth_below(self, base: "DN") -> int:
        if not self.is_under(base):
            raise ValueError(f"{self} is not under {base}")
        return len(self.rdns) - len(base.rdns)

    def normalized(self) -> tuple:
        return self._norm

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DN) and self._norm == other._norm

    def __hash__(self) -> int:
        return hash(self._norm)

    def __len__(self) -> int:
        return len(self.rdns)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = ",".join(str(r) for r in self.rdns)
        return text

    def __repr__(self) -> str:
        return f"DN({str(self)!r})"


#: Distinct DN strings :meth:`DN.parse` remembers.  One update parses its
#: entry's DN about five times (gateway, trigger, intake, filters); the
#: memo serves all but the first.  1024 parsed three-RDN DNs hold about
#: 1.7 MB (tracemalloc).
PARSE_MEMO_SIZE = 1024


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_memo(text: str) -> DN:
    # lru_cache keeps no exceptions: invalid text raises on every call.
    return DN._parse(text)
