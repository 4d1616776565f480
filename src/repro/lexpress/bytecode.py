"""Machine-independent byte code for lexpress.

The paper (section 4.2): "The components of lexpress are a declarative
language for specifying the relationship between two schemas, a compiler
that generates machine-independent byte code from the declarative
language, and an interpreter for executing the byte codes."

The machine is a small stack VM.  Runtime values are ``None`` (null),
``str``, ``bool`` or ``list[str]`` (multi-valued results).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Any

from .ast import Span


class Op(enum.Enum):
    PUSH = "push"            # arg: const index
    LOAD_ATTR = "load_attr"  # arg: const index of attribute name -> first value
    LOAD_ALL = "load_all"    # arg: const index of attribute name -> list of values
    LOAD_GROUP = "load_group"  # arg: capture-group number
    LOAD_VALUE = "load_value"  # the `each` element variable
    CALL = "call"            # arg: (const index of function name, argc)
    MATCH_RE = "match_re"    # arg: const index of compiled regex; pops subject,
    #                          pushes bool, stores groups on success
    MATCH_LIT = "match_lit"  # arg: const index of literal; pops subject, pushes bool
    EACH_APPLY = "each_apply"  # arg: const index of body CodeObject; pops list,
    #                            pushes list of mapped values
    TABLE_CONST = "table_const"  # arg: const index of (dict, default); pops the
    #                              subject, pushes the interned table's value
    #                              (MATCH_LIT group semantics on a hit)
    DUP = "dup"
    POP = "pop"
    IS_NULL = "is_null"
    EQ = "eq"
    NEQ = "neq"
    NOT = "not"
    JUMP = "jump"                    # arg: absolute target
    JUMP_IF_FALSE = "jump_if_false"  # pops condition
    JUMP_IF_TRUE = "jump_if_true"    # pops condition
    RETURN = "return"


@dataclass(frozen=True)
class Instruction:
    op: Op
    arg: Any = None

    def __str__(self) -> str:
        return f"{self.op.name} {self.arg}" if self.arg is not None else self.op.name


@dataclass
class CodeObject:
    """A compiled expression: instructions plus a constant pool.

    ``deps`` is the set of (lower-cased) source attribute names the
    expression reads — the raw material for dependency propagation and
    transitive-closure analysis.  ``spans`` runs parallel to
    ``instructions``: the source position of the expression each
    instruction was emitted for (None when unknown), which is how static
    analysis maps a byte-code finding back to a source line.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    consts: list[Any] = field(default_factory=list)
    deps: frozenset[str] = frozenset()
    spans: list[Span | None] = field(default_factory=list)
    #: Span of the whole expression (the rule's right-hand side).
    span: Span | None = None
    #: Set by the compiler while emitting; recorded per instruction.
    current_span: Span | None = None
    #: Lazily computed caches (fingerprint, lowered attribute-name consts);
    #: invalidated whenever the instruction stream or pool changes.
    _fingerprint: str | None = field(default=None, repr=False, compare=False)
    _attr_keys: list | None = field(default=None, repr=False, compare=False)

    def const(self, value: Any) -> int:
        """Intern *value* in the constant pool, returning its index."""
        for i, existing in enumerate(self.consts):
            if type(existing) is type(value) and existing == value:
                return i
        self.consts.append(value)
        self._fingerprint = None
        self._attr_keys = None
        return len(self.consts) - 1

    def emit(self, op: Op, arg: Any = None) -> int:
        """Append an instruction; returns its index (for jump patching)."""
        self.instructions.append(Instruction(op, arg))
        self.spans.append(self.current_span)
        self._fingerprint = None
        return len(self.instructions) - 1

    def patch(self, index: int, arg: Any) -> None:
        self.instructions[index] = Instruction(self.instructions[index].op, arg)
        self._fingerprint = None

    def attr_keys(self) -> list:
        """Constant pool with string entries pre-lowered.

        LOAD_ATTR / LOAD_ALL resolve attribute names case-insensitively;
        lowering the name on every executed instruction was measurable on
        the E7 hot path, so the lowered spellings are computed once per
        code object and indexed exactly like ``consts``."""
        keys = self._attr_keys
        if keys is None or len(keys) != len(self.consts):
            keys = [
                c.lower() if isinstance(c, str) else None for c in self.consts
            ]
            self._attr_keys = keys
        return keys

    def fingerprint(self) -> str:
        """Stable 64-bit content checksum of the instruction stream and
        constant pool, as 16 hex digits: CRC-32 then Adler-32 of the same
        canonical bytes (``zlib``, so no hash library is loaded).

        A label, not a key — nothing is cached or looked up by it.  A
        lowered closure carries it
        (:class:`~repro.lexpress.codegen.CompiledClosure`) to name the
        code it was built from, and each bound runner reports its prefix
        in ``lexpress.compiled`` events (:func:`~repro.lexpress.codegen.bind`)."""
        cached = self._fingerprint
        if cached is not None:
            return cached
        parts = [f"{ins};" for ins in self.instructions]
        parts.extend(f"{_const_key(const)};" for const in self.consts)
        data = "".join(parts).encode()
        cached = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
        self._fingerprint = cached
        return cached

    def span_at(self, index: int) -> Span | None:
        """Source span of instruction *index* (falls back to the code span)."""
        if 0 <= index < len(self.spans) and self.spans[index] is not None:
            return self.spans[index]
        return self.span

    def disassemble(self) -> str:
        lines = [f"code {self.name!r} (deps: {', '.join(sorted(self.deps)) or '-'})"]
        if self.consts:
            lines.append("  consts:")
            for i, const in enumerate(self.consts):
                lines.append(f"    [{i:2d}] {_render_const(const)}")
        for i, ins in enumerate(self.instructions):
            span = self.spans[i] if i < len(self.spans) else None
            where = f"  ; {span}" if span is not None else ""
            lines.append(f"  {i:4d}  {ins}{where}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)


def _render_const(const: Any) -> str:
    """One constant-pool entry for :meth:`CodeObject.disassemble`."""
    if isinstance(const, CodeObject):
        body = const.disassemble().replace("\n", "\n    ")
        return f"<code {const.name!r}>\n    {body}"
    if hasattr(const, "pattern"):  # compiled regex
        return f"/{const.pattern}/"
    if isinstance(const, tuple) and len(const) == 2 and isinstance(const[0], dict):
        entries = ", ".join(f"{k!r}: {v!r}" for k, v in const[0].items())
        return f"<table {{{entries}}} default={const[1]!r}>"
    return repr(const)


def _const_key(const: Any) -> str:
    """Canonical string form of one constant, for :meth:`fingerprint`."""
    if isinstance(const, CodeObject):
        return f"code:{const.fingerprint()}"
    if hasattr(const, "pattern"):  # compiled regex
        return f"re:{const.pattern}"
    if isinstance(const, tuple) and len(const) == 2 and isinstance(const[0], dict):
        entries = ",".join(f"{k!r}:{v!r}" for k, v in sorted(const[0].items()))
        return f"table:{{{entries}}}:{const[1]!r}"
    return f"{type(const).__name__}:{const!r}"
