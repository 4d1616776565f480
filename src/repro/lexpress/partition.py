"""Partitioning constraints and update routing.

Paper section 4.2: "when a particular PBX accepts updates for phone
numbers beginning with '+1 908-582-9', lexpress checks the old phone
number for the object to determine that the object was stored in the PBX
and the new attributes for the object to determine that the object is
still stored in the PBX.  Depending on the combination of constraint
satisfaction by the old and new attributes, different operations are done
on the target directory."

The decision matrix implemented by :func:`route`:

==========  ==========  =================
old image   new image   action at target
==========  ==========  =================
violates    satisfies   ADD    (migrated in)
satisfies   satisfies   MODIFY
satisfies   violates    DELETE (migrated out)
violates    violates    SKIP   (never ours)
==========  ==========  =================
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .ast import Expr
from .bytecode import CodeObject
from .codegen import bind
from .compiler import compile_expr
from .descriptor import TargetAction
from .interpreter import truthy
from .lexer import tokenize
from .parser import Parser


def route(old_satisfies: bool, new_satisfies: bool) -> TargetAction:
    """The section-4.2 routing matrix."""
    if new_satisfies:
        return TargetAction.MODIFY if old_satisfies else TargetAction.ADD
    if old_satisfies:
        return TargetAction.DELETE
    return TargetAction.SKIP


class PartitionConstraint:
    """A compiled predicate over a target-schema attribute image.

    *mode* binds the predicate's engine once, exactly as for mapping rules
    (:func:`~repro.lexpress.codegen.bind`): the interpreter by default,
    the compiled-closure tier under ``"compiled"``, both with a
    divergence check under ``"verify"``."""

    def __init__(
        self, code: CodeObject, source: str = "", mode: str = "interpret"
    ):
        self.code = code
        self.source = source
        self.run = bind(code, mode, mapping="partition", attribute=code.name)

    @classmethod
    def compile(
        cls, expression: str, mode: str = "interpret"
    ) -> "PartitionConstraint":
        """Compile a lexpress expression, e.g.
        ``prefix(Extension, "41")`` or
        ``prefix(telephoneNumber, "+1 908 582 9") and present(cn)``."""
        parser = Parser(tokenize(expression))
        expr = parser.parse_expr()
        from .lexer import TokenType

        if parser.peek().type is not TokenType.EOF:
            raise parser.error("trailing input after partition expression")
        return cls(compile_expr(expr, f"partition:{expression}"), expression, mode)

    @classmethod
    def from_expr(
        cls, expr: Expr, name: str = "partition", mode: str = "interpret"
    ) -> "PartitionConstraint":
        return cls(compile_expr(expr, name), mode=mode)

    @property
    def deps(self) -> frozenset[str]:
        return self.code.deps

    def satisfied_by(
        self,
        attrs: Mapping[str, Sequence[str]] | None,
        *,
        canonical: bool = False,
    ) -> bool:
        """Evaluate against an attribute image; a missing image never
        satisfies (the object does not exist on that side)."""
        if attrs is None:
            return False
        return truthy(self.run(attrs, canonical=canonical))

    def __repr__(self) -> str:
        return f"PartitionConstraint({self.source or self.code.name!r})"


class AlwaysTrue(PartitionConstraint):
    """Degenerate constraint for unpartitioned targets: any existing image
    satisfies it, so the routing matrix reduces to the descriptor's own
    operation kind.  It has no runner: there is nothing to evaluate."""

    def __init__(self) -> None:  # no code object needed
        self.code = CodeObject("partition:always")
        self.source = "true"

    @property
    def deps(self) -> frozenset[str]:
        return frozenset()

    def satisfied_by(
        self,
        attrs: Mapping[str, Sequence[str]] | None,
        *,
        canonical: bool = False,
    ) -> bool:
        return attrs is not None
