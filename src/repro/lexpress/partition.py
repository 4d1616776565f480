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
from .codegen import run_rule
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
    """A compiled predicate over a target-schema attribute image."""

    def __init__(self, code: CodeObject, source: str = ""):
        self.code = code
        self.source = source

    @classmethod
    def compile(cls, expression: str) -> "PartitionConstraint":
        """Compile a lexpress expression, e.g.
        ``prefix(Extension, "41")`` or
        ``prefix(telephoneNumber, "+1 908 582 9") and present(cn)``."""
        parser = Parser(tokenize(expression))
        expr = parser.parse_expr()
        from .lexer import TokenType

        if parser.peek().type is not TokenType.EOF:
            raise parser.error("trailing input after partition expression")
        return cls(compile_expr(expr, f"partition:{expression}"), expression)

    @classmethod
    def from_expr(cls, expr: Expr, name: str = "partition") -> "PartitionConstraint":
        return cls(compile_expr(expr, name))

    @property
    def deps(self) -> frozenset[str]:
        return self.code.deps

    def satisfied_by(
        self,
        attrs: Mapping[str, Sequence[str]] | None,
        *,
        mode: str | None = None,
        mapping: str = "partition",
        canonical: bool = False,
    ) -> bool:
        """Evaluate against an attribute image; a missing image never
        satisfies (the object does not exist on that side).

        *mode* picks the rule engine exactly as for mapping rules (see
        :func:`~repro.lexpress.codegen.run_rule`): the interpreter by
        default, the compiled-closure tier under ``"compiled"``, both with
        a divergence check under ``"verify"``.  Closures are cached under
        ``(mapping, code name)``."""
        if attrs is None:
            return False
        return truthy(
            run_rule(
                self.code,
                attrs,
                mapping=mapping,
                attribute=self.code.name,
                mode=mode,
                canonical=canonical,
            )
        )

    def __repr__(self) -> str:
        return f"PartitionConstraint({self.source or self.code.name!r})"


class AlwaysTrue(PartitionConstraint):
    """Degenerate constraint for unpartitioned targets: any existing image
    satisfies it, so the routing matrix reduces to the descriptor's own
    operation kind."""

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
        mode: str | None = None,
        mapping: str = "partition",
        canonical: bool = False,
    ) -> bool:
        return attrs is not None
