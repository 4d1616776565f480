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
from .bytecode import CodeObject, Op
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
        #: ``(attribute, constants)`` when an :class:`OwnerIndex` may
        #: answer this predicate (:func:`prefix_disjunction`); None when
        #: it must run — any other shape, or a verify-mode binding, whose
        #: point is to run both engines.
        self.prefixes = None if self.run.verifies else prefix_disjunction(code)

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

    prefixes = None

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


#: Symbolic steps :func:`prefix_disjunction` takes before it gives up.
_SHAPE_BUDGET = 4096


def prefix_disjunction(code: CodeObject) -> tuple[str, frozenset[str]] | None:
    """``(attribute, constants)`` when *code* computes
    ``prefix(A, "c1") or ... or prefix(A, "cn")`` over one attribute
    ``A`` (lower case), else None.

    The shape is read from the byte code, by symbolic execution: each
    ``prefix`` call is an unknown boolean, a conditional jump on one forks
    the path under both answers, and every path must return true only when
    some call on it was assumed true, and false only when every call in
    the code was assumed false.  Any other instruction, operand or
    function refuses."""
    consts = code.consts
    attribute: str | None = None
    called: set[str] = set()
    outcomes: list[tuple[dict[str, bool], bool]] = []
    paths: list[tuple[int, list, dict[str, bool]]] = [(0, [], {})]
    steps = 0
    while paths:
        pc, stack, assumed = paths.pop()
        while True:
            steps += 1
            if steps > _SHAPE_BUDGET or not 0 <= pc < len(code.instructions):
                return None
            ins = code.instructions[pc]
            pc += 1
            if ins.op is Op.LOAD_ATTR:
                name = consts[ins.arg]
                if not isinstance(name, str) or attribute not in (None, name.lower()):
                    return None
                attribute = name.lower()
                stack.append(("attr", None))
            elif ins.op is Op.PUSH:
                value = consts[ins.arg]
                if isinstance(value, bool):
                    stack.append(("bool", value))
                elif isinstance(value, str):
                    stack.append(("str", value))
                else:
                    return None
            elif ins.op is Op.CALL:
                name_index, argc = ins.arg
                if consts[name_index] != "prefix" or argc != 2 or len(stack) < 2:
                    return None
                subject, constant = stack.pop(-2), stack.pop()
                if subject[0] != "attr" or constant[0] != "str":
                    return None
                called.add(constant[1])
                stack.append(("call", constant[1]))
            elif ins.op is Op.JUMP:
                pc = ins.arg
            elif ins.op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE, Op.RETURN):
                if not stack:
                    return None
                kind, value = stack.pop()
                if kind == "call" and value not in assumed:
                    # Fork: the other answer continues as a path of its own.
                    paths.append(
                        (pc - 1, [*stack, (kind, value)], {**assumed, value: False})
                    )
                    assumed = {**assumed, value: True}
                if kind == "call":
                    value = assumed[value]
                elif kind != "bool":
                    return None
                if ins.op is Op.RETURN:
                    outcomes.append((assumed, value))
                    break
                if value is (ins.op is Op.JUMP_IF_TRUE):
                    pc = ins.arg
            else:
                return None
    if attribute is None or not called:
        return None
    for assumed, result in outcomes:
        if result != any(assumed.values()):
            return None
        if not result and not called <= assumed.keys():
            return None
    return attribute, frozenset(called)


class OwnerIndex:
    """Which of several instance partitions an image satisfies, found by
    one lookup instead of one predicate per instance.

    It applies when every partition is a :func:`prefix_disjunction` over
    one attribute and no constant of one instance is a prefix of another
    instance's (:func:`~repro.devices.pbx.definity.partition_expression`
    emits that shape for a fleet of disjoint dial plans): at most one
    instance then owns any value, and the owner is found by probing the
    value's prefixes of each constant length.  :meth:`build` refuses
    anything else, and the caller runs the predicates."""

    __slots__ = ("attribute", "_owners", "_lengths", "_size")

    def __init__(self, attribute: str, owners: dict[str, int], size: int):
        #: The one attribute (lower case) every partition tests.
        self.attribute = attribute
        self._owners = owners
        self._lengths = sorted({len(c) for c in owners})
        self._size = size

    @classmethod
    def build(
        cls, partitions: Sequence[PartitionConstraint | None]
    ) -> "OwnerIndex | None":
        attribute: str | None = None
        owners: dict[str, int] = {}
        for position, partition in enumerate(partitions):
            shape = partition.prefixes if partition is not None else None
            if shape is None or attribute not in (None, shape[0]):
                return None
            attribute = shape[0]
            for constant in shape[1]:
                if owners.setdefault(constant, position) != position:
                    return None
        for constant, position in owners.items():
            for n in range(len(constant)):
                if owners.get(constant[:n], position) != position:
                    return None  # nested across instances
        if attribute is None:
            return None
        return cls(attribute, owners, len(partitions))

    def owners(self, low: Mapping[str, Sequence[str]] | None) -> list[bool]:
        """``[p.satisfied_by(low, canonical=True) for p in partitions]``
        for a lower-keyed image *low*, by one lookup."""
        owner = None
        values = low.get(self.attribute) if low is not None else None
        if values:
            value = str(values[0])
            for n in self._lengths:
                if n > len(value):
                    break
                owner = self._owners.get(value[:n])
                if owner is not None:
                    break
        return [position == owner for position in range(self._size)]

    def describe(self) -> str:
        return f"prefix({self.attribute})"
