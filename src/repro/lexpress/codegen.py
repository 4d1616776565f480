"""Closure code generation: lexpress byte code → plain Python functions.

The interpreter (:mod:`repro.lexpress.interpreter`) pays per-instruction
dispatch on every rule evaluation; at millions of updates that loop is
the hottest code in the system.  This module lowers a verified
:class:`~repro.lexpress.bytecode.CodeObject` into one synthesized Python
function (``exec``-compiled), so CPython's own eval loop runs the rule
with no dispatch of ours on top:

* the instruction stream is split into basic blocks (leaders: entry,
  jump targets, fall-throughs of jumps and returns);
* inside a block the VM stack is *symbolic* — every operand is a local
  temp variable or an inlined literal, so straight-line runs of byte code
  become straight-line Python with no list traffic at all;
* only values that survive across block boundaries touch a real ``stack``
  list, and a single-block body (the common case after the compiler's
  constant folding and table interning) compiles to pure straight-line
  code with no loop, no dispatch and no stack;
* attribute names are inlined pre-lowered, regexes, interned tables and
  ``each`` bodies are bound once as function globals.

Safety: closures are only produced for code that passes the lexcheck
byte-code verifier (:func:`repro.analysis.verifier.verify_code`) with no
errors — the same gate that makes programmatically built code safe to
interpret makes it safe to lower.  Rejected or uncompilable code falls
back to the interpreter silently.  ``lexpress_mode="verify"`` runs both
engines and raises :class:`~repro.lexpress.errors.LexpressDivergenceError`
(with the rule's source span) on any disagreement.

:func:`bind` resolves the mode once per code object, when a mapping or
partition is built: the :class:`Runner` it returns holds its closure (or
none) and evaluates with no lock and no lookup.  Recompiling a
description builds new runners.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..obs.metrics import global_registry
from .bytecode import CodeObject, Op
from .errors import (
    LexpressDivergenceError,
    LexpressRuntimeError,
)
from .functions import lookup
from .interpreter import _equal, execute, lower_attrs, truthy

Value = Any  # None | str | bool | list[str]

#: The three values of ``MetaCommConfig.lexpress_mode``.
MODES = ("interpret", "compiled", "verify")

_registry = global_registry()
_COMPILES = _registry.counter(
    "metacomm_lexpress_compiles_total",
    "Byte-code objects lowered to Python closures",
)
_COMPILE_SECONDS = _registry.counter(
    "metacomm_lexpress_compile_seconds_total",
    "Wall-clock seconds spent lowering byte code to closures",
)
_FALLBACKS = _registry.counter(
    "metacomm_lexpress_fallbacks_total",
    "Code objects the verifier gate (or codegen) rejected; served "
    "by the interpreter instead",
)
_DIVERGENCES = _registry.counter(
    "metacomm_lexpress_divergences_total",
    "verify-mode evaluations where the closure disagreed with the "
    "interpreter",
)


# ---------------------------------------------------------------------------
# Closure runtime
# ---------------------------------------------------------------------------


class _CFrame:
    """Per-evaluation state a closure threads through its helpers."""

    __slots__ = ("groups", "value")

    def __init__(self):
        self.groups: Sequence[str | None] = ()
        self.value: Value = None


class _Miss:
    """Sentinel distinguishing a table miss from a stored None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<miss>"


_MISS = _Miss()


def _each_apply(
    body: Callable[[Mapping[str, Sequence[str]], _CFrame], Value],
    values: Value,
    attrs: Mapping[str, Sequence[str]],
) -> list[str]:
    """Runtime mirror of the interpreter's EACH_APPLY normalization."""
    if values is None:
        values = []
    elif not isinstance(values, list):
        values = [values]
    out: list[str] = []
    frame = _CFrame()
    for element in values:
        frame.groups = ()
        frame.value = str(element)
        result = body(attrs, frame)
        if result is None:
            continue
        if isinstance(result, list):
            out.extend(str(r) for r in result)
        elif isinstance(result, bool):
            out.append("true" if result else "false")
        else:
            out.append(str(result))
    return out


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


_JUMPS = (Op.JUMP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE)


@dataclass(frozen=True)
class CompiledClosure:
    """A byte-code object lowered to one Python function.

    ``fn(attrs, frame)`` expects *canonical* (lower-keyed) attrs and a
    :class:`_CFrame`; it returns the same value domain as
    :func:`~repro.lexpress.interpreter.execute`.  ``source`` is the
    synthesized Python text, kept for inspection and tests."""

    name: str
    fn: Callable[[Mapping[str, Sequence[str]], _CFrame], Value]
    source: str
    fingerprint: str


class _ClosureEmitter:
    """Lowers one CodeObject; see the module docstring for the scheme."""

    def __init__(self, code: CodeObject):
        self.code = code
        self.globals: dict[str, Any] = {
            "_F": lookup,
            "_tr": truthy,
            "_eq": _equal,
            "_each": _each_apply,
            "_RTErr": LexpressRuntimeError,
            "_MISS": _MISS,
        }
        self.counter = 0
        self.lines: list[str] = []
        self.indent = 1
        self.sym: list[str] = []
        #: Temps provably bool: their truthiness tests skip _tr().
        self.bools: set[str] = set()

    # -- small helpers ------------------------------------------------------

    def _temp(self) -> str:
        self.counter += 1
        return f"_t{self.counter}"

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _pop(self) -> str:
        self._need(1)
        return self.sym.pop()

    def _need(self, depth: int) -> None:
        """Materialize runtime-stack values the block inherited."""
        while len(self.sym) < depth:
            temp = self._temp()
            self._line(f"{temp} = stack.pop()")
            self.sym.insert(0, temp)

    def _flush(self) -> None:
        for entry in self.sym:
            self._line(f"stack.append({entry})")
        self.sym.clear()

    def _truth(self, expr: str) -> str:
        if expr in self.bools or expr in ("True", "False"):
            return expr
        return f"_tr({expr})"

    def _bind(self, prefix: str, index: int, value: Any) -> str:
        name = f"{prefix}{index}"
        self.globals[name] = value
        return name

    # -- driver -------------------------------------------------------------

    def emit(self) -> tuple[str, dict[str, Any]]:
        instructions = self.code.instructions
        if not instructions:
            raise LexpressRuntimeError(
                f"cannot lower empty code object {self.code.name!r}"
            )
        leaders = {0}
        for pc, ins in enumerate(instructions):
            if ins.op in _JUMPS:
                leaders.add(ins.arg)
                leaders.add(pc + 1)
            elif ins.op is Op.RETURN:
                leaders.add(pc + 1)
        leaders.discard(len(instructions))
        blocks = sorted(leaders)

        self.lines.append("def _closure(attrs, frame):")
        if blocks == [0]:
            self._emit_block(0, len(instructions), single=True)
        else:
            self._line("stack = []")
            self._line("_b = 0")
            self._line("while True:")
            self.indent += 1
            for i, start in enumerate(blocks):
                end = blocks[i + 1] if i + 1 < len(blocks) else len(instructions)
                keyword = "if" if i == 0 else "elif"
                self._line(f"{keyword} _b == {start}:")
                self.indent += 1
                self._emit_block(start, end, single=False)
                self.indent -= 1
            self.indent -= 1
        return "\n".join(self.lines), self.globals

    def _emit_block(self, start: int, end: int, single: bool) -> None:
        self.sym.clear()
        self.bools.clear()
        instructions = self.code.instructions
        consts = self.code.consts
        attr_keys = self.code.attr_keys()
        pc = start
        while pc < end:
            ins = instructions[pc]
            op = ins.op
            pc += 1
            if op is Op.PUSH:
                const = consts[ins.arg]
                if const is None or isinstance(const, (str, bool)):
                    self.sym.append(repr(const))
                    if isinstance(const, bool):
                        self.bools.add(repr(const))
                else:  # programmatic code can push anything
                    self.sym.append(self._bind("_K", ins.arg, const))
            elif op is Op.LOAD_ATTR:
                temp = self._temp()
                self._line(f"{temp} = attrs.get({attr_keys[ins.arg]!r})")
                self._line(f"{temp} = str({temp}[0]) if {temp} else None")
                self.sym.append(temp)
            elif op is Op.LOAD_ALL:
                temp = self._temp()
                self._line(
                    f"{temp} = [str(_v) for _v in "
                    f"attrs.get({attr_keys[ins.arg]!r}, ())]"
                )
                self.sym.append(temp)
            elif op is Op.LOAD_GROUP:
                temp = self._temp()
                index = ins.arg
                self._line(
                    f"{temp} = frame.groups[{index}] "
                    f"if {index} < len(frame.groups) else None"
                )
                self.sym.append(temp)
            elif op is Op.LOAD_VALUE:
                temp = self._temp()
                self._line(f"{temp} = frame.value")
                self.sym.append(temp)
            elif op is Op.CALL:
                name_idx, argc = ins.arg
                fn_name = consts[name_idx]
                self._need(argc)
                args = self.sym[len(self.sym) - argc:] if argc else []
                del self.sym[len(self.sym) - argc:]
                temp = self._temp()
                self._line("try:")
                self._line(f"    {temp} = _F({fn_name!r})({', '.join(args)})")
                self._line("except TypeError as _e:")
                self._line(
                    f"    raise _RTErr(f{fn_name + ': {_e}'!r}) from None"
                )
                self.sym.append(temp)
            elif op is Op.MATCH_RE:
                subject = self._pop()
                regex = self._bind("_R", ins.arg, consts[ins.arg])
                temp, match = self._temp(), self._temp()
                self._line(f"if {subject} is None:")
                self._line(f"    {temp} = False")
                self._line("else:")
                self._line(f"    {match} = {regex}.search(str({subject}))")
                self._line(f"    if {match} is None:")
                self._line(f"        {temp} = False")
                self._line("    else:")
                self._line(
                    f"        frame.groups = "
                    f"[{match}.group(0), *{match}.groups()]"
                )
                self._line(f"        {temp} = True")
                self.sym.append(temp)
                self.bools.add(temp)
            elif op is Op.MATCH_LIT:
                subject = self._pop()
                text, temp = self._temp(), self._temp()
                self._line(
                    f"{text} = None if {subject} is None else str({subject})"
                )
                self._line(f"{temp} = {text} == {consts[ins.arg]!r}")
                self._line(f"if {temp}:")
                self._line(f"    frame.groups = [{text}]")
                self.sym.append(temp)
                self.bools.add(temp)
            elif op is Op.TABLE_CONST:
                subject = self._pop()
                table, default = consts[ins.arg]
                table_g = self._bind("_T", ins.arg, table)
                default_g = self._bind("_D", ins.arg, default)
                text, temp = self._temp(), self._temp()
                self._line(f"if {subject} is None:")
                self._line(f"    {temp} = {default_g}")
                self._line("else:")
                self._line(f"    {text} = str({subject})")
                self._line(f"    {temp} = {table_g}.get({text}, _MISS)")
                self._line(f"    if {temp} is _MISS:")
                self._line(f"        {temp} = {default_g}")
                self._line("    else:")
                self._line(f"        frame.groups = [{text}]")
                self.sym.append(temp)
            elif op is Op.EACH_APPLY:
                subject = self._pop()
                body = compile_closure(consts[ins.arg])
                body_g = self._bind("_B", ins.arg, body.fn)
                temp = self._temp()
                self._line(f"{temp} = _each({body_g}, {subject}, attrs)")
                self.sym.append(temp)
            elif op is Op.DUP:
                self._need(1)
                self.sym.append(self.sym[-1])
            elif op is Op.POP:
                self._pop()
            elif op is Op.IS_NULL:
                operand = self._pop()
                temp = self._temp()
                self._line(f"{temp} = {operand} is None")
                self.sym.append(temp)
                self.bools.add(temp)
            elif op in (Op.EQ, Op.NEQ):
                self._need(2)
                right, left = self.sym.pop(), self.sym.pop()
                temp = self._temp()
                negate = "not " if op is Op.NEQ else ""
                self._line(f"{temp} = {negate}_eq({left}, {right})")
                self.sym.append(temp)
                self.bools.add(temp)
            elif op is Op.NOT:
                operand = self._pop()
                temp = self._temp()
                self._line(f"{temp} = not {self._truth(operand)}")
                self.sym.append(temp)
                self.bools.add(temp)
            elif op is Op.JUMP:
                self._flush()
                self._line(f"_b = {ins.arg}")
                self._line("continue")
                return
            elif op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE):
                condition = self._pop()
                self._flush()
                negate = "not " if op is Op.JUMP_IF_FALSE else ""
                self._line(f"if {negate}{self._truth(condition)}:")
                self._line(f"    _b = {ins.arg}")
                self._line("    continue")
                self._line(f"_b = {pc}")
                self._line("continue")
                return
            elif op is Op.RETURN:
                if self.sym:
                    self._line(f"return {self.sym.pop()}")
                elif single:
                    self._line("return None")
                else:
                    self._line("return stack.pop() if stack else None")
                return
            else:  # pragma: no cover - verifier gate rejects unknown ops
                raise LexpressRuntimeError(f"cannot lower opcode {op}")
        # Fell through to the next leader.
        self._flush()
        self._line(f"_b = {end}")
        self._line("continue")


def compile_closure(code: CodeObject, name: str | None = None) -> CompiledClosure:
    """Lower one (verified) code object to a Python closure.

    Raises :class:`LexpressRuntimeError` for code that cannot be lowered
    (empty sentinels, unknown opcodes).  Callers wanting the safety gate
    go through :func:`bind`, which verifies first and falls back to the
    interpreter on rejection."""
    emitter = _ClosureEmitter(code)
    source, namespace = emitter.emit()
    label = name or code.name or "<lexpress>"
    compiled = compile(source, f"<lexpress-codegen:{label}>", "exec")
    exec(compiled, namespace)
    return CompiledClosure(
        name=label,
        fn=namespace["_closure"],
        source=source,
        fingerprint=code.fingerprint(),
    )


def verified_compile(
    code: CodeObject, mapping: str = "", attribute: str | None = None
) -> CompiledClosure | None:
    """Run the lexcheck verifier gate, then lower; None when rejected.

    Only ``Severity.ERROR`` diagnostics block lowering — warnings (dead
    arms, degenerate calls) are lint findings, not soundness holes."""
    # Deferred import: repro.analysis imports repro.lexpress at top level.
    from ..analysis.diagnostics import Severity
    from ..analysis.verifier import verify_code

    diagnostics = verify_code(code, mapping, attribute)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return None
    try:
        return compile_closure(code, name=f"{mapping}.{attribute or code.name}")
    except LexpressRuntimeError:
        return None


# ---------------------------------------------------------------------------
# Engine binding
# ---------------------------------------------------------------------------

_TLS = threading.local()


def _frame() -> _CFrame:
    frame = getattr(_TLS, "frame", None)
    if frame is None:
        frame = _TLS.frame = _CFrame()
    return frame


class Runner:
    """One code object bound to its engine; see :func:`bind`.

    ``runner(attrs, value=None, canonical=False)`` evaluates the rule
    with the same result domain as
    :func:`~repro.lexpress.interpreter.execute`.  ``status`` records what
    binding did: ``"compiled"``, ``"rejected"`` (the verifier gate refused
    the code, so the interpreter serves it) or None (interpret mode, no
    compile attempted); ``seconds`` is what the gate and lowering cost and
    ``fingerprint`` the code's :meth:`CodeObject.fingerprint` prefix."""

    __slots__ = (
        "code", "closure", "mapping", "attribute", "status", "seconds",
        "fingerprint",
    )

    #: Does every evaluation cross-check two engines?  Such a runner must
    #: run: answering its question another way would skip the check.
    verifies = False

    def __init__(
        self,
        code: CodeObject,
        mapping: str,
        attribute: str,
        closure: CompiledClosure | None = None,
        status: str | None = None,
        seconds: float = 0.0,
    ):
        self.code = code
        self.closure = closure
        self.mapping = mapping
        self.attribute = attribute
        self.status = status
        self.seconds = seconds
        self.fingerprint = code.fingerprint()[:12]

    def __call__(
        self,
        attrs: Mapping[str, Sequence[str]],
        value: Value = None,
        canonical: bool = False,
    ) -> Value:
        return execute(self.code, attrs, value, canonical=canonical)


class _CompiledRunner(Runner):
    __slots__ = ()

    def __call__(self, attrs, value=None, canonical=False):
        if not canonical:
            attrs = lower_attrs(attrs)
        frame = _frame()
        frame.groups = ()
        frame.value = value
        return self.closure.fn(attrs, frame)


class _VerifyRunner(_CompiledRunner):
    """Runs both engines; the interpreter is the oracle."""

    __slots__ = ()
    verifies = True

    def __call__(self, attrs, value=None, canonical=False):
        if not canonical:
            attrs = lower_attrs(attrs)
        interpreted = execute(self.code, attrs, value, canonical=True)
        compiled = _CompiledRunner.__call__(self, attrs, value, True)
        if interpreted != compiled or type(interpreted) is not type(compiled):
            _DIVERGENCES.inc()
            raise LexpressDivergenceError(
                self.mapping,
                self.attribute,
                interpreted,
                compiled,
                span=self.code.span,
            )
        return interpreted


def bind(code: CodeObject, mode: str, *, mapping: str, attribute: str) -> Runner:
    """Bind *code* to the engine *mode* names, once, at build time.

    "interpret" runs the byte-code interpreter; "compiled" runs the
    verified closure, or the interpreter when the verifier gate rejects
    the code; "verify" runs both and raises
    :class:`LexpressDivergenceError` on any disagreement."""
    if mode not in MODES:
        raise ValueError(
            f"unknown lexpress_mode {mode!r} (expected one of {', '.join(MODES)})"
        )
    if mode == "interpret":
        return Runner(code, mapping, attribute)
    started = time.perf_counter()
    closure = verified_compile(code, mapping, attribute)
    seconds = time.perf_counter() - started
    _COMPILE_SECONDS.inc(seconds)
    if closure is None:
        _FALLBACKS.inc()
        return Runner(code, mapping, attribute, status="rejected", seconds=seconds)
    _COMPILES.inc()
    kind = _CompiledRunner if mode == "compiled" else _VerifyRunner
    return kind(code, mapping, attribute, closure, "compiled", seconds)
