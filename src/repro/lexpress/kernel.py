"""Image kernels: one mapping's rules fused into one Python function.

A compiled rule is its own closure (:mod:`repro.lexpress.codegen`), so
imaging a record rule by rule pays, per rule, a runner call, a frame
reset, the closure call and the result normalization.  An *image kernel*
evaluates the rules of a mapping (all of them, or those producing one
target set) in a single frame and returns the ``(image, image_low)``
pair that :meth:`~repro.lexpress.mapping.CompiledMapping.image` builds
on:

* every rule the verifier gate admitted (its runner holds a closure) is
  lowered again by the closure emitter, straight into the kernel, with
  its temps and bound globals renamed per rule.  A multi-block body
  keeps its block loop, and its ``return`` stores the value and leaves
  the loop.  Capture groups become a per-rule local that starts empty,
  and ``value`` is None, as on a fresh frame;
* a rule the gate rejected is called through its runner (the
  interpreter), so no unverified code is ever ``exec``'d;
* the result normalization (``_as_values``) is inlined, specialized
  where the emitter knows what the returned temp holds;
* the key fallback runs last, as in the per-rule loop.

Rules run in mapping order and raise what their closures raise; the two
dicts share each value list.  A kernel holds no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .bytecode import Op
from .codegen import HELPERS, _ClosureEmitter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mapping import CompiledMapping, CompiledRule

#: ``imager(low)`` → (image, image_low) of a lower-keyed source record.
Imager = Callable[
    [Mapping[str, Sequence[str]]],
    "tuple[dict[str, list[str]], dict[str, list[str]]]",
]


@dataclass(frozen=True)
class ImageKernel:
    """The rules of one mapping producing ``targets`` (None: all of them)
    fused into ``fn``.  ``inlined`` and ``called`` name the rule targets
    lowered into it and those it calls through their runner; ``source``
    is the synthesized text, kept as closures keep theirs."""

    name: str
    targets: frozenset[str] | None
    fn: Imager
    source: str
    inlined: tuple[str, ...]
    called: tuple[str, ...]


class _InlineEmitter(_ClosureEmitter):
    """Lowers one rule's body into the kernel: its names carry the rule's
    tag, and its value is stored into the images instead of returned."""

    value = "None"

    def __init__(
        self, rule: "CompiledRule", tag: str, lines: list[str], names: dict[str, Any]
    ):
        super().__init__(rule.run.code)
        self.rule = rule
        self.tag = tag
        self.stack = f"{tag}s"
        self.cursor = f"{tag}b"
        self.groups = f"{tag}g"
        self.lines = lines
        self.globals = names

    def _emit_body(self) -> None:
        if any(ins.op is Op.LOAD_GROUP for ins in self.code.instructions):
            self._line(f"{self.groups} = ()")
        super()._emit_body()

    def _return(self, expr: str) -> None:
        _store(self._line, self.tag, self.rule, expr, self.kinds.get(expr))
        if self.multi:
            self._line("break")


def _store(
    line: Callable[[str], None],
    tag: str,
    rule: "CompiledRule",
    expr: str,
    kind: str | None,
) -> None:
    """Emit ``_as_values(expr)`` into both images under *rule*'s target,
    specialized by what *expr* is known to hold."""
    into = f"image[{rule.target!r}] = image_low[{rule.target_low!r}] ="
    if expr == "None":
        return
    if expr in ("True", "False"):
        line(f"{into} [{'true' if expr == 'True' else 'false'!r}]")
    elif expr[0] in "'\"":  # a str literal
        line(f"{into} [{expr}]")
    elif kind == "bool":
        line(f"{into} ['true' if {expr} else 'false']")
    elif kind == "str":  # a str or None
        line(f"if {expr} is not None:")
        line(f"    {into} [{expr}]")
    elif kind == "list":  # a fresh list of str
        line(f"if {expr}:")
        line(f"    {into} {expr}")
    else:
        if not expr.isidentifier():
            line(f"{tag}v = {expr}")
            expr = f"{tag}v"
        line(f"if {expr} is not None:")
        line(f"    if {expr}.__class__ is str:")
        line(f"        {into} [{expr}]")
        line("    else:")
        line(f"        {expr} = _AV({expr})")
        line(f"        if {expr} is not None:")
        line(f"            {into} {expr}")


def compile_kernel(
    mapping: "CompiledMapping", targets: frozenset[str] | None = None
) -> ImageKernel:
    """Fuse the rules of *mapping* that produce *targets* (lower-case;
    None means all) into one :class:`ImageKernel`."""
    from .mapping import _as_values

    names: dict[str, Any] = dict(HELPERS, _AV=_as_values)
    lines = ["def _kernel(attrs):", "    image = {}", "    image_low = {}"]

    def line(text: str) -> None:
        lines.append("    " + text)

    inlined: list[str] = []
    called: list[str] = []
    for index, rule in enumerate(mapping.rules):
        if targets is not None and rule.target_low not in targets:
            continue
        tag = f"_{index}"
        if rule.run.closure is not None:
            _InlineEmitter(rule, tag, lines, names)._emit_body()
            inlined.append(rule.target)
        else:
            names[f"{tag}run"] = rule.run
            line(f"{tag}v = {tag}run(attrs, None, True)")
            _store(line, tag, rule, f"{tag}v", None)
            called.append(rule.target)
    key, key_source = mapping._key_target_low, mapping._key_source_low
    if key is not None and key_source is not None:
        line(f"if {key!r} not in image_low:")
        line(f"    _key = attrs.get({key_source!r})")
        line("    if _key:")
        line(
            f"        image[{mapping.key_target!r}] = image_low[{key!r}] = "
            "[str(_key[0])]"
        )
    line("return image, image_low")
    source = "\n".join(lines)
    label = mapping.name
    if targets is not None:
        label += f"[{','.join(sorted(targets))}]"
    exec(compile(source, f"<lexpress-kernel:{label}>", "exec"), names)
    return ImageKernel(
        name=label,
        targets=targets,
        fn=names["_kernel"],
        source=source,
        inlined=tuple(inlined),
        called=tuple(called),
    )
