"""Compiled mappings: the unit of schema translation.

A :class:`CompiledMapping` is one direction of a schema pair ("two
lexpress mappings are specified for each schema pair", section 4.2).  It
can

* compute the full target-schema *image* of a source record,
* *translate* an :class:`~repro.lexpress.descriptor.UpdateDescriptor`
  into a :class:`~repro.lexpress.descriptor.TargetUpdate`, applying the
  partitioning matrix and the Originator/conditional rule, and
* report per-rule attribute dependencies for closure analysis.

Mappings are written against *schema* names; a
:class:`MappingInstance` binds a mapping to concrete repository instances
(e.g. the same ``ldap_to_pbx`` mapping bound once per PBX, each with its
own partition constraint) — the reuse story of section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .ast import AttrRef, MappingDecl, Span
from .bytecode import CodeObject
from .compiler import compile_expr
from .descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
    normalize_attrs,
)
from .codegen import run_rule
from .errors import LexpressCompileError
from .interpreter import lower_attrs
from .parser import parse
from .partition import AlwaysTrue, PartitionConstraint, route


@dataclass(frozen=True)
class CompiledRule:
    """One ``map target = expr;`` rule, compiled."""

    target: str
    code: CodeObject
    #: Source position of the ``map`` statement (None for synthesized rules).
    span: "Span | None" = None

    @property
    def deps(self) -> frozenset[str]:
        return self.code.deps


def _as_values(result) -> list[str] | None:
    """Normalize an interpreter result into attribute values (or unset)."""
    if result is None:
        return None
    if isinstance(result, bool):
        return ["true" if result else "false"]
    if isinstance(result, list):
        return [str(v) for v in result] if result else None
    return [str(result)]


class CompiledMapping:
    """A compiled one-direction schema mapping."""

    def __init__(self, decl: MappingDecl):
        self.name = decl.name
        self.source = decl.source
        self.target = decl.target
        self.key_source = decl.key_source
        self.key_target = decl.key_target
        self.originator = decl.originator
        #: The declaration this mapping was compiled from, and the source
        #: text of the description it came from — retained for static
        #: analysis (span resolution and inline suppression comments).
        self.decl = decl
        self.source_text: str | None = None
        #: Execution engine for this mapping's rules: None/"interpret"
        #: runs the byte-code interpreter, "compiled" serves closures from
        #: the process-wide cache, "verify" runs both and raises on any
        #: disagreement.  Set per MetaComm system from
        #: ``MetaCommConfig.lexpress_mode``.
        self.lexpress_mode: str | None = None

        rules = [
            CompiledRule(
                r.target,
                compile_expr(r.expr, f"{decl.name}.{r.target}"),
                span=r.span,
            )
            for r in decl.rules
        ]
        # The key attribute must always be mapped; default to identity.
        if self.key_target is not None and not any(
            r.target.lower() == self.key_target.lower() for r in rules
        ):
            if self.key_source is None:
                raise LexpressCompileError(
                    f"mapping {self.name!r}: key target without key source"
                )
            rules.insert(
                0,
                CompiledRule(
                    self.key_target,
                    compile_expr(
                        AttrRef(self.key_source), f"{decl.name}.{self.key_target}"
                    ),
                    span=decl.span,
                ),
            )
        self.rules: tuple[CompiledRule, ...] = tuple(rules)
        if decl.partition is not None:
            self.partition: PartitionConstraint = PartitionConstraint.from_expr(
                decl.partition, f"{decl.name}.partition"
            )
        else:
            self.partition = AlwaysTrue()

    # -- analysis ------------------------------------------------------------

    @property
    def deps(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            out.update(rule.deps)
        return frozenset(out)

    def rules_for(self, changed: frozenset[str]) -> list[CompiledRule]:
        """Rules whose dependencies intersect *changed* source attributes."""
        return [r for r in self.rules if r.deps & changed]

    def relevant(self, descriptor: UpdateDescriptor) -> bool:
        """Does this mapping care about the descriptor at all?"""
        if descriptor.op is not UpdateOp.MODIFY:
            return True
        return bool(self.rules_for(descriptor.changed_attributes()))

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        rule: CompiledRule,
        attrs: Mapping[str, Sequence[str]],
        value=None,
        *,
        canonical: bool = False,
    ) -> list[str] | None:
        """Evaluate one rule under this mapping's engine mode."""
        return _as_values(
            run_rule(
                rule.code,
                attrs,
                value,
                mapping=self.name,
                attribute=rule.target,
                mode=self.lexpress_mode,
                canonical=canonical,
            )
        )

    def image(
        self,
        attrs: Mapping[str, Sequence[str]] | None,
        targets: frozenset[str] | None = None,
    ) -> dict[str, list[str]] | None:
        """Full target-schema image of a source record (None in, None out).

        *targets* (lower-case target names) restricts the image to the
        rules producing them — all a partition test reads of it."""
        if attrs is None:
            return None
        attrs = normalize_attrs(attrs) or {}
        low = lower_attrs(attrs)
        out: dict[str, list[str]] = {}
        for rule in self.rules:
            if targets is not None and rule.target.lower() not in targets:
                continue
            values = self.evaluate(rule, low, canonical=True)
            if values is not None:
                out[rule.target] = values
        self._key_fallback(out, attrs)
        return out

    def _key_fallback(
        self, image: dict[str, list[str]], attrs: Mapping[str, list[str]]
    ) -> None:
        """The `key src -> tgt` declaration is itself an identity
        correspondence: when no rule produced the target key (e.g. a
        transformed key rule saw only nulls), fall back to it directly."""
        if (
            self.key_target is None
            or self.key_source is None
            or _lookup(image, self.key_target.lower()) is not None
        ):
            return
        for name, values in attrs.items():
            if name.lower() == self.key_source.lower() and values:
                image[self.key_target] = [str(values[0])]
                return

    def _dual_images(
        self,
        old_attrs: dict[str, list[str]],
        new_attrs: dict[str, list[str]],
        changed: frozenset[str],
    ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Old and new target images for a modify, evaluating rules whose
        dependencies did not change only once (identical inputs produce
        identical outputs) — the payoff of dependency analysis."""
        old_n = normalize_attrs(old_attrs) or {}
        new_n = normalize_attrs(new_attrs) or {}
        old_low = lower_attrs(old_n)
        new_low = lower_attrs(new_n)
        old_image: dict[str, list[str]] = {}
        new_image: dict[str, list[str]] = {}
        for rule in self.rules:
            old_values = self.evaluate(rule, old_low, canonical=True)
            if rule.deps & changed:
                new_values = self.evaluate(rule, new_low, canonical=True)
            else:
                new_values = list(old_values) if old_values is not None else None
            if old_values is not None:
                old_image[rule.target] = old_values
            if new_values is not None:
                new_image[rule.target] = new_values
        self._key_fallback(old_image, old_n)
        self._key_fallback(new_image, new_n)
        return old_image, new_image

    def key_of(self, image: Mapping[str, Sequence[str]] | None) -> str | None:
        if image is None or self.key_target is None:
            return None
        for name, values in image.items():
            if name.lower() == self.key_target.lower() and values:
                return str(values[0])
        return None

    # -- translation ------------------------------------------------------------

    def translate(
        self,
        descriptor: UpdateDescriptor,
        extra_partition: PartitionConstraint | None = None,
        target_name: str | None = None,
        *,
        instances: Sequence[tuple[PartitionConstraint | None, str | None]]
        | None = None,
    ) -> TargetUpdate | None | list[TargetUpdate | None]:
        """Translate *descriptor* into an update against this mapping's target.

        Returns None when the mapping is irrelevant to the change (a modify
        that touches none of the mapped attributes).

        With *instances* — ``(partition, target name)`` pairs, this mapping
        bound once per repository instance (section 4.1) — the old and new
        images are computed once and routed against every instance's
        partition.  The result is then a list with one entry per instance:
        its :class:`TargetUpdate`, or None where the instance is unaffected
        (an irrelevant change, or a SKIP under the partitioning matrix).
        """
        if instances is None:
            return self._translate_instances(
                descriptor, ((extra_partition, target_name),), keep_skip=True
            )[0]
        return self._translate_instances(descriptor, instances, keep_skip=False)

    def _translate_instances(
        self,
        descriptor: UpdateDescriptor,
        instances: Sequence[tuple[PartitionConstraint | None, str | None]],
        keep_skip: bool,
    ) -> list[TargetUpdate | None]:
        """Images once, then per instance: partition tests, the routing
        matrix, the Originator check; the old/new diff once, on demand."""
        if descriptor.source.lower() != self.source.lower():
            raise LexpressCompileError(
                f"mapping {self.name!r} translates from {self.source!r}, "
                f"got a descriptor from {descriptor.source!r}"
            )
        if not self.relevant(descriptor):
            return [None] * len(instances)

        if descriptor.op is UpdateOp.MODIFY:
            old_image, new_image = self._dual_images(
                descriptor.old or {},
                descriptor.new or {},
                descriptor.changed_attributes(),
            )
        else:
            old_image = self.image(descriptor.old)
            new_image = self.image(descriptor.new)

        # Partition predicates read the images through the rule engines'
        # canonical (lower-cased) view, built once for every instance.
        old_low = lower_attrs(old_image) if old_image is not None else None
        new_low = lower_attrs(new_image) if new_image is not None else None
        old_base = self._satisfies(self.partition, old_low)
        new_base = self._satisfies(self.partition, new_low)
        old_key = self.key_of(old_image)
        new_key = self.key_of(new_image)
        diff: tuple[dict[str, list[str]], tuple[str, ...]] | None = None

        out: list[TargetUpdate | None] = []
        for partition, target_name in instances:
            old_sat, new_sat = old_base, new_base
            if partition is not None:
                old_sat = old_sat and self._satisfies(partition, old_low)
                new_sat = new_sat and self._satisfies(partition, new_low)
            action = route(old_sat, new_sat)
            changed: dict[str, list[str]] = {}
            removed: tuple[str, ...] = ()
            if action is TargetAction.MODIFY:
                if diff is None:
                    diff = _diff(old_image, new_image)
                changed, removed = diff
                if not changed and not removed and old_key == new_key:
                    action = TargetAction.SKIP
            if action is TargetAction.SKIP and not keep_skip:
                out.append(None)
                continue
            target = target_name or self.target
            out.append(
                TargetUpdate(
                    action=action,
                    target=target,
                    key=new_key if action is not TargetAction.DELETE else old_key,
                    old_key=old_key,
                    key_attribute=self.key_target,
                    attributes=dict(new_image or {}),
                    old_attributes=dict(old_image or {}),
                    changed=dict(changed),
                    removed=removed,
                    conditional=self._is_conditional(descriptor, target),
                    mapping=self.name,
                )
            )
        return out

    def claims(
        self,
        image: Mapping[str, Sequence[str]] | None,
        extra_partition: PartitionConstraint | None = None,
    ) -> bool:
        """Does a target-schema *image* satisfy this mapping's partition
        (and *extra_partition*, an instance's own constraint)?"""
        return self.claimed(image, (extra_partition,))[0]

    def claimed(
        self,
        image: Mapping[str, Sequence[str]] | None,
        partitions: Sequence[PartitionConstraint | None],
    ) -> list[bool]:
        """:meth:`claims` for several instance partitions at once: this
        mapping's own partition is tested once, then each instance's."""
        low = lower_attrs(image) if image is not None else None
        if not self._satisfies(self.partition, low):
            return [False] * len(partitions)
        return [p is None or self._satisfies(p, low) for p in partitions]

    def _satisfies(
        self,
        partition: PartitionConstraint,
        low_image: Mapping[str, Sequence[str]] | None,
    ) -> bool:
        """One partition test under this mapping's engine mode."""
        return partition.satisfied_by(
            low_image, mode=self.lexpress_mode, mapping=self.name, canonical=True
        )

    def _is_conditional(self, descriptor: UpdateDescriptor, target: str) -> bool:
        """Section 5.4: the update is headed back to where it came from."""
        if descriptor.origin is not None and descriptor.origin.lower() == target.lower():
            return True
        if self.originator is None:
            return False
        record = descriptor.new if descriptor.new is not None else descriptor.old
        if record is None:
            return False
        for name, values in record.items():
            if name.lower() == self.originator.lower() and values:
                return str(values[0]).lower() == target.lower()
        return False


def _diff(
    old_image: dict[str, list[str]] | None,
    new_image: dict[str, list[str]] | None,
) -> tuple[dict[str, list[str]], tuple[str, ...]]:
    """Target attributes whose values changed, and those that were unset."""
    old_by = _by_lower(old_image)
    new_by = _by_lower(new_image)
    changed: dict[str, list[str]] = {}
    removed: list[str] = []
    for name in sorted(old_by.keys() | new_by.keys()):
        old = old_by.get(name)
        new = new_by.get(name)
        if new is None:
            removed.append(old[0])
        elif old is None or old[1] != new[1]:
            changed[new[0]] = new[1]
    return changed, tuple(removed)


def _by_lower(
    image: dict[str, list[str]] | None,
) -> dict[str, tuple[str, list[str]]]:
    """Lower-cased name → (spelling, values); the first spelling wins."""
    out: dict[str, tuple[str, list[str]]] = {}
    for name, values in (image or {}).items():
        out.setdefault(name.lower(), (name, values))
    return out


def _lookup(image: dict[str, list[str]] | None, lower_name: str) -> list[str] | None:
    if not image:
        return None
    for name, values in image.items():
        if name.lower() == lower_name:
            return values
    return None


@dataclass
class MappingInstance:
    """A mapping bound to concrete repository instances.

    ``source_repo``/``target_repo`` are instance names (``pbx-west``), the
    mapping's own source/target are schema names (``pbx``).  The optional
    ``partition`` narrows the instance further (each PBX manages its own
    extension prefix)."""

    mapping: CompiledMapping
    source_repo: str
    target_repo: str
    partition: PartitionConstraint | None = None

    def translate(self, descriptor: UpdateDescriptor) -> TargetUpdate | None:
        return self.mapping.translate(
            descriptor, extra_partition=self.partition, target_name=self.target_repo
        )


def compile_description(source: str) -> dict[str, CompiledMapping]:
    """Compile a lexpress description file into its mappings by name.

    "Descriptions for new sources ... can be added dynamically (to running
    programs) by compiling them at run-time" — this function is that
    entry point."""
    description = parse(source)
    out: dict[str, CompiledMapping] = {}
    for decl in description.mappings:
        if decl.name in out:
            raise LexpressCompileError(f"duplicate mapping name {decl.name!r}")
        mapping = CompiledMapping(decl)
        mapping.source_text = source
        out[decl.name] = mapping
    return out


def compile_mapping(source: str) -> CompiledMapping:
    """Compile a description expected to hold exactly one mapping."""
    mappings = compile_description(source)
    if len(mappings) != 1:
        raise LexpressCompileError(
            f"expected exactly one mapping, found {len(mappings)}"
        )
    return next(iter(mappings.values()))
