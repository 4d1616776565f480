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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .ast import AttrRef, Expr, MappingDecl, Span
from .bytecode import CodeObject
from .compiler import compile_expr
from .descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
    normalize_attrs,
)
from .codegen import Runner, bind
from .errors import LexpressCompileError
from .interpreter import lower_attrs
from .parser import parse
from .partition import AlwaysTrue, OwnerIndex, PartitionConstraint, route


@dataclass(frozen=True)
class CompiledRule:
    """One ``map target = expr;`` rule, compiled and bound to its engine."""

    target: str
    code: CodeObject
    run: Runner
    #: Source position of the ``map`` statement (None for synthesized rules).
    span: "Span | None" = None
    #: ``target`` lower-cased: the rule's key in a lower-keyed image.
    target_low: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_low", self.target.lower())

    @property
    def deps(self) -> frozenset[str]:
        return self.code.deps


#: Distinct instance-partition tuples one mapping keeps an owner index
#: for; a deployment routes through one or two.
OWNER_INDEX_MEMO_SIZE = 16


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
    """A compiled one-direction schema mapping.

    *mode* (``MetaCommConfig.lexpress_mode``) binds every rule and the
    partition to one engine as the mapping is built
    (:func:`~repro.lexpress.codegen.bind`)."""

    def __init__(self, decl: MappingDecl, mode: str = "interpret"):
        self.name = decl.name
        self.source = decl.source
        self.target = decl.target
        self.key_source = decl.key_source
        self.key_target = decl.key_target
        self.originator = decl.originator
        # Lower-cased once: translation looks them up in lower-keyed images.
        self._key_source_low = (decl.key_source or "").lower() or None
        self._key_target_low = (decl.key_target or "").lower() or None
        self._originator_low = (decl.originator or "").lower() or None
        #: The declaration this mapping was compiled from, and the source
        #: text of the description it came from — retained for static
        #: analysis (span resolution and inline suppression comments).
        self.decl = decl
        self.source_text: str | None = None

        def rule(target: str, expr: Expr, span: Span | None) -> CompiledRule:
            code = compile_expr(expr, f"{decl.name}.{target}")
            run = bind(code, mode, mapping=decl.name, attribute=target)
            return CompiledRule(target, code, run, span)

        rules = [rule(r.target, r.expr, r.span) for r in decl.rules]
        # The key attribute must always be mapped; default to identity.
        if self.key_target is not None and not any(
            r.target.lower() == self.key_target.lower() for r in rules
        ):
            if self.key_source is None:
                raise LexpressCompileError(
                    f"mapping {self.name!r}: key target without key source"
                )
            rules.insert(
                0, rule(self.key_target, AttrRef(self.key_source), decl.span)
            )
        self.rules: tuple[CompiledRule, ...] = tuple(rules)
        if decl.partition is not None:
            self.partition: PartitionConstraint = PartitionConstraint.from_expr(
                decl.partition, f"{decl.name}.partition", mode
            )
        else:
            self.partition = AlwaysTrue()
        #: Instance-partition tuple → its :class:`OwnerIndex` (None: the
        #: partitions must run), built on first use, bounded by
        #: :data:`OWNER_INDEX_MEMO_SIZE`.
        self._owner_indexes: dict[tuple, OwnerIndex | None] = {}

    # -- analysis ------------------------------------------------------------

    @property
    def runners(self) -> tuple[Runner, ...]:
        """Every bound code object of this mapping: its rules, then its
        partition (an unpartitioned mapping has none to run)."""
        own = () if isinstance(self.partition, AlwaysTrue) else (self.partition.run,)
        return tuple(rule.run for rule in self.rules) + own

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
        """Evaluate one rule on the engine it was bound to."""
        return _as_values(rule.run(attrs, value, canonical))

    def image(
        self,
        attrs: Mapping[str, Sequence[str]] | None,
        targets: frozenset[str] | None = None,
    ) -> dict[str, list[str]] | None:
        """Full target-schema image of a source record (None in, None out).

        *attrs* may be any raw record (a device's, an entry's dict); it is
        normalized first.  *targets* (lower-case target names) restricts
        the image to the rules producing them — all a partition test
        reads of it."""
        if attrs is None:
            return None
        return self._image(lower_attrs(normalize_attrs(attrs) or {}), targets)[0]

    def _image(
        self,
        low: Mapping[str, Sequence[str]],
        targets: frozenset[str] | None = None,
    ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The target image of a lower-keyed source record *low*, spelled
        and lower-keyed (both share each value list)."""
        out: dict[str, list[str]] = {}
        out_low: dict[str, list[str]] = {}
        for rule in self.rules:
            if targets is not None and rule.target_low not in targets:
                continue
            values = self.evaluate(rule, low, canonical=True)
            if values is not None:
                out[rule.target] = out_low[rule.target_low] = values
        self._key_fallback(out, out_low, low)
        return out, out_low

    def _key_fallback(
        self,
        image: dict[str, list[str]],
        image_low: dict[str, list[str]],
        low: Mapping[str, Sequence[str]],
    ) -> None:
        """The `key src -> tgt` declaration is itself an identity
        correspondence: when no rule produced the target key (e.g. a
        transformed key rule saw only nulls), fall back to it directly.
        *image_low* is *image*'s lower-keyed view, *low* the source
        record's; both are kept in step with *image*."""
        target = self._key_target_low
        if target is None or self._key_source_low is None or target in image_low:
            return
        values = low.get(self._key_source_low)
        if values:
            image[self.key_target] = image_low[target] = [str(values[0])]

    def _dual_images(
        self,
        old_low: Mapping[str, Sequence[str]],
        new_low: Mapping[str, Sequence[str]],
        changed: frozenset[str],
    ) -> tuple[
        tuple[dict[str, list[str]], dict[str, list[str]]],
        tuple[dict[str, list[str]], dict[str, list[str]]],
    ]:
        """Old and new target images (each spelled and lower-keyed, as
        :meth:`_image`) for a modify of the lower-keyed source records
        *old_low* and *new_low*, evaluating rules whose dependencies did
        not change only once (identical inputs produce identical outputs)
        — the payoff of dependency analysis."""
        old_image: dict[str, list[str]] = {}
        new_image: dict[str, list[str]] = {}
        old_out: dict[str, list[str]] = {}
        new_out: dict[str, list[str]] = {}
        for rule in self.rules:
            old_values = self.evaluate(rule, old_low, canonical=True)
            if rule.deps & changed:
                new_values = self.evaluate(rule, new_low, canonical=True)
            else:
                new_values = list(old_values) if old_values is not None else None
            if old_values is not None:
                old_image[rule.target] = old_out[rule.target_low] = old_values
            if new_values is not None:
                new_image[rule.target] = new_out[rule.target_low] = new_values
        self._key_fallback(old_image, old_out, old_low)
        self._key_fallback(new_image, new_out, new_low)
        return (old_image, old_out), (new_image, new_out)

    def key_of(self, image: Mapping[str, Sequence[str]] | None) -> str | None:
        return self._key_in(lower_attrs(image)) if image is not None else None

    def _key_in(self, image_low: Mapping[str, Sequence[str]] | None) -> str | None:
        """:meth:`key_of` for a lower-keyed image."""
        if image_low is None or self._key_target_low is None:
            return None
        values = image_low.get(self._key_target_low)
        return str(values[0]) if values else None

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

        # The descriptor's lower-keyed views feed the rule engines as they
        # are; the target images come back spelled and lower-keyed, and
        # the partition predicates read the latter.
        old_src, new_src = descriptor.lowered()
        if descriptor.op is UpdateOp.MODIFY:
            (old_image, old_low), (new_image, new_low) = self._dual_images(
                old_src, new_src, descriptor.changed_attributes()
            )
        else:
            old_image = old_low = new_image = new_low = None
            if old_src is not None:
                old_image, old_low = self._image(old_src)
            if new_src is not None:
                new_image, new_low = self._image(new_src)

        partitions = tuple(partition for partition, _ in instances)
        unowned = [False] * len(instances)
        old_owned = (
            self._owned(old_low, partitions)
            if self.partition.satisfied_by(old_low, canonical=True)
            else unowned
        )
        new_owned = (
            self._owned(new_low, partitions)
            if self.partition.satisfied_by(new_low, canonical=True)
            else unowned
        )
        old_key = self._key_in(old_low)
        new_key = self._key_in(new_low)
        # Section 5.4's Originator inputs, read once for every instance:
        # where the update entered, and the stamp on the source record.
        origin = descriptor.origin.lower() if descriptor.origin is not None else None
        stamp = None
        if self._originator_low is not None:
            record = new_src if new_src is not None else old_src
            values = record.get(self._originator_low) if record is not None else None
            if values:
                stamp = str(values[0]).lower()
        diff: tuple[dict[str, list[str]], tuple[str, ...]] | None = None

        out: list[TargetUpdate | None] = []
        for (_, target_name), old_sat, new_sat in zip(
            instances, old_owned, new_owned
        ):
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
            conditional = target.lower() in (origin, stamp)
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
                    conditional=conditional,
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
        return self._claimed(
            lower_attrs(image) if image is not None else None, partitions
        )

    def _claimed(
        self,
        low: Mapping[str, Sequence[str]] | None,
        partitions: Sequence[PartitionConstraint | None],
    ) -> list[bool]:
        """:meth:`claimed` for a lower-keyed image."""
        if not self.partition.satisfied_by(low, canonical=True):
            return [False] * len(partitions)
        return self._owned(low, tuple(partitions))

    def _owned(
        self,
        low: Mapping[str, Sequence[str]] | None,
        partitions: tuple[PartitionConstraint | None, ...],
    ) -> list[bool]:
        """Which instance *partitions* the lower-keyed image *low*
        satisfies: one owner-index lookup where they allow it, else each
        predicate in turn (None, an instance without one, always holds)."""
        index = self.owner_index(partitions)
        if index is not None:
            return index.owners(low)
        return [p is None or p.satisfied_by(low, canonical=True) for p in partitions]

    def owner_index(
        self, partitions: tuple[PartitionConstraint | None, ...]
    ) -> OwnerIndex | None:
        """The :class:`OwnerIndex` of one instance-partition tuple, built
        once (None when the partitions must run)."""
        try:
            return self._owner_indexes[partitions]
        except KeyError:
            index = OwnerIndex.build(partitions)
            if len(self._owner_indexes) >= OWNER_INDEX_MEMO_SIZE:
                self._owner_indexes.clear()
            self._owner_indexes[partitions] = index
            return index


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


def compile_description(
    source: str, mode: str = "interpret"
) -> dict[str, CompiledMapping]:
    """Compile a lexpress description file into its mappings by name, each
    rule bound to the engine *mode* names.

    "Descriptions for new sources ... can be added dynamically (to running
    programs) by compiling them at run-time" — this function is that
    entry point."""
    description = parse(source)
    out: dict[str, CompiledMapping] = {}
    for decl in description.mappings:
        if decl.name in out:
            raise LexpressCompileError(f"duplicate mapping name {decl.name!r}")
        mapping = CompiledMapping(decl, mode)
        mapping.source_text = source
        out[decl.name] = mapping
    return out


def compile_mapping(source: str, mode: str = "interpret") -> CompiledMapping:
    """Compile a description expected to hold exactly one mapping."""
    mappings = compile_description(source, mode)
    if len(mappings) != 1:
        raise LexpressCompileError(
            f"expected exactly one mapping, found {len(mappings)}"
        )
    return next(iter(mappings.values()))
