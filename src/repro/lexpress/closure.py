"""Transitive closure of attribute mappings.

Section 4.2: "Since setting one attribute may affect a set of related
attributes, lexpress calculates the transitive closure of the attribute
mappings. ... The transitive closure can also propagate changes to other
devices in the meta-directory."  And the conflict rule: "the first mapping
in the transitive closure to be satisfied sets all other unset attributes
in the transitive closure.  The algorithm does not change the values of
explicitly set attributes."

The engine therefore freezes every attribute the first time it is set
during a propagation (client-explicit attributes are frozen from the
start) and pushes newly set attributes onto a worklist until it drains.

Cycle handling — the enhancement the paper says was in progress — is
implemented both ways:

* **compile time**: :func:`analyze_cycles` builds the cross-schema
  attribute dependency graph (a dict of dicts), enumerates its
  elementary cycles (Johnson's algorithm, :mod:`repro.digraph`), and
  probes each composed transformation — every choice of rule where two
  rules write the same attribute from the same one — for idempotence;
  :func:`check_cycles` raises
  :class:`~repro.lexpress.errors.CyclicDependencyError` for cycles that
  can never reach a fixpoint.
* **execution time**: after a propagation, the engine re-evaluates every
  rule against the final images; a rule that would overwrite a frozen
  *non-explicit* attribute with a different value means this particular
  update cannot reach a fixpoint, reported via
  :class:`~repro.lexpress.errors.FixpointError` (strict mode) or the
  result's ``conflicts`` list.  A non-strict engine runs that post-pass
  only when ``conflicts`` is first read: the update path never reads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from ..digraph import simple_cycles
from .descriptor import normalize_attrs
from .errors import CyclicDependencyError, FixpointError
from .interpreter import execute
from .mapping import CompiledMapping, CompiledRule, _as_values


def _rule_values(
    mapping: CompiledMapping | None,
    rule: CompiledRule,
    attrs: Mapping[str, Sequence[str]],
    *,
    canonical: bool = False,
) -> list[str] | None:
    """Evaluate one rule to normalized attribute values.

    The single entry point for every rule evaluation in this module:
    with a mapping, the rule runs on the engine it was bound to; without
    one (compile-time probes), it runs the plain interpreter."""
    if mapping is None:
        return _as_values(execute(rule.code, attrs, canonical=canonical))
    return mapping.evaluate(rule, attrs, canonical=canonical)


@dataclass
class Conflict:
    """A rule that disagrees with the frozen value of a target attribute."""

    mapping: str
    schema: str
    attribute: str
    frozen: list[str] | None
    competing: list[str] | None
    explicit: bool

    def __str__(self) -> str:
        kind = "explicit" if self.explicit else "UNSTABLE"
        return (
            f"[{kind}] {self.mapping}: {self.schema}.{self.attribute} "
            f"frozen={self.frozen} competing={self.competing}"
        )


class ClosureResult:
    """Outcome of one propagation.

    The propagation works on lower-keyed images; the spelled ``images``
    are built from them on first read, and ``conflicts`` (disagreements
    discovered by the post-pass; explicit ones are benign) is computed
    on first read, from the images as the propagation left them."""

    def __init__(
        self,
        low_images: dict[str, dict[str, list[str]]],
        spellings: dict[str, dict[str, str]],
        changed: dict[str, set[str]],
        iterations: int,
        check: Callable[[], list[Conflict]],
    ):
        #: schema (lower) -> attribute (lower) -> values after propagation
        self.low_images = low_images
        #: schema (lower) -> attribute (lower) -> its display spelling
        self.spellings = spellings
        #: schema (lower) -> attribute names (lower) set during propagation
        self.changed = changed
        #: worklist steps taken
        self.iterations = iterations
        self._check = check

    @cached_property
    def images(self) -> dict[str, dict[str, list[str]]]:
        """schema (lower) -> full attribute image after propagation."""
        return {
            schema: {
                self.spellings[schema][attr]: values
                for attr, values in image.items()
            }
            for schema, image in self.low_images.items()
        }

    @cached_property
    def conflicts(self) -> list[Conflict]:
        return self._check()

    def image(self, schema: str) -> dict[str, list[str]]:
        return self.images.get(schema.lower(), {})

    def lowered(self, schema: str) -> dict[str, list[str]]:
        """One schema's image keyed by lower-cased attribute name."""
        return self.low_images.get(schema.lower(), {})

    def unstable_conflicts(self) -> list[Conflict]:
        return [c for c in self.conflicts if not c.explicit]


class ClosureEngine:
    """Propagates attribute changes across every registered mapping."""

    def __init__(
        self,
        mappings: Iterable[CompiledMapping],
        max_iterations: int = 1000,
        strict: bool = False,
    ):
        self.mappings = list(mappings)
        self.max_iterations = max_iterations
        self.strict = strict
        self._by_source: dict[str, list[CompiledMapping]] = {}
        for mapping in self.mappings:
            self._by_source.setdefault(mapping.source.lower(), []).append(mapping)

    def propagate(
        self,
        schema: str,
        attrs: Mapping[str, Sequence[str] | str],
        changed: Iterable[str] | None = None,
        explicit: Iterable[str] = (),
        base_images: Mapping[str, Mapping[str, Sequence[str]]] | None = None,
        *,
        lowered: Mapping[str, list[str]] | None = None,
    ) -> ClosureResult:
        """Propagate an update entering at *schema* to every schema.

        ``attrs`` is the post-update record; ``changed`` names the
        attributes the update touched (default: all of them); ``explicit``
        names the attributes the client set directly; ``base_images``
        seeds the current records of other schemas, letting rules read
        unchanged context attributes.  ``lowered`` is ``attrs`` keyed by
        lower-cased name, when the caller already holds that view (an
        update descriptor's): ``attrs`` must then be canonical — lists
        of ``str`` — and its values are read as they are, not copied.
        """
        schema = schema.lower()
        # Work entirely on lower-keyed images: rule evaluation is then
        # canonical (no per-call re-keying) and attribute lookups are
        # O(1) dict probes instead of scans.  ``spellings`` remembers the
        # display form of each attribute for the result images.
        low_images: dict[str, dict[str, list[str]]] = {}
        spellings: dict[str, dict[str, str]] = {}

        def _store(schema_low: str, name: str, values: list[str]) -> None:
            low_images.setdefault(schema_low, {})[name.lower()] = values
            spellings.setdefault(schema_low, {})[name.lower()] = name

        if base_images:
            for name, image in base_images.items():
                target_low = name.lower()
                for attr, values in (normalize_attrs(dict(image)) or {}).items():
                    _store(target_low, attr, values)
        if lowered is None:
            start = normalize_attrs(attrs) or {}
            low_images.setdefault(schema, {})
            for attr, values in start.items():
                _store(schema, attr, values)
            start_names = frozenset(a.lower() for a in start)
        else:
            low_images.setdefault(schema, {}).update(lowered)
            # The first spelling of a name wins, as in the view's values.
            first: dict[str, str] = {}
            for name in attrs:
                first.setdefault(name.lower(), name)
            spellings.setdefault(schema, {}).update(first)
            start_names = frozenset(lowered)

        changed_set = (
            frozenset(a.lower() for a in changed)
            if changed is not None
            else start_names
        )
        explicit_set = frozenset(a.lower() for a in explicit)

        frozen: dict[str, set[str]] = {schema: set(changed_set) | set(explicit_set)}
        touched: dict[str, set[str]] = {schema: set(changed_set)}
        explicit_by_schema: dict[str, set[str]] = {schema: set(explicit_set)}

        pending: deque[tuple[str, frozenset[str]]] = deque([(schema, changed_set)])
        iterations = 0
        while pending:
            iterations += 1
            if iterations > self.max_iterations:
                raise FixpointError(
                    f"closure did not drain after {self.max_iterations} steps"
                )
            source, dirty = pending.popleft()
            source_image = low_images.get(source, {})
            for mapping in self._by_source.get(source, []):
                target = mapping.target.lower()
                target_image = low_images.setdefault(target, {})
                target_frozen = frozen.setdefault(target, set())
                newly_dirty: set[str] = set()
                for rule in mapping.rules_for(dirty):
                    attr = rule.target_low
                    if attr in target_frozen:
                        continue  # first-win / explicit protection
                    values = _rule_values(
                        mapping, rule, source_image, canonical=True
                    )
                    if values is None:
                        continue
                    current = target_image.get(attr)
                    target_frozen.add(attr)
                    if current == values:
                        continue
                    # Keep the spelling of the rule's target attribute.
                    target_image[attr] = values
                    spellings.setdefault(target, {})[attr] = rule.target
                    touched.setdefault(target, set()).add(attr)
                    newly_dirty.add(attr)
                if newly_dirty:
                    pending.append((target, frozenset(newly_dirty)))

        result = ClosureResult(
            low_images,
            spellings,
            touched,
            iterations,
            lambda: self._post_check(low_images, frozen, explicit_by_schema),
        )
        if self.strict and result.unstable_conflicts():
            raise FixpointError(
                "update cannot reach a fixpoint: "
                + "; ".join(str(c) for c in result.unstable_conflicts())
            )
        return result

    def _post_check(
        self,
        low_images: dict[str, dict[str, list[str]]],
        frozen: dict[str, set[str]],
        explicit_by_schema: dict[str, set[str]],
    ) -> list[Conflict]:
        """Re-evaluate all rules; report disagreements with frozen values."""
        conflicts: list[Conflict] = []
        for mapping in self.mappings:
            source = mapping.source.lower()
            target = mapping.target.lower()
            source_image = low_images.get(source)
            if source_image is None:
                continue
            target_image = low_images.get(target, {})
            target_frozen = frozen.get(target, set())
            for rule in mapping.rules:
                attr = rule.target_low
                if attr not in target_frozen:
                    continue
                if not (rule.deps & source_image.keys()):
                    continue
                values = _rule_values(
                    mapping, rule, source_image, canonical=True
                )
                if values is None:
                    continue
                current = target_image.get(attr)
                if current != values:
                    conflict = Conflict(
                        mapping=mapping.name,
                        schema=target,
                        attribute=attr,
                        frozen=current,
                        competing=values,
                        explicit=attr in explicit_by_schema.get(target, set()),
                    )
                    conflicts.append(conflict)
        return conflicts


# -- compile-time cycle analysis -------------------------------------------------


@dataclass(frozen=True)
class CycleReport:
    """One dependency cycle in the cross-schema attribute graph."""

    #: the cycle as (schema, attribute) nodes
    nodes: tuple[tuple[str, str], ...]
    #: True when probing shows the composed transformation is idempotent
    stable: bool
    #: probe value trace: start, after one lap, after two laps
    trace: tuple[str | None, ...] = ()

    def __str__(self) -> str:
        path = " -> ".join(f"{s}.{a}" for s, a in self.nodes)
        return f"{'stable' if self.stable else 'UNSTABLE'} cycle: {path}"


_PROBE_VALUES = ("4100", "Doe, John", "+1 908 582 9100", "x")


#: A ``(schema, attribute)`` node of the dependency graph (lower-case).
Node = tuple[str, str]


def dependency_graph(
    mappings: Iterable[CompiledMapping],
) -> dict[Node, dict[Node, list[CompiledRule]]]:
    """Cross-schema attribute dependency graph, ``{node: {successor:
    rules}}`` in insertion order.

    Nodes are ``(schema, attribute)`` (lower-case); an edge dep → target
    exists for every rule reading *dep* and writing *target*, and keeps
    every distinct such rule: two mappings between the same schemas may
    both write one attribute from the same one."""
    graph: dict[Node, dict[Node, list[CompiledRule]]] = {}
    for mapping in mappings:
        source = mapping.source.lower()
        target = mapping.target.lower()
        for rule in mapping.rules:
            head = (target, rule.target_low)
            for dep in sorted(rule.deps):
                edges = graph.setdefault((source, dep), {})
                graph.setdefault(head, {})
                rules = edges.setdefault(head, [])
                if rule not in rules:
                    rules.append(rule)
    return graph


def _apply_rule(rule: CompiledRule, dep: str, value: str) -> str | None:
    # Compile-time probing: no mapping mode in play, plain interpretation
    # (``dep`` comes from rule.deps and is already lower-cased).
    values = _rule_values(None, rule, {dep: [value]}, canonical=True)
    return values[0] if values else None


def _probe(
    cycle: Sequence[Node], rules: Sequence[CompiledRule]
) -> tuple[bool, tuple[str | None, ...]]:
    """Run each probe value twice round *cycle*, ``rules[i]`` on the edge
    leaving ``cycle[i]``: unstable when the second lap moves a value the
    first produced.  Returns the verdict and the trace shown for it."""
    trace: tuple[str | None, ...] = ()
    for probe in _PROBE_VALUES:
        value: str | None = probe
        laps: list[str | None] = [probe]
        for lap in range(2):
            for node, rule in zip(cycle, rules):
                if value is None:
                    break
                value = _apply_rule(rule, node[1], value)
            laps.append(value)
        if laps[1] is not None and laps[1] != laps[2]:
            return False, tuple(laps)
        if not trace:
            trace = tuple(laps)
    return True, trace


def analyze_cycles(mappings: Iterable[CompiledMapping]) -> list[CycleReport]:
    """Find dependency cycles and probe each for fixpoint stability.

    Where an edge carries several rules, every choice of one rule per
    edge is probed: the closure's first-win rule lets any of them be the
    one that fires, so a cycle is stable only if every choice is."""
    graph = dependency_graph(mappings)
    reports: list[CycleReport] = []
    for cycle in simple_cycles(graph):
        choices = product(*(
            graph[node][cycle[(i + 1) % len(cycle)]]
            for i, node in enumerate(cycle)
        ))
        stable, trace = True, ()
        for rules in choices:
            verdict, seen = _probe(cycle, rules)
            if not verdict:
                stable, trace = False, seen
                break
            trace = trace or seen
        reports.append(CycleReport(tuple(cycle), stable, trace))
    return reports


def check_cycles(mappings: Iterable[CompiledMapping], strict: bool = True) -> list[CycleReport]:
    """Compile-time gate: raise on cycles that can never reach a fixpoint."""
    reports = analyze_cycles(mappings)
    unstable = [r for r in reports if not r.stable]
    if strict and unstable:
        raise CyclicDependencyError(
            "mappings contain non-convergent cycles: "
            + "; ".join(str(r) for r in unstable)
        )
    return reports
