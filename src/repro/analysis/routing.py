"""The routing oracle — compile-time commutativity sharding (docs/CONCURRENCY.md).

The Update Manager's coordinator serializes every update through one
global queue.  Most updates provably *commute*: two adds landing in
disjoint extension-prefix partitions touch disjoint device records, so
executing them concurrently cannot change any observable outcome
("Limits of Commutativity on Abstract Data Types").  This module turns
that proof obligation into a compile-time artifact: a :class:`RoutingPlan`
built once per mapping configuration, consulted once per update.

The plan is derived from the same facts lexcheck already computes:

* **Partition constraints** (LX3xx machinery): each device instance's
  combined constraint, restricted to the rules that feed it, decides
  which instance *claims* an update's old/new images.  Updates whose
  claims coincide share a lane key; updates with disjoint claims land on
  (usually) different lanes and may drain concurrently.
* **Write-write conflict probing** (LX403): attribute sets whose rules
  were proved non-commuting by the closure-graph pass must never execute
  concurrently — any update touching them falls back to the serial lane.
  Suppressed findings (the by-design ``lastUpdater`` Originator pattern)
  do *not* force serialization: the suppression is the operator's
  commutativity waiver.

Everything the oracle cannot *prove* disjoint routes to the serial lane:
ModifyRDN renames (the descriptor no longer carries the old DN), DDU
reapplication (section 5.4's conditional writes re-enter the originating
device and must observe the global order), cross-partition moves (a
DELETE on one device and an ADD on another for the same logical record),
partition overlaps, and records no instance claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..lexpress.descriptor import UpdateDescriptor
from ..lexpress.kernel import Imager
from ..lexpress.mapping import CompiledMapping
from ..lexpress.partition import PartitionConstraint
from .runner import AnalysisReport, AnalysisTarget, analyze

__all__ = [
    "LaneDecision",
    "RoutingPlan",
    "SERIAL_REASONS",
    "build_routing_plan",
]

#: Every reason the oracle gives for routing an update to the serial lane.
SERIAL_REASONS = (
    "modify-rdn",
    "ddu-reapplication",
    "non-commuting-write",
    "partition-overlap",
    "cross-partition-move",
    "unclaimed",
)


@dataclass(frozen=True)
class LaneDecision:
    """The oracle's verdict on one update descriptor.

    ``lane_key`` is a stable string identifying the disjointness class
    (hashable onto a lane), or ``None`` when the update must serialize;
    ``reason`` is ``"partition"`` for lane-routed updates and one of
    :data:`SERIAL_REASONS` otherwise."""

    lane_key: str | None
    reason: str

    @property
    def serial(self) -> bool:
        return self.lane_key is None


@dataclass(frozen=True)
class _ClaimGroup:
    """The instances of one target schema that share a mapping and the
    rule slice their constraints read: imaged once per claim."""

    mapping: CompiledMapping
    #: Images with the mapping rules whose targets the partition
    #: constraints (and the key) depend on — the only rules
    #: classification needs to evaluate (:meth:`CompiledMapping.imager`).
    image_of: Imager
    names: tuple[str, ...]
    partitions: tuple[PartitionConstraint | None, ...]

    def claims(self, low: Mapping[str, Sequence[str]]) -> list[str]:
        """The claim strings of the instances that own the lower-keyed
        source image *low*, on the engines the rules were bound to.

        A claim carries the target-schema key value so two updates on
        the same device record always share a lane, while updates on
        distinct records of one large partition may spread out."""
        mapping = self.mapping
        _, image_low = self.image_of(low)
        owned = mapping._claimed(image_low, self.partitions)
        if not any(owned):
            return []
        key = mapping._key_in(image_low)
        return [
            f"{name}:{key}" if key is not None else name
            for name, claimed in zip(self.names, owned)
            if claimed
        ]

    def lookup(self) -> str:
        """How an owner is found: the owner index, or the predicates."""
        index = self.mapping.owner_index(self.partitions)
        return index.describe() if index is not None else "scan"


class RoutingPlan:
    """A compiled lane-key function plus the serial-fallback classes.

    Built once per configuration by :func:`build_routing_plan`; consulted
    by the sharded queue on every ``claim``.  The plan is immutable and
    thread-safe (classification only reads compiled code objects).
    """

    def __init__(
        self,
        groups: dict[str, list[_ClaimGroup]],
        conflict_attributes: frozenset[str],
        source_schema: str,
        partitioned_schemas: tuple[str, ...] = (),
    ):
        #: Target schema (lower) -> its claim groups.
        self.groups = groups
        #: Source-schema attribute names (lower) proved order-dependent by
        #: unsuppressed LX403 findings; touching any of them serializes.
        self.conflict_attributes = conflict_attributes
        self.source_schema = source_schema
        self.partitioned_schemas = partitioned_schemas
        # Canonical-priority order: schemas carrying per-instance
        # partitions first (they define the deployment's sharding
        # dimension), then the rest alphabetically.
        ordered = sorted(
            groups, key=lambda s: (s not in partitioned_schemas, s)
        )
        self._ordered_schemas = tuple(ordered)

    # -- classification -----------------------------------------------------

    def classify(
        self, descriptor: UpdateDescriptor, rename: bool = False
    ) -> LaneDecision:
        """Decide the lane key (or serial fallback) for one descriptor.

        ``rename`` must be passed by the caller when the triggering LDAP
        operation was a ModifyRDN — the descriptor folds renames into a
        MODIFY keyed by the *new* DN, so the flag cannot be recovered from
        the descriptor itself.
        """
        if rename:
            return LaneDecision(None, "modify-rdn")
        origin = (descriptor.origin or "").lower()
        if origin and origin != self.source_schema:
            # Section 5.4 reapplication: the conditional writes sent back
            # to the originating device must observe the global order the
            # reapplication technique converges under.
            return LaneDecision(None, "ddu-reapplication")
        if self.conflict_attributes and (
            descriptor.changed_attributes() & self.conflict_attributes
        ):
            return LaneDecision(None, "non-commuting-write")

        old_low, new_low = descriptor.lowered()
        old_claims = self._claims(old_low)
        new_claims = self._claims(new_low)
        for schema in set(old_claims) | set(new_claims):
            if (
                len(old_claims.get(schema, ())) > 1
                or len(new_claims.get(schema, ())) > 1
            ):
                return LaneDecision(None, "partition-overlap")
        old_flat = {c for claims in old_claims.values() for c in claims}
        new_flat = {c for claims in new_claims.values() for c in claims}
        if old_flat and new_flat and old_flat != new_flat:
            # The update migrates the record between partitions (or
            # renumbers its device key): a DELETE lands on one lane's
            # device and an ADD on another's — not provably disjoint from
            # either side's traffic.
            return LaneDecision(None, "cross-partition-move")

        claims = new_claims if new_flat else old_claims
        for schema in self._ordered_schemas:
            claimed = claims.get(schema)
            if claimed:
                # The canonical claim: the highest-priority schema that
                # owns the record.  Claims of the remaining schemas are
                # functionally coupled to it through the closure (same
                # device key ⇒ same canonical claim), so one claim is
                # enough to name the disjointness class.
                return LaneDecision("|".join(sorted(claimed)), "partition")
        return LaneDecision(None, "unclaimed")

    def _claims(
        self, low: dict[str, list[str]] | None
    ) -> dict[str, tuple[str, ...]]:
        """Target schema -> claim strings for one lower-keyed source image."""
        if low is None:
            return {}
        out: dict[str, tuple[str, ...]] = {}
        for schema, groups in self.groups.items():
            claimed = tuple(
                claim for group in groups for claim in group.claims(low)
            )
            if claimed:
                out[schema] = claimed
        return out

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-friendly summary (the CLI and docs use this)."""
        return {
            "source_schema": self.source_schema,
            "partitioned_schemas": list(self.partitioned_schemas),
            "instances": {
                schema: [name for group in groups for name in group.names]
                for schema, groups in sorted(self.groups.items())
            },
            # How each schema's owning instance is found: one prefix
            # lookup ("prefix(extension)") or every predicate ("scan").
            "owner_lookup": {
                schema: " + ".join(group.lookup() for group in groups)
                for schema, groups in sorted(self.groups.items())
            },
            "conflict_attributes": sorted(self.conflict_attributes),
            "serial_reasons": list(SERIAL_REASONS),
        }


def build_routing_plan(
    target: AnalysisTarget,
    report: AnalysisReport | None = None,
    source_schema: str | None = None,
) -> RoutingPlan:
    """Compile the routing oracle for one configuration.

    ``report`` lets a caller that already ran :func:`~repro.analysis.analyze`
    reuse its findings; otherwise the analysis runs here (the LX403
    propagation probes are the commutativity proof the plan is built on).
    Only *active* findings force serialization — suppressed ones are
    operator-approved waivers.
    """
    if report is None:
        report = analyze(target)

    if source_schema is None:
        sources = [i.mapping.source.lower() for i in target.instances]
        source_schema = sources[0] if sources else "ldap"

    # (schema, mapping, rule slice) by identity → those and the instances.
    members: dict[tuple, tuple] = {}
    partitioned: set[str] = set()
    for instance in target.instances:
        if instance.mapping.source.lower() != source_schema:
            continue
        schema = instance.mapping.target.lower()
        if instance.partition is not None:
            partitioned.add(schema)
        wanted = set(instance.deps)
        key_target = instance.mapping.key_target
        if key_target is not None:
            wanted.add(key_target.lower())
        targets = frozenset(
            r.target_low for r in instance.mapping.rules if r.target_low in wanted
        )
        key = (schema, id(instance.mapping), targets)
        members.setdefault(key, (schema, instance.mapping, targets, []))[3].append(
            instance
        )

    groups: dict[str, list[_ClaimGroup]] = {}
    for schema, mapping, targets, instances in members.values():
        groups.setdefault(schema, []).append(
            _ClaimGroup(
                mapping,
                mapping.imager(targets),
                tuple(i.name for i in instances),
                tuple(i.partition for i in instances),
            )
        )

    conflict_attrs = _conflict_attributes(target, report, source_schema)
    return RoutingPlan(
        groups=groups,
        conflict_attributes=conflict_attrs,
        source_schema=source_schema,
        partitioned_schemas=tuple(sorted(partitioned)),
    )


def _conflict_attributes(
    target: AnalysisTarget, report: AnalysisReport, source_schema: str
) -> frozenset[str]:
    """Source-schema attributes entangled in unsuppressed LX403 findings.

    For each active write-write conflict, collect the dependencies of both
    conflicting rules (when their mapping reads the source schema — those
    are the attributes whose change fires the rule) plus the contested
    target attribute itself (it may exist on the source side too, as the
    Originator attributes do)."""
    by_name = {m.name: m for m in target.mappings}
    attrs: set[str] = set()
    for diagnostic in report.diagnostics:
        if diagnostic.code != "LX403":
            continue
        involved = [(diagnostic.mapping, diagnostic.rule)]
        involved.extend(
            (name, diagnostic.rule) for name, _span in diagnostic.related
        )
        for mapping_name, rule_target in involved:
            mapping = by_name.get(mapping_name or "")
            if mapping is None or rule_target is None:
                continue
            for rule in mapping.rules:
                if rule.target.lower() != rule_target.lower():
                    continue
                attrs.add(rule.target.lower())
                if mapping.source.lower() == source_schema:
                    attrs.update(rule.deps)
    return frozenset(attrs)
