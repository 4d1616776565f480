"""The staged update-sequence pipeline of the Update Manager.

Section 4.4 describes one *serialized* update sequence: closure
enrichment, fan-out to every device repository, fold-back of
device-generated information, and a supplemental LDAP write ("update the
LDAP Server after all other devices are updated", section 5.5).  The seed
implemented that sequence as one monolithic method; this module breaks it
into explicit stages with first-class plan/outcome objects:

* **intake** — build the :class:`~repro.lexpress.descriptor.UpdateDescriptor`
  that enters the sequence, whether it originates at LTAP (an LDAP event)
  or at a device (a DDU being translated for forwarding).  Both paths
  funnel through here so they share instrumentation and semantics.
* **enrich** — run the transitive closure over the LDAP image.
* **plan** — translate the enriched descriptor for *every* device binding
  up front (partition routing, Originator/conditional marking) and capture
  each repository's before-image for saga compensation.  The result is an
  :class:`UpdatePlan` holding one :class:`DevicePlan` per affected device.
* **fanout** — apply the planned updates to the device repositories,
  either inline and serially (the paper's discipline) or through the
  event-driven device links of :mod:`repro.devices.links` (see below).
* **merge** — fold the closure-derived attributes and every device echo
  (defaults, truncations, generated ids) into one supplemental image.
  Attribute names are merged *case-insensitively* — LDAP attribute names
  are caseless, so a device echoing ``telephonenumber`` must land on the
  same canonical key as the closure's ``telephoneNumber``.
* **supplemental** — write the merged image back through the LDAP filter,
  re-entering the originating session's entry lock.

Why device-link fan-out preserves the serialization discipline
----------------------------------------------------------------

The update queue serializes *sequences* that do not provably commute
(docs/CONCURRENCY.md).  Within a sequence, each device binding receives at
most one translated update, and the device repositories are disjoint
(partitioned PBXes, the Messaging Platform).  In links mode the stage
submits every plan's apply onto its device's link before awaiting any of
them; each link is a FIFO whose batches execute strictly in submission
order, so the per-repository apply order seen by any single device is the
order in which the sequences reached the fan-out stage — the queue's
order, the same history serial mode produces.  Overlapping round-trips to
*different* devices cannot reorder any one device's history.

Failure policies run *after* the fan-out barrier (every link future
awaited), replaying the device outcomes in binding order — so error-log
records, abort decisions and saga-compensation order are byte-for-byte
identical in both modes.  In links mode a device that committed *after*
the abort point (its op was already on its link when a predecessor
failed) is rolled back to its before-image, restoring exactly the state
serial mode would have left.  The barrier also guarantees the
section-5.5 ordering of the supplemental write in both modes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

from ..ldap.backend import ChangeType
from ..ldap.dn import DN
from ..ldap.protocol import Session
from ..lexpress.closure import ClosureEngine
from ..lexpress.descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
    changed_names,
)
from ..ltap.triggers import TriggerEvent
from ..obs.events import (
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    DEVICE_ROLLBACK,
    SEQUENCE_ABORTED,
    UPDATE_DONE,
    Event,
    EventJournal,
)
from ..obs.metrics import LabelCache, MetricsRegistry
from ..obs.trace import OBS_DONE
from .errorlog import ErrorLog
from .filters.base import ApplyResult, FilterError
from .filters.ldap_filter import LdapFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..devices.links import DeviceLink
    from .update_manager import DeviceBinding

__all__ = [
    "STAGES",
    "DeviceOutcome",
    "DevicePlan",
    "FailurePolicy",
    "SequenceOutcome",
    "UpdatePlan",
    "UpdateSequencePipeline",
    "merge_attrs",
]

#: The stages of one update sequence, in execution order.
STAGES = ("intake", "enrich", "plan", "fanout", "merge", "supplemental")

#: Span names per stage — the keys under which each stage is timed into
#: the open journey's ``stages``, which its closing ``update.done``
#: carries.  ``enrich`` and ``supplemental`` keep their historical names
#: so existing trace consumers stay valid.
STAGE_SPANS = {
    "intake": "stage.intake",
    "enrich": "closure.enrich",
    "plan": "stage.plan",
    "fanout": "stage.fanout",
    "merge": "stage.merge",
    "supplemental": "ldap.supplemental",
}
_SPAN_STAGES = {span: stage for stage, span in STAGE_SPANS.items()}


def merge_attrs(
    dest: dict[str, list[str]],
    src: Mapping[str, list[str]],
    names: dict[str, str] | None = None,
) -> dict[str, list[str]]:
    """Merge ``src`` into ``dest`` with case-insensitive attribute names.

    LDAP attribute names are caseless, but ``dict.update`` is not: a
    device echoing ``telephonenumber`` used to shadow or duplicate the
    closure's ``telephoneNumber``.  Each attribute keeps exactly one
    canonical key — the spelling already in ``dest`` wins, new attributes
    keep the spelling of their first appearance.  *names* maps each of
    ``dest``'s names, lower-cased, to its spelling; a caller folding
    several sources into one ``dest`` passes the same map to every call,
    which keeps it current.  Returns ``dest``.
    """
    if names is None:
        names = {name.lower(): name for name in dest}
    for name, values in src.items():
        existing = names.setdefault(name.lower(), name)
        dest[existing] = list(values)
    return dest


def _base_supplement(enriched: UpdateDescriptor) -> dict[str, list[str]]:
    """The supplemental write's base: the enriched new image with one key
    per attribute.  An image whose lower-keyed view has as many names as
    it has already has one, so it is taken as it is (sharing its lists);
    otherwise the first spelling of a name and its values win, the rule of
    ``descriptor.lowered()``."""
    if enriched.op is UpdateOp.DELETE or enriched.new is None:
        return {}
    if len(enriched.lowered()[1]) == len(enriched.new):
        return dict(enriched.new)
    first: dict[str, tuple[str, list[str]]] = {}
    for name, values in enriched.new.items():
        first.setdefault(name.lower(), (name, values))
    return dict(first.values())


@dataclass(frozen=True)
class FailurePolicy:
    """What happens when a device rejects its planned update.

    ``abort_on_failure`` — stop the remaining sequence (section 4.4's
    shipped behaviour).  ``undo_on_failure`` — saga-style compensation of
    the device updates already applied (section 4.4's sketched future).
    Both act on the fan-out outcomes *in binding order*, so their effects
    are identical whether the fan-out ran inline or over device links.
    """

    abort_on_failure: bool = True
    undo_on_failure: bool = False


@dataclass
class DevicePlan:
    """One device's share of an update sequence, computed up front."""

    index: int
    binding: "DeviceBinding"
    update: TargetUpdate
    #: The repository's pre-update image (saga compensation input).
    before: dict[str, list[str]] | None = None


@dataclass
class UpdatePlan:
    """Everything the fan-out stage needs, fixed before any device write."""

    descriptor: UpdateDescriptor
    enriched: UpdateDescriptor
    serial: int = 0
    #: Closure-derived LDAP image (the base of the supplemental write).
    base_supplement: dict[str, list[str]] = field(default_factory=dict)
    device_plans: list[DevicePlan] = field(default_factory=list)


@dataclass
class DeviceOutcome:
    """What one :class:`DevicePlan` produced at its repository."""

    plan: DevicePlan
    #: False when the plan was never attempted (sequence aborted first).
    executed: bool = False
    result: ApplyResult | None = None
    error: FilterError | None = None
    #: A non-FilterError escape (re-raised after the fan-out barrier).
    unexpected: Exception | None = None
    #: Device echo / generated attributes for the fold-back merge.
    supplement: dict[str, list[str]] = field(default_factory=dict)
    #: True when links mode undid a commit past the abort point.
    rolled_back: bool = False

    @property
    def applied(self) -> bool:
        return self.executed and self.error is None and self.unexpected is None


@dataclass
class SequenceOutcome:
    """The full result of one update sequence through the pipeline."""

    plan: UpdatePlan
    outcomes: list[DeviceOutcome] = field(default_factory=list)
    aborted: bool = False
    #: Binding index of the failure that aborted the sequence.
    abort_index: int | None = None
    #: Device names compensated by the saga policy, in compensation order.
    compensated: list[str] = field(default_factory=list)
    #: Device names rolled back past the abort point (links mode only).
    rolled_back: list[str] = field(default_factory=list)
    supplement: dict[str, list[str]] = field(default_factory=dict)
    supplemental_written: bool = False


class UpdateSequencePipeline:
    """Executes update sequences as explicit stages with a fan-out policy.

    The fan-out mode follows :meth:`attach_links`: without links the
    planned updates are applied inline in the paper's serial device
    order; with links they are submitted onto the event-driven device
    links and awaited at a barrier.
    """

    def __init__(
        self,
        bindings: Iterable["DeviceBinding"],
        closure: ClosureEngine,
        ldap_filter: LdapFilter,
        error_log: ErrorLog,
        policy: FailurePolicy | None = None,
        registry: MetricsRegistry | None = None,
        compensate: Callable[[list, str | None], None] | None = None,
        journal: EventJournal | None = None,
    ):
        self.bindings = list(bindings)
        self.closure = closure
        self.ldap_filter = ldap_filter
        self.error_log = error_log
        self.policy = policy if policy is not None else FailurePolicy()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: One event per lifecycle fact; counters of one kind derive from it.
        self.journal = journal or EventJournal(registry=self.registry)
        self._compensate = compensate
        #: Event-driven device links by binding name (see
        #: :mod:`repro.devices.links`).  When attached, the fan-out stage
        #: dispatches apply closures onto the links instead of applying
        #: inline: one dispatcher thread overlaps every device's round-trip
        #: and coalesces ops into pipelined command streams.
        self._links: dict[str, "DeviceLink"] = {}
        #: The outcome of the most recent sequence (diagnostic handle).
        self.last_outcome: SequenceOutcome | None = None

        self.fanout_total = self.registry.counter(
            "metacomm_um_fanout_total",
            "Translated updates applied to device repositories",
            labelnames=("device",),
        )
        self.reapplied_total = self.registry.counter(
            "metacomm_um_reapplied_total",
            "Conditional reapplications to an update's originating device "
            "(the section-5.4 write-write consistency technique)",
            labelnames=("device",),
        )
        self.aborted_total = self.registry.counter(
            "metacomm_um_aborted_sequences_total",
            "Update sequences aborted by a repository rejection",
            labelnames=("target",),
        )
        self.supplemental_total = self.registry.counter(
            "metacomm_um_supplemental_writes_total",
            "Supplemental LDAP writes (closure-derived and "
            "device-generated attributes folded back, section 5.5)",
        )
        self.rolled_back_total = self.registry.counter(
            "metacomm_um_rolled_back_total",
            "Links-mode rollbacks of device commits past an abort point",
            labelnames=("device",),
        )
        self.journal.derive(DEVICE_ROLLBACK, self.rolled_back_total)
        self.stage_seconds = self.registry.histogram(
            "metacomm_um_stage_seconds",
            "Duration of one pipeline stage of an update sequence",
            labelnames=("stage",),
        )
        self._stage_children = LabelCache(self.stage_seconds)
        self.journal.subscribe(self._observe_done, kinds=(UPDATE_DONE,))
        self._fanout_children = LabelCache(self.fanout_total)
        self._reapplied_children = LabelCache(self.reapplied_total)
        self.parallelism = self.registry.gauge(
            "metacomm_um_fanout_parallelism",
            "Device applies currently in flight in the fan-out stage",
        )

    # -- configuration -----------------------------------------------------------

    def attach_links(self, links: Mapping[str, "DeviceLink"]) -> None:
        """Route fan-out through event-driven device links.

        ``links`` maps binding names to their :class:`DeviceLink`; bindings
        without a link fall back to an inline (blocking) apply."""
        self._links = dict(links)

    # -- stage bookkeeping --------------------------------------------------------

    @staticmethod
    def _lap(stages: dict | None, stage: str, started: float) -> float:
        """Close ``stage``, begun at ``started``: time it into the open
        journey's ``stages`` under its span name and return the clock
        reading, which starts the next stage.  Without an open journey
        no clock is read."""
        if stages is None:
            return 0.0
        now = time.perf_counter()
        stages[STAGE_SPANS[stage]] = now - started
        return now

    def _observe_done(self, event: Event) -> None:
        """The stage histogram and the supplemental-write counter, derived
        from each closing ``update.done``."""
        attributes = event.attributes
        children = self._stage_children
        for span, seconds in attributes["stages"].items():
            stage = _SPAN_STAGES.get(span)
            if stage is not None:
                children[stage].observe(seconds)
        if "supplemental" in attributes:
            self.supplemental_total.inc()

    # -- intake ------------------------------------------------------------------

    def intake_event(self, event: TriggerEvent) -> UpdateDescriptor | None:
        """Build the descriptor for an LDAP-originated update (LTAP event)."""
        return _descriptor_from_event(event)

    def intake_ddu(
        self, binding: "DeviceBinding", descriptor: UpdateDescriptor
    ) -> TargetUpdate | None:
        """Translate a direct device update for forwarding through LTAP.

        Returns ``None`` when the mapping deems the DDU irrelevant.  The
        translated update re-enters the pipeline as an LDAP event once
        LTAP has obtained the proper locks (section 4.4) — so both intake
        paths converge on :meth:`intake_event`.
        """
        update = binding.to_ldap.translate(descriptor)
        if update is None or update.action is TargetAction.SKIP:
            return None
        return update

    # -- enrich + plan ------------------------------------------------------------

    def build_plan(
        self,
        descriptor: UpdateDescriptor,
        serial: int = 0,
        stages: dict[str, float] | None = None,
    ) -> UpdatePlan:
        """Run the enrich and plan stages for one descriptor, timing them
        into ``stages`` (the open journey's, if any)."""
        started = time.perf_counter() if stages is not None else 0.0
        if descriptor.op is UpdateOp.DELETE:
            enriched = descriptor
        else:
            enriched = self._enrich(descriptor)
            started = self._lap(stages, "enrich", started)
        plan = UpdatePlan(
            descriptor=descriptor,
            enriched=enriched,
            serial=serial,
            base_supplement=_base_supplement(enriched),
        )
        routed = self._route_shared(enriched)
        for index, binding in enumerate(self.bindings):
            device_plan = self.plan_device_update(
                binding, enriched, index, routed=routed
            )
            if device_plan is not None:
                plan.device_plans.append(device_plan)
        self._lap(stages, "plan", started)
        return plan

    def _route_shared(
        self, descriptor: UpdateDescriptor
    ) -> list[TargetUpdate | None]:
        """Translate *descriptor* once per distinct ``from_ldap`` mapping and
        route it against every binding sharing that mapping (each PBX
        reuses ``ldap_to_pbx`` with its own partition, section 4.1).
        Indexed like :attr:`bindings`; None marks an unaffected binding.
        The result lives for one :meth:`build_plan` call only — nothing is
        cached on the shared mappings, so concurrent lanes stay safe."""
        groups: dict[int, list[int]] = {}
        for index, binding in enumerate(self.bindings):
            groups.setdefault(id(binding.from_ldap), []).append(index)
        routed: list[TargetUpdate | None] = [None] * len(self.bindings)
        for indexes in groups.values():
            members = [self.bindings[i] for i in indexes]
            updates = members[0].from_ldap.translate(
                descriptor,
                instances=[(b.partition, b.name) for b in members],
            )
            for index, update in zip(indexes, updates):
                routed[index] = update
        return routed

    def plan_device_update(
        self,
        binding: "DeviceBinding",
        descriptor: UpdateDescriptor,
        index: int = 0,
        *,
        routed: list[TargetUpdate | None] | None = None,
    ) -> DevicePlan | None:
        """Translate + partition-route one descriptor for one binding and
        capture the repository's before-image.  Returns ``None`` when the
        binding is not affected (irrelevant mapping or partition miss).

        *routed* carries :meth:`build_plan`'s shared translations, indexed
        like :attr:`bindings`; without it the binding is translated on its
        own."""
        if routed is not None:
            update = routed[index]
        else:
            update = binding.from_ldap.translate(
                descriptor,
                extra_partition=binding.partition,
                target_name=binding.name,
            )
        if update is None or update.action is TargetAction.SKIP:
            return None
        return DevicePlan(
            index=index,
            binding=binding,
            update=update,
            before=binding.filter.before_image(update),
        )

    def _enrich(self, descriptor: UpdateDescriptor) -> UpdateDescriptor:
        """Run the transitive closure; return a descriptor whose new image
        includes all derived LDAP attributes.  The closure reads the
        descriptor's own images, and the enriched descriptor shares every
        value list of the original."""
        old_low, new_low = descriptor.lowered()
        new_low = new_low or {}
        result = self.closure.propagate(
            "ldap",
            descriptor.new or {},
            changed=descriptor.changed_attributes(),
            explicit=descriptor.explicit,
            lowered=new_low,
        )
        merged = dict(descriptor.new or {})
        merged_low = dict(new_low)
        spellings = result.spellings.get("ldap", {})
        for attr, values in result.lowered("ldap").items():
            if attr not in merged_low:
                merged[spellings[attr]] = merged_low[attr] = values
        return UpdateDescriptor.from_images(
            descriptor.op,
            descriptor.source,
            descriptor.key,
            descriptor.old,
            merged,
            descriptor.explicit,
            descriptor.origin,
            lowered=(old_low, merged_low),
        )

    # -- the full sequence ---------------------------------------------------------

    def run(
        self,
        descriptor: UpdateDescriptor,
        session: Session | None,
        trace: str | None = None,
        serial: int = 0,
    ) -> SequenceOutcome:
        """Execute one update sequence: enrich → plan → fanout → merge →
        supplemental.  Failure policies are applied inside the fan-out
        stage; the merge and supplemental stages are skipped for aborted
        sequences and DELETE descriptors (matching section 4.4/5.5).

        When ``session`` carries an open journey (:data:`OBS_DONE`), each
        stage is timed into its ``stages`` and the sequence's findings —
        the planned ``devices``, the fan-out ``mode`` and the supplemental
        write's attribute count — are written into it for the closing
        ``update.done``."""
        done = session.state.get(OBS_DONE) if session is not None else None
        stages = done["stages"] if done is not None else None
        plan = self.build_plan(descriptor, serial=serial, stages=stages)
        outcome = SequenceOutcome(plan=plan)
        self.last_outcome = outcome
        if done is not None:
            done["devices"] = [p.binding.name for p in plan.device_plans]
            done["mode"] = "links" if self._links else "serial"

        started = time.perf_counter() if stages is not None else 0.0
        if self._links:
            outcomes = self._fanout_links(plan.device_plans, trace, serial)
        else:
            outcomes = self._fanout_serial(plan.device_plans, trace, serial)
        outcome.outcomes = outcomes
        self._raise_unexpected(outcomes)
        self._apply_failure_policy(outcome, trace)
        if outcome.aborted:
            self._rollback_past_abort(outcome, trace)
        self._count_applied(outcome)
        started = self._lap(stages, "fanout", started)
        if outcome.aborted:
            return outcome

        supplement = dict(plan.base_supplement)
        names: dict[str, str] | None = None
        for device_outcome in outcome.outcomes:
            if device_outcome.applied and device_outcome.supplement:
                if names is None:
                    names = {name.lower(): name for name in supplement}
                merge_attrs(supplement, device_outcome.supplement, names)
        outcome.supplement = supplement
        started = self._lap(stages, "merge", started)

        if supplement and descriptor.op is not UpdateOp.DELETE:
            dn = DN.parse(descriptor.key) if descriptor.key else None
            if dn is not None:
                wrote = self.ldap_filter.apply_supplemental(
                    dn, supplement, session
                )
                self._lap(stages, "supplemental", started)
                if wrote:
                    outcome.supplemental_written = True
                    if done is not None:
                        done["supplemental"] = len(supplement)
        return outcome

    # -- fan-out executors ---------------------------------------------------------

    def _fanout_serial(
        self, plans: list[DevicePlan], trace: str | None, serial: int = 0
    ) -> list[DeviceOutcome]:
        """The paper's discipline: one device at a time, in binding order,
        stopping at the first failure when the policy says abort."""
        outcomes = [DeviceOutcome(plan=plan) for plan in plans]
        for i, plan in enumerate(plans):
            outcomes[i] = self._apply_one(plan, trace, serial)
            if outcomes[i].unexpected is not None:
                raise outcomes[i].unexpected
            if outcomes[i].error is not None and self.policy.abort_on_failure:
                break
        return outcomes

    def _fanout_links(
        self, plans: list[DevicePlan], trace: str | None, serial: int = 0
    ) -> list[DeviceOutcome]:
        """Event-driven fan-out: each plan's apply closure is queued on its
        device link, where the dispatcher coalesces it with other
        sequences' ops for the same device into one pipelined command
        stream.  The barrier (awaiting every future) still runs before any
        failure policy, so the policy replay — and therefore error-log and
        saga-compensation order — is identical to the serial path."""
        submitted: list[tuple[DevicePlan, object | None]] = []
        for plan in plans:
            link = self._links.get(plan.binding.name)
            if link is None:
                submitted.append((plan, None))
                continue
            future = link.submit(
                lambda p=plan: self._apply_one(p, trace, serial),
                op=plan.update.action.value,
                key=str(plan.update.key),
            )
            submitted.append((plan, future))
        outcomes: list[DeviceOutcome] = []
        for plan, future in submitted:
            if future is None:
                outcomes.append(self._apply_one(plan, trace, serial))
            else:
                outcomes.append(future.result())
        return outcomes

    def _apply_one(
        self, plan: DevicePlan, trace: str | None, serial: int = 0
    ) -> DeviceOutcome:
        """Apply one planned update at its repository (link op body).

        Every attempt emits one timed ``device.commit``/``device.failure``
        journal event — the health board's outcome feed."""
        outcome = DeviceOutcome(plan=plan, executed=True)
        binding, update = plan.binding, plan.update
        started = time.perf_counter()
        with self.parallelism.track():
            try:
                result = binding.filter.apply(update)
            except FilterError as exc:
                outcome.error = exc
                self._note_outcome(outcome, trace, serial, started)
                return outcome
            except Exception as exc:  # re-raised after the barrier
                outcome.unexpected = exc
                self._note_outcome(outcome, trace, serial, started)
                return outcome
            outcome.result = result
            self._note_outcome(outcome, trace, serial, started)
            if update.key is not None and (
                update.action is TargetAction.ADD or result.recovered
            ):
                # A record was (re)created at the device: echo its full
                # view — defaults, truncations, generated ids — back to
                # the directory so both sides agree (section 5.5).
                outcome.supplement = self._echo_supplement(binding, update.key)
            elif result.generated and update.key is not None:
                outcome.supplement = self._generated_supplement(
                    binding, update.key, result.generated
                )
            return outcome

    def _note_outcome(
        self,
        outcome: DeviceOutcome,
        trace: str | None,
        serial: int,
        started: float,
    ) -> None:
        """Publish one apply outcome to the journal."""
        duration = round(time.perf_counter() - started, 6)
        name = outcome.plan.binding.name
        update = outcome.plan.update
        if outcome.applied:
            self.journal.emit(
                DEVICE_COMMIT,
                trace=trace,
                serial=serial,
                device=name,
                action=update.action.value,
                key=update.key,
                conditional=update.conditional,
                duration=duration,
            )
            return
        error = outcome.error
        self.journal.emit(
            DEVICE_FAILURE,
            trace=trace,
            serial=serial,
            device=name,
            action=update.action.value,
            key=update.key,
            conditional=update.conditional,
            error=error.message if error is not None else str(outcome.unexpected),
            duration=duration,
        )

    def _count_applied(self, outcome: SequenceOutcome) -> None:
        """Account the fan-out counters once the sequence's fate is known.

        Counting after the policy pass (instead of inside the link ops)
        keeps the totals identical in serial and links modes: a
        speculative commit that was rolled back past an abort point never
        counts as fanned out — it shows up in ``rolled_back_total``."""
        for device_outcome in outcome.outcomes:
            if not device_outcome.applied or device_outcome.rolled_back:
                continue
            name = device_outcome.plan.binding.name
            self._fanout_children[name].inc()
            if device_outcome.plan.update.conditional:
                self._reapplied_children[name].inc()

    def _raise_unexpected(self, outcomes: list[DeviceOutcome]) -> None:
        for outcome in outcomes:
            if outcome.unexpected is not None:
                raise outcome.unexpected

    # -- failure policies ----------------------------------------------------------

    def _apply_failure_policy(
        self, outcome: SequenceOutcome, trace: str | None
    ) -> None:
        """Replay the fan-out outcomes in binding order, producing exactly
        the error-log records, abort decision and saga compensations that
        serial execution interleaves with its applies.  Deterministic by
        construction: the replay order is the binding order, regardless of
        the order in which the device links actually completed."""
        applied: list[tuple] = []
        for device_outcome in outcome.outcomes:
            if not device_outcome.executed:
                continue
            plan = device_outcome.plan
            if device_outcome.error is None:
                applied.append((plan.binding, plan.update, plan.before))
                continue
            exc = device_outcome.error
            self.aborted_total.labels(target=plan.binding.name).inc()
            self.error_log.record(
                target=plan.binding.name,
                message=exc.message,
                context=(
                    f"update serial={outcome.plan.serial} key={plan.update.key}"
                ),
            )
            if self.policy.undo_on_failure:
                outcome.compensated.extend(
                    binding.name for binding, _, _ in reversed(applied)
                )
                if self._compensate is not None:
                    self._compensate(applied, trace)
            if self.policy.abort_on_failure:
                outcome.aborted = True
                outcome.abort_index = plan.index
                self.journal.emit(
                    SEQUENCE_ABORTED,
                    trace=trace,
                    serial=outcome.plan.serial,
                    device=plan.binding.name,
                    error=exc.message,
                )
                break

    def _rollback_past_abort(
        self, outcome: SequenceOutcome, trace: str | None
    ) -> None:
        """Undo commits past the abort point (links mode only).

        In serial mode a device past the failure is simply never reached;
        in links mode every plan was already submitted, so a later device
        may have committed before the policy replay discovered the abort.
        Restoring those repositories to their before-images re-establishes
        the serial post-abort state.  Distinct from saga compensation:
        this is a concurrency artifact, counted separately and applied in
        reverse binding order."""
        if outcome.abort_index is None:
            return
        late = [
            device_outcome
            for device_outcome in outcome.outcomes
            if device_outcome.applied
            and device_outcome.plan.index > outcome.abort_index
        ]
        for device_outcome in reversed(late):
            plan = device_outcome.plan
            try:
                started = time.perf_counter()
                plan.binding.filter.compensate(plan.update, plan.before)
                device_outcome.rolled_back = True
                outcome.rolled_back.append(plan.binding.name)
                self.journal.emit(
                    DEVICE_ROLLBACK,
                    trace=trace,
                    serial=outcome.plan.serial,
                    device=plan.binding.name,
                    key=plan.update.key,
                    duration=round(time.perf_counter() - started, 6),
                )
            except Exception as exc:  # rollback is best-effort
                self.error_log.record(
                    target=plan.binding.name,
                    message=f"rollback failed: {exc}",
                    context=(
                        f"undo of {plan.update.action.value} "
                        f"key={plan.update.key} past abort point"
                    ),
                )

    # -- fold-back supplements -------------------------------------------------------

    def _echo_supplement(
        self, binding: "DeviceBinding", key: str
    ) -> dict[str, list[str]]:
        """The device's committed view of a freshly created record, mapped
        back into LDAP attributes (excluding the Originator stamp, which
        must reflect who really made the update)."""
        record = binding.filter.fetch(key)
        if record is None:
            return {}
        image = binding.to_ldap.image(record) or {}
        return {
            name: values
            for name, values in image.items()
            if name.lower() != "lastupdater"
        }

    def _generated_supplement(
        self,
        binding: "DeviceBinding",
        key: str,
        generated: dict[str, list[str]],
    ) -> dict[str, list[str]]:
        """Fold device-generated information back toward LDAP (section 5.5).

        Only attributes that *derive from* the generated fields are folded
        back: the full committed record is mapped once with and once
        without those fields, and the difference is the supplement."""
        record = binding.filter.fetch(key)
        if record is None:
            return {}
        without = {
            name: values
            for name, values in record.items()
            if name.lower() not in {g.lower() for g in generated}
        }
        image_full = binding.to_ldap.image(record) or {}
        image_without = binding.to_ldap.image(without) or {}
        out: dict[str, list[str]] = {}
        for name, values in image_full.items():
            if image_without.get(name) != values:
                out[name] = values
        return out


def _descriptor_from_event(event: TriggerEvent) -> UpdateDescriptor | None:
    """The LDAP-event half of intake: one trigger event → one descriptor.

    Both images and their lower-keyed views come straight from the
    entries' stored forms (:meth:`Attributes.images`), and every later
    stage reads these same dicts: nothing downstream re-copies or
    re-folds them."""
    origin = str(event.session.state.get("metacomm.origin", "ldap"))
    old = old_low = new = new_low = None
    if event.before is not None:
        old, old_low = event.before.attributes.images()
    if event.after is not None:
        new, new_low = event.after.attributes.images()
    if event.change_type is ChangeType.ADD:
        op = UpdateOp.ADD
    elif event.change_type is ChangeType.DELETE:
        op = UpdateOp.DELETE
    else:
        op = UpdateOp.MODIFY
        if old is None or new is None:
            return None
    key = str(event.after.dn if event.after is not None else event.dn)
    if old_low is not None and new_low is not None:
        explicit = changed_names(old_low, new_low)
    elif new_low is not None:
        explicit = frozenset(new_low)
    else:
        explicit = frozenset()
    # Stamp the update's source so the Originator machinery (section
    # 5.4) sees who really made this change, not a stale value.
    if new is not None:
        spelled = event.after.attributes.spelling("lastUpdater")
        if spelled is not None:
            del new[spelled], new_low["lastupdater"]
        new["lastUpdater"] = new_low["lastupdater"] = [origin]
    return UpdateDescriptor.from_images(
        op,
        "ldap",
        key,
        old,
        new,
        explicit,
        origin,
        lowered=(old_low, new_low),
    )
