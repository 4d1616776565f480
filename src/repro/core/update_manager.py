"""The Update Manager (UM) — the central component of MetaComm.

Figure 1 / section 4.4: the UM "keeps the data in the LDAP directory
synchronized with the data in the telecom devices.  It responds to update
requests that originate from client applications such as the WBA, or from
one of the devices, and it ensures that after an update is applied, the
information in all devices and directories remains consistent."

The flow implemented here is the paper's:

* **LDAP-originated updates** (WBA, browsers): LTAP traps the request,
  holds the entry lock, and fires the UM's AFTER trigger.  The trigger
  builds a lexpress descriptor and claims its serial on the update queue;
  once the queue says it is the descriptor's turn, the staged
  update-sequence pipeline of :mod:`repro.core.pipeline` runs (closure
  enrichment, per-device planning, fan-out, fold-back merge,
  supplemental LDAP write) — all while the lock is held.

* **Direct device updates (DDUs)**: the device filter hears the commit
  notification, builds a descriptor, and the UM forwards it through the
  LDAP filter to LTAP, where locks are obtained and the update re-enters
  as an LDAP event whose *origin* is the device.  The fan-out then
  *reapplies* the update to the originating device as conditional
  operations — the write-write consistency technique of sections 4.4/5.4.

* **Failures**: a device that rejects an update aborts the remaining
  sequence; the error is logged into the directory and the administrator
  notified (section 4.4).  Abort and saga compensation are pipeline
  failure policies, identical in serial and device-link fan-out modes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..ldap.backend import ChangeType
from ..ldap.protocol import (
    AddRequest,
    DeleteRequest,
    LdapRequest,
    ModifyRdnRequest,
    ModifyRequest,
    ModOp,
    Session,
)
from ..ldap.result import ServerBusyError
from ..ldap.server import LdapServer
from ..lexpress.closure import ClosureEngine
from ..lexpress.descriptor import TargetUpdate, UpdateDescriptor, UpdateOp
from ..lexpress.mapping import CompiledMapping
from ..lexpress.partition import PartitionConstraint
from ..ltap.connection import ConnectionManager
from ..ltap.gateway import LtapGateway
from ..ltap.triggers import Trigger, TriggerEvent
from ..obs.events import (
    DDU_RECEIVED,
    SAGA_COMPENSATED,
    UPDATE_DONE,
    EventJournal,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import OBS_DONE, OBS_TRACE, new_trace_id
from .errorlog import ErrorLog
from .filters.base import Filter, FilterError
from .filters.device_filter import DeviceFilter
from .filters.ldap_filter import LdapFilter
from .pipeline import FailurePolicy, UpdateSequencePipeline
from .queue import QueuedUpdate, QueueSaturatedError, UpdateQueue


@dataclass
class DeviceBinding:
    """One integrated device: its filter, its schema pair, its partition."""

    filter: DeviceFilter
    to_ldap: CompiledMapping
    from_ldap: CompiledMapping
    partition: PartitionConstraint | None = None

    @property
    def name(self) -> str:
        return self.filter.name


class UpdateManager:
    """Coordinator lanes + update queue + staged pipeline fan-out."""

    def __init__(
        self,
        server: LdapServer,
        gateway: LtapGateway,
        ldap_filter: LdapFilter,
        bindings: Iterable[DeviceBinding],
        error_log: ErrorLog,
        abort_on_failure: bool = True,
        undo_on_failure: bool = False,
        registry: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
        coordinator_lanes: int = 1,
        routing_plan=None,
        lane_depth_limit: int | None = None,
        busy_policy: str = "reject",
        busy_timeout: float = 0.5,
    ):
        self.server = server
        self.gateway = gateway
        self.ldap_filter = ldap_filter
        bindings = list(bindings)
        self.error_log = error_log
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Shared with the queue and the pipeline (and their derived
        #: metrics); also where each DDU's journey closes (``update.done``).
        self.journal = journal or EventJournal(registry=self.registry)
        self.coordinator_lanes = max(1, coordinator_lanes)
        self.routing_plan = routing_plan
        if busy_policy not in ("reject", "defer"):
            raise ValueError("busy_policy must be 'reject' or 'defer'")
        #: Admission policy when a lane is at its depth limit: ``reject``
        #: answers ServerBusy immediately, ``defer`` waits up to
        #: ``busy_timeout`` seconds for capacity first.
        self.busy_policy = busy_policy
        self.busy_timeout = busy_timeout
        # One lane is the paper's single global queue; more lanes spread
        # the routing oracle's provably-commuting updates over concurrent
        # coordinator lanes, with everything unprovable serialized behind
        # the barrier.
        self.queue = UpdateQueue(
            routing_plan if self.coordinator_lanes > 1 else None,
            lanes=self.coordinator_lanes,
            registry=self.registry,
            journal=self.journal,
            depth_limit=lane_depth_limit,
        )
        self.connections = ConnectionManager(self._handle_connection_event)
        #: How long a blocked trigger waits for its sequence's turn before
        #: giving up (section 4.4's serialized discipline means a stuck
        #: sequence must surface, not hang).
        self.coordinator_timeout: float = 30.0
        self._ldap_events = self.registry.counter(
            "metacomm_um_ldap_events_total",
            "Trigger events received from LTAP (LDAP-originated updates)",
        )
        self._ddus = self.registry.counter(
            "metacomm_um_ddus_total",
            "Direct device updates received from device filters",
            labelnames=("device",),
        )
        self._compensated = self.registry.counter(
            "metacomm_um_compensated_total",
            "Saga-style compensations of already-applied device updates",
            labelnames=("device",),
        )
        self.journal.derive(DDU_RECEIVED, self._ddus)
        self.journal.derive(SAGA_COMPENSATED, self._compensated)
        self._connection_events = self.registry.counter(
            "metacomm_um_connection_events_total",
            "Events delivered over explicit LTAP action connections",
            labelnames=("kind",),
        )
        self._sequence_seconds = self.registry.histogram(
            "metacomm_um_sequence_seconds",
            "Duration of one full update sequence (closure, fan-out, "
            "supplemental write)",
        )

        mappings: dict[str, CompiledMapping] = {}
        for binding in bindings:
            mappings.setdefault(binding.to_ldap.name, binding.to_ldap)
            mappings.setdefault(binding.from_ldap.name, binding.from_ldap)

        #: The staged update-sequence pipeline: enrich → plan → fanout →
        #: merge → supplemental, with abort/saga as explicit policies.
        #: ``bindings`` and ``closure`` live here; the UM's attributes of
        #: the same names are views onto the pipeline's.
        self.pipeline = UpdateSequencePipeline(
            bindings=bindings,
            closure=ClosureEngine(mappings.values()),
            ldap_filter=ldap_filter,
            error_log=error_log,
            policy=FailurePolicy(
                abort_on_failure=abort_on_failure,
                undo_on_failure=undo_on_failure,
            ),
            registry=self.registry,
            # Late-bound so a monkeypatched ``um._compensate`` is honored.
            compensate=lambda applied, trace=None: self._compensate(
                applied, trace
            ),
            journal=self.journal,
        )

        gateway.register_trigger(
            Trigger(
                action=self._on_ldap_event,
                base=self.ldap_filter.people_base,
                filter="(objectClass=person)",
                name="metacomm-um",
            )
        )
        for binding in self.bindings:
            binding.filter.on_ddu(self._on_ddu)

    # -- pipeline views ------------------------------------------------------------

    @property
    def bindings(self) -> list[DeviceBinding]:
        """The device bindings, shared with the pipeline — appending a
        binding at run time (section 4.2's dynamic integration) affects
        both."""
        return self.pipeline.bindings

    @bindings.setter
    def bindings(self, bindings: Iterable[DeviceBinding]) -> None:
        self.pipeline.bindings = list(bindings)

    @property
    def closure(self) -> ClosureEngine:
        return self.pipeline.closure

    @closure.setter
    def closure(self, closure: ClosureEngine) -> None:
        self.pipeline.closure = closure

    # -- failure policy knobs (delegated to the pipeline) -------------------------

    @property
    def abort_on_failure(self) -> bool:
        return self.pipeline.policy.abort_on_failure

    @abort_on_failure.setter
    def abort_on_failure(self, value: bool) -> None:
        self.pipeline.policy = FailurePolicy(
            abort_on_failure=value,
            undo_on_failure=self.pipeline.policy.undo_on_failure,
        )

    @property
    def undo_on_failure(self) -> bool:
        """Section 4.4 future work: compensate already-applied device
        updates when a later one fails — the saga technique."""
        return self.pipeline.policy.undo_on_failure

    @undo_on_failure.setter
    def undo_on_failure(self, value: bool) -> None:
        self.pipeline.policy = FailurePolicy(
            abort_on_failure=self.pipeline.policy.abort_on_failure,
            undo_on_failure=value,
        )

    @property
    def statistics(self) -> dict[str, int]:
        """``{"reapplied": n}``, kept only for ``perfbench/run.py``, which
        reads that key; every other count is read from :attr:`registry`."""
        reapplied = self.registry.value("metacomm_um_reapplied_total")
        return {"reapplied": int(reapplied)}

    # -- connection sink (persistent connections deliver sync batches) -----------

    def _handle_connection_event(self, event, connection) -> None:
        # Events arriving over explicit connections are already descriptors
        # processed elsewhere; the manager only counts them.
        kind = (
            "persistent"
            if getattr(connection, "persistent", False)
            else "single_shot"
        )
        self._connection_events.labels(kind=kind).inc()

    # -- admission control (the LTAP gateway hook) ----------------------------------

    def admission_check(self, request: LdapRequest, session: Session) -> None:
        """Gate one inbound LTAP update on coordinator-lane capacity.

        Installed as :attr:`LtapGateway.admission` when a
        ``lane_depth_limit`` is configured: runs *before* the directory
        write, builds a best-effort descriptor from the request so the
        routing oracle can name the lane the update would land on, and
        defers (``busy_policy="defer"``) or rejects with
        :class:`~repro.ldap.result.ServerBusyError` when that lane is at
        its depth limit.  A rejected update never reaches the directory,
        so nothing is lost, duplicated, or left to compensate."""
        if self.queue.depth_limit is None:
            return
        rename = isinstance(request, ModifyRdnRequest)
        descriptor = self._probe_descriptor(request)
        if descriptor is None:
            return
        timeout = self.busy_timeout if self.busy_policy == "defer" else None
        trace = session.state.get(OBS_TRACE) if session is not None else None
        try:
            self.queue.admit(
                descriptor, rename=rename, timeout=timeout, trace=trace
            )
        except QueueSaturatedError as exc:
            raise ServerBusyError(str(exc)) from exc

    def _probe_descriptor(
        self, request: LdapRequest
    ) -> UpdateDescriptor | None:
        """A descriptor approximating the one the real claim will build.

        Adds carry their full new image, so their lane is exact.  Modify
        and delete probes use the entry's *current* image (the request has
        not been applied yet) — the lane key derives from the record's
        device-key claims, which a plain modify does not move, so the
        approximation only drifts for cross-partition moves the real
        claim serializes anyway."""
        if isinstance(request, AddRequest):
            attrs = request.entry.attributes.to_dict()
            return UpdateDescriptor(
                op=UpdateOp.ADD,
                source="ldap",
                key=str(request.entry.dn),
                old=None,
                new=attrs,
                explicit=frozenset(n.lower() for n in attrs),
                origin="ldap",
            )
        if isinstance(
            request, (ModifyRequest, DeleteRequest, ModifyRdnRequest)
        ):
            entry = self.gateway._snapshot(request.dn)
            attrs = entry.attributes.to_dict() if entry is not None else None
            if isinstance(request, DeleteRequest):
                return UpdateDescriptor(
                    op=UpdateOp.DELETE,
                    source="ldap",
                    key=str(request.dn),
                    old=attrs,
                    new=None,
                    explicit=frozenset(
                        n.lower() for n in (attrs or {})
                    ),
                    origin="ldap",
                )
            new = dict(attrs) if attrs else {}
            explicit: set[str] = set()
            if isinstance(request, ModifyRequest):
                for mod in request.modifications:
                    explicit.add(mod.attribute.lower())
                    if mod.op is ModOp.DELETE and not mod.values:
                        new.pop(mod.attribute, None)
                    elif mod.values:
                        new[mod.attribute] = list(mod.values)
            return UpdateDescriptor(
                op=UpdateOp.MODIFY,
                source="ldap",
                key=str(request.dn),
                old=attrs,
                new=new or None,
                explicit=frozenset(explicit),
                origin="ldap",
            )
        return None

    # -- LDAP event intake ---------------------------------------------------------

    def _on_ldap_event(self, event: TriggerEvent) -> None:
        self._ldap_events.inc()
        state = event.session.state
        trace = state.get(OBS_TRACE)
        started = time.perf_counter()
        descriptor = self.pipeline.intake_event(event)
        done = state.get(OBS_DONE)
        if done is not None:
            done["stages"]["stage.intake"] = time.perf_counter() - started
        if descriptor is None:
            return
        # The descriptor folds a ModifyRDN into a MODIFY keyed by the new
        # DN, so the routing oracle needs the operation kind from the
        # trigger event to route renames onto the serial lane.
        rename = event.change_type is ChangeType.MODIFY_RDN
        # Section 4.4's coordinator: the client thread that claimed the
        # descriptor runs its sequence once the queue says it is its turn,
        # ordered against concurrent claims from other client threads.
        item = self.queue.claim(descriptor, trace=trace, rename=rename)
        try:
            if not self.queue.wait_turn(
                item, timeout=self.coordinator_timeout, trace=trace
            ):
                raise RuntimeError(
                    f"lane {item.lane} barrier wait gave up "
                    f"on serial {item.serial}"
                )
            self._process(item, event.session)
        finally:
            self.queue.finish(item)

    # -- DDU intake -------------------------------------------------------------------

    def _on_ddu(self, source_filter: Filter, descriptor: UpdateDescriptor) -> None:
        """Section 4.4's DDU sequence: device filter → LDAP filter → LTAP.

        The DDU owns its journey's trace: the forwarded LTAP write and the
        sequence it triggers time their stages into this trace, and the
        closing ``update.done`` is emitted here."""
        binding = self._binding_of(source_filter)
        started = time.perf_counter()
        key = str(descriptor.key)
        trace = new_trace_id() if self.journal.enabled else None
        self.journal.emit(
            DDU_RECEIVED,
            trace=trace,
            device=binding.name,
            op=descriptor.op.value,
            key=key,
        )
        session = Session()
        done = {
            "name": "ddu",
            "device": binding.name,
            "key": key,
            "serial": None,
            "stages": {},
        }
        stages = done["stages"]
        try:
            begun = time.perf_counter()
            update = self.pipeline.intake_ddu(binding, descriptor)
            forwarding = time.perf_counter()
            stages["ddu.translate"] = forwarding - begun
            if update is None:
                return
            if trace is not None:
                session.state[OBS_TRACE] = trace
                session.state[OBS_DONE] = done
            try:
                self.ldap_filter.forward_ddu(
                    update, origin=binding.name, session=session
                )
            except FilterError as exc:
                self.pipeline.aborted_total.labels(target="ldap").inc()
                self.error_log.record(
                    target="ldap",
                    message=str(exc),
                    context=f"DDU from {binding.name} key={descriptor.key}",
                )
            # The forward's own share: what the LTAP write and the
            # sequence it triggered did not time themselves.
            nested = sum(stages.values()) - stages["ddu.translate"]
            stages["ddu.forward"] = time.perf_counter() - forwarding - nested
        finally:
            if trace is not None:
                done["duration"] = time.perf_counter() - started
                self.journal.emit(UPDATE_DONE, trace=trace, **done)

    def _binding_of(self, source_filter: Filter) -> DeviceBinding:
        for binding in self.bindings:
            if binding.filter is source_filter:
                return binding
        raise KeyError(f"no binding for filter {source_filter!r}")

    # -- the coordinator --------------------------------------------------------------

    def _process(self, item: QueuedUpdate, session: Session) -> None:
        state = session.state if session is not None else {}
        done = state.get(OBS_DONE)
        if done is not None:
            done["serial"] = item.serial
            if item.enqueued_at:
                # The enqueue→dequeue leg, as the queue measured it when
                # the item's turn came (``update.claimed``'s ``waited``).
                done["stages"]["queue.wait"] = item.waited
        start = time.perf_counter()
        try:
            self.pipeline.run(
                item.descriptor, session, state.get(OBS_TRACE), serial=item.serial
            )
        finally:
            self._sequence_seconds.observe(time.perf_counter() - start)

    def _compensate(
        self,
        applied: list[tuple[DeviceBinding, TargetUpdate, dict | None]],
        trace=None,
    ) -> None:
        """Undo already-applied device updates in reverse order (sagas)."""
        for binding, update, before in reversed(applied):
            try:
                started = time.perf_counter()
                binding.filter.compensate(update, before)
                self.journal.emit(
                    SAGA_COMPENSATED,
                    trace=trace,
                    device=binding.name,
                    action=update.action.value,
                    key=update.key,
                    duration=round(time.perf_counter() - started, 6),
                )
            except Exception as exc:  # compensation is best-effort
                self.error_log.record(
                    target=binding.name,
                    message=f"compensation failed: {exc}",
                    context=f"undo of {update.action.value} key={update.key}",
                )

    # -- public status -------------------------------------------------------------------

    def binding(self, name: str) -> DeviceBinding:
        for binding in self.bindings:
            if binding.name == name:
                return binding
        raise KeyError(f"no device binding named {name!r}")
