"""The LTAP gateway.

"LTAP works as a gateway that pretends to be an LDAP server — LDAP
commands intended for the LDAP server are intercepted by LTAP which does
trigger processing in addition to servicing the original LDAP command."
(paper section 4.3.)

The gateway implements the same handler interface as
:class:`~repro.ldap.server.LdapServer`, so any client — the WBA, an
off-the-shelf browser, the Update Manager's own filters — can be pointed
at it transparently.  For each update it:

1. waits out a quiesce (unless the session owns it) — section 5.1's
   isolation facility for synchronization requests;
2. acquires the per-entry lock on behalf of the client session;
3. fires BEFORE triggers (which may veto);
4. forwards the operation to the real server;
5. fires AFTER triggers — in MetaComm this is the hook that drives the
   Update Manager — while still holding the lock;
6. releases the lock.

Read operations are forwarded without trigger processing.  In *gateway*
mode that is the end of the story: the UM machine does no read work, the
scalability argument of section 5.5.  In *library* mode (LTAP bound into
the UM process) every read also costs the UM a unit of work, modelled by
the ``read_tax`` callback.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..ldap.backend import ChangeType
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.protocol import (
    AddRequest,
    BindRequest,
    CompareRequest,
    DeleteRequest,
    LdapRequest,
    LdapResponse,
    LdapResult,
    ModifyRdnRequest,
    ModifyRequest,
    SearchRequest,
    Session,
    UnbindRequest,
)
from ..ldap.result import BusyError, LdapError, ResultCode
from ..ldap.server import LdapServer
from ..obs.events import UPDATE_DONE, EventJournal
from ..obs.metrics import LabelCache, MetricsRegistry
from ..obs.trace import OBS_DONE, OBS_TRACE, new_trace_id
from ..obs.views import StatsView
from .acl import AccessControl
from .locks import LockManager
from .triggers import Trigger, TriggerEvent, TriggerRegistry, TriggerTiming

_READ_REQUESTS = (SearchRequest, CompareRequest, BindRequest, UnbindRequest)

#: Session-state key: when true, triggers are not fired for this session's
#: updates (used by internal bookkeeping writers, never by device paths).
SUPPRESS_TRIGGERS = "ltap.suppress_triggers"


class Quiesce:
    """Context manager handle for a quiesce period (see section 5.1)."""

    def __init__(self, gateway: "LtapGateway", owner: Session):
        self.gateway = gateway
        self.owner = owner

    def __enter__(self) -> "Quiesce":
        return self

    def __exit__(self, *exc_info) -> None:
        self.gateway.release_quiesce(self.owner)


class LtapGateway:
    """A trigger-adding proxy in front of an LDAP server."""

    def __init__(
        self,
        server: LdapServer,
        lock_timeout: float = 5.0,
        library_mode: bool = False,
        read_tax: Callable[[], None] | None = None,
        access_control: "AccessControl | None" = None,
        registry: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
    ):
        self.server = server
        #: Optional section-7 security model (see :mod:`repro.ltap.acl`).
        self.access_control = access_control
        self.locks = LockManager(default_timeout=lock_timeout)
        self.triggers = TriggerRegistry()
        self.library_mode = library_mode
        self.read_tax = read_tax
        #: Where each triggering update's journey closes (``update.done``);
        #: without one (or disabled) no trace is opened.
        self.journal = journal
        #: Optional admission hook, called with ``(request, session)``
        #: before any lock or directory write.  Raising
        #: :class:`~repro.ldap.result.ServerBusyError` turns the update
        #: away with a typed busy result — the top of the backpressure
        #: chain that starts at the device links (docs/DEVICE_LINKS.md).
        self.admission: Callable[[LdapRequest, Session], None] | None = None
        self._quiesce_lock = threading.Condition()
        self._quiesce_owner: Session | None = None
        registry = registry if registry is not None else MetricsRegistry()
        self._requests = registry.counter(
            "metacomm_ltap_requests_total",
            "LDAP requests intercepted by the LTAP gateway",
            labelnames=("kind",),
        )
        self._rejected = registry.counter(
            "metacomm_ltap_updates_rejected_total",
            "Updates rejected by LTAP (veto, lock timeout, server error)",
        )
        self._quiesce_waits = registry.counter(
            "metacomm_ltap_quiesce_waits_total",
            "Updates turned away while a synchronization quiesce was held",
        )
        self._busy = registry.counter(
            "metacomm_ltap_busy_total",
            "Updates turned away with ServerBusy by admission control",
        )
        self._trigger_fires = registry.counter(
            "metacomm_ltap_trigger_fires_total",
            "Trigger-processing passes run by the gateway",
            labelnames=("timing",),
        )
        self._request_children = LabelCache(self._requests)
        self._fire_children = LabelCache(self._trigger_fires)
        self._process_seconds = registry.histogram(
            "metacomm_ltap_process_seconds",
            "End-to-end latency of one update through the gateway "
            "(locks, triggers, server forward, the whole UM sequence)",
        )
        self.statistics = StatsView(
            {
                "reads_forwarded": lambda: self._requests.value_for(
                    kind="read"
                ),
                "updates_processed": lambda: self._requests.value_for(
                    kind="update"
                ),
                "updates_rejected": lambda: self._rejected.value,
                "quiesce_waits": lambda: self._quiesce_waits.value,
                "busy_rejected": lambda: self._busy.value,
            }
        )

    # -- trigger management -----------------------------------------------

    def register_trigger(self, trigger: Trigger) -> Trigger:
        return self.triggers.register(trigger)

    def unregister_trigger(self, name: str) -> None:
        self.triggers.unregister(name)

    # -- quiesce ------------------------------------------------------------

    def quiesce(self, owner: Session, timeout: float = 5.0) -> Quiesce:
        """Block all updates except *owner*'s until the handle is exited."""
        with self._quiesce_lock:
            deadline = None
            while self._quiesce_owner is not None and self._quiesce_owner is not owner:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                if now >= deadline:
                    raise BusyError("another quiesce is in progress")
                self._quiesce_lock.wait(deadline - now)
            self._quiesce_owner = owner
        return Quiesce(self, owner)

    def release_quiesce(self, owner: Session) -> None:
        with self._quiesce_lock:
            if self._quiesce_owner is not owner:
                raise RuntimeError("quiesce not held by this session")
            self._quiesce_owner = None
            self._quiesce_lock.notify_all()

    @property
    def quiesced(self) -> bool:
        # Advisory status probe: a single reference read is atomic, and
        # the authoritative check (_check_quiesce) retakes the condition.
        return self._quiesce_owner is not None  # lexcheck: ignore[LX503]

    def _check_quiesce(self, session: Session) -> None:
        with self._quiesce_lock:
            if self._quiesce_owner is not None and self._quiesce_owner is not session:
                self._quiesce_waits.inc()
                raise BusyError(
                    "directory updates are quiesced while a synchronization "
                    "request is being processed"
                )

    # -- handler interface ------------------------------------------------------

    def process(
        self, request: LdapRequest, session: Session | None = None
    ) -> LdapResponse:
        session = session or Session()
        if isinstance(request, _READ_REQUESTS):
            if self.access_control is not None and isinstance(
                request, (SearchRequest, CompareRequest)
            ):
                try:
                    self.access_control.check_request(request, session)
                except LdapError as exc:
                    return LdapResponse(
                        LdapResult(exc.code, exc.matched_dn, exc.message)
                    )
            self._request_children["read"].inc()
            if self.library_mode and self.read_tax is not None:
                self.read_tax()
            return self.server.process(request, session)
        try:
            if self.access_control is not None:
                self.access_control.check_request(request, session)
            return self._process_update(request, session)
        except LdapError as exc:
            self._rejected.inc()
            return LdapResponse(LdapResult(exc.code, exc.matched_dn, exc.message))

    def _process_update(self, request: LdapRequest, session: Session) -> LdapResponse:
        self._check_quiesce(session)
        if (
            self.admission is not None
            and not session.state.get(SUPPRESS_TRIGGERS)
            and session.state.get("metacomm.origin") is None
        ):
            # Admission runs before any lock or directory write, so a busy
            # rejection leaves nothing behind to lose or compensate.
            # Internal writers bypass: supplemental writes (suppressed
            # triggers) and DDU forwards (origin-stamped sessions) carry
            # updates the system already accepted.
            try:
                self.admission(request, session)
            except BusyError:
                self._busy.inc()
                raise
        change_type, dn = self._classify(request)
        state = session.state
        fire = not state.get(SUPPRESS_TRIGGERS)
        # A triggering write times its LTAP legs into the open trace's
        # stages (a forwarded DDU's, or the one it opens here); a
        # suppressed-trigger write — the supplemental write-back — is
        # already inside a timed stage.
        done = state.get(OBS_DONE) if fire else None
        trace = None
        if fire and done is None and self.journal is not None and (
            self.journal.enabled
        ):
            trace = state[OBS_TRACE] = new_trace_id()
            done = state[OBS_DONE] = {
                "name": "update",
                "op": change_type.value,
                "dn": str(dn),
                "serial": None,
                "stages": {},
            }
        stages = done["stages"] if done is not None else None
        start = time.perf_counter()
        try:
            self.locks.acquire(dn, session)
            try:
                before = self._snapshot(dn)
                begun = time.perf_counter()
                if fire:
                    self._fire_children["before"].inc()
                    self.triggers.fire(
                        TriggerEvent(
                            change_type, dn, request, before, None, session,
                            TriggerTiming.BEFORE,
                        )
                    )
                    if stages is not None:
                        now = time.perf_counter()
                        stages["ltap.trigger"] = now - begun
                        begun = now
                response = self.server.process(request, session)
                if stages is not None:
                    stages["ltap.server"] = time.perf_counter() - begun
                if not response.result.ok:
                    return response
                self._request_children["update"].inc()
                after_dn = self._result_dn(request, dn)
                after = self._snapshot(after_dn)
                if fire:
                    self._fire_children["after"].inc()
                    self.triggers.fire(
                        TriggerEvent(
                            change_type, dn, request, before, after, session,
                            TriggerTiming.AFTER,
                        )
                    )
                return response
            finally:
                self.locks.release(dn, session)
        finally:
            elapsed = time.perf_counter() - start
            self._process_seconds.observe(elapsed)
            if trace is not None:
                del state[OBS_TRACE], state[OBS_DONE]
                done["duration"] = elapsed
                self.journal.emit(UPDATE_DONE, trace=trace, **done)

    @staticmethod
    def _classify(request: LdapRequest) -> tuple[ChangeType, DN]:
        if isinstance(request, AddRequest):
            return ChangeType.ADD, request.entry.dn
        if isinstance(request, DeleteRequest):
            return ChangeType.DELETE, request.dn
        if isinstance(request, ModifyRequest):
            return ChangeType.MODIFY, request.dn
        if isinstance(request, ModifyRdnRequest):
            return ChangeType.MODIFY_RDN, request.dn
        raise LdapError(
            ResultCode.PROTOCOL_ERROR, f"unknown request {type(request).__name__}"
        )

    @staticmethod
    def _result_dn(request: LdapRequest, dn: DN) -> DN:
        if isinstance(request, ModifyRdnRequest):
            return dn.parent().child(request.new_rdn)
        return dn

    def _snapshot(self, dn: DN) -> Entry | None:
        try:
            return self.server.backend.get(dn)
        except LdapError:
            return None
