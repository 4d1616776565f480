"""The MetaComm facade: wires the whole Figure-1 architecture together.

One call builds the LDAP server (with the integrated schema), the LTAP
gateway in front of it, the legacy devices, one filter per repository, the
Update Manager with the standard mapping library, the error log and the
synchronizer::

    from repro.core import MetaComm, MetaCommConfig, PbxConfig

    system = MetaComm(MetaCommConfig(
        pbxes=[PbxConfig("pbx-west", ("41", "42")),
               PbxConfig("pbx-east", ("43",))],
    ))
    conn = system.connection()            # any LDAP tool — via LTAP
    terminal = system.terminal("pbx-west")  # the legacy craft interface
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices.messaging.platform import MessagingPlatform
from ..devices.pbx.definity import DefinityPbx, partition_expression
from ..devices.pbx.ossi import OssiTerminal
from ..ldap.client import LdapConnection
from ..ldap.dn import DN
from ..ldap.entry import Entry, _norm_value
from ..ldap.server import LdapServer
from ..lexpress.partition import PartitionConstraint
from ..ltap.gateway import LtapGateway
from ..obs import (
    AlertEngine,
    ConsistencyAuditor,
    Observability,
    TraceView,
    default_rules,
    last_trace,
    traces,
)
from ..obs.audit import DirectoryView
from ..obs.events import LEXPRESS_COMPILED
from ..schemas.integrated import build_integrated_schema
from ..schemas.mappings import DEFAULT_PHONE_PREFIX, standard_mappings
from .errorlog import ErrorLog
from .filters.device_filter import DeviceFilter
from .filters.ldap_filter import LdapFilter
from .sync import Synchronizer
from .update_manager import DeviceBinding, UpdateManager


@dataclass(frozen=True)
class Drift:
    """One disagreement :meth:`MetaComm._compare` found; ``str()`` is its
    problem string.  *kind* is ``"missing"`` (the dumped *record*'s LDAP
    *key* locates no entry), ``"mismatch"`` (one *attribute* of
    *record*'s image, written by the lexpress *rule*, whose *device*
    values are not all among the *directory* values *entry* stores) or
    ``"unknown"`` (an *entry* the partition claims whose *key* the device
    does not hold)."""

    kind: str
    binding: DeviceBinding
    key: str
    record: dict[str, str] | None = None
    entry: Entry | None = None
    attribute: str | None = None
    device: list[str] | None = None
    directory: tuple[str, ...] | None = None
    rule: object = None

    def __str__(self) -> str:
        name = self.binding.name
        if self.kind == "missing":
            return f"{name}: record {self.key} missing from directory"
        if self.kind == "unknown":
            return (
                f"{name}: directory entry {self.entry.dn} claims "
                f"{self.binding.to_ldap.key_target}={self.key} unknown to the device"
            )
        return (
            f"{name}: {self.key}: {self.attribute} "
            f"device={self.device} directory={self.directory}"
        )


@dataclass(frozen=True)
class PbxConfig:
    """One Definity switch in the deployment."""

    name: str = "definity"
    extension_prefixes: tuple[str, ...] = ("4",)


@dataclass
class MetaCommConfig:
    """Deployment parameters for a MetaComm instance."""

    suffix: str = "o=Lucent"
    #: Where new person entries land (defaults to the suffix).
    people_container: str | None = None
    #: Additional organization entries to create under the suffix.
    organizations: tuple[str, ...] = ()
    phone_prefix: str = DEFAULT_PHONE_PREFIX
    pbxes: tuple[PbxConfig, ...] | list[PbxConfig] = (PbxConfig(),)
    messaging_name: str | None = "messaging"
    lock_timeout: float = 5.0
    #: Abort the remaining fan-out when one device rejects an update
    #: (section 4.4 semantics).  False = best-effort to all devices.
    abort_on_failure: bool = True
    #: Section 4.4 future work: saga-style compensation — undo the device
    #: updates already applied in an aborted sequence.
    undo_on_failure: bool = False
    #: Collect metrics and the event journal, with its per-update traces
    #: (repro.obs).  Disabling turns every instrument into a no-op — the
    #: baseline of the overhead benchmark.
    observability: bool = True
    #: How many lifecycle events the journal's bounded ring retains — and
    #: so how far back ``traces()`` reaches.
    journal_capacity: int = 1024
    #: Cadence (seconds) of the background consistency auditor when
    #: started via ``system.auditor.start()``.  The auditor never runs
    #: unless started — tests and the `monitor` CLI drive cycles
    #: explicitly.
    audit_interval: float = 0.5
    #: Concurrent coordinator lanes for the Update Manager's queue.
    #: 1 (default) is the paper's single global queue: sequences run one
    #: at a time in serial order, whatever thread claimed them; >1 builds a routing oracle from the mapping
    #: configuration (repro.analysis.build_routing_plan) and shards
    #: provably-commuting updates over that many lanes, with a serial
    #: fallback lane for everything unprovable — see docs/CONCURRENCY.md.
    coordinator_lanes: int = 1
    #: Event-driven device links (docs/DEVICE_LINKS.md): replace the
    #: inline serial fan-out with one dispatcher thread driving
    #: pipelined, batched command streams over every device link, so one
    #: sequence's device round-trips overlap.  Off by default — the
    #: paper's serial fan-out.
    device_links: bool = False
    #: Maximum command streams (flushed batches) in flight per link.
    link_window: int = 4
    #: Maximum operations coalesced into one command stream.
    link_batch: int = 8
    #: Maximum operations waiting on one link before submits defer/block.
    link_queue_limit: int = 64
    #: Maximum outstanding updates per coordinator lane before LTAP's
    #: admission control defers or rejects with ServerBusy.  ``None``
    #: (default) disables admission — the pre-link unbounded behaviour.
    lane_depth_limit: int | None = None
    #: What admission does at the limit: "reject" answers ServerBusy
    #: immediately, "defer" waits up to ``busy_timeout`` first.
    busy_policy: str = "reject"
    #: Bounded admission wait (seconds) under ``busy_policy="defer"``.
    busy_timeout: float = 0.5
    #: Run lexcheck (repro.analysis) over the full configuration before
    #: constructing the Update Manager and refuse to boot on any
    #: error-severity finding (docs/ANALYSIS.md).  Off by default: the
    #: analyzer costs a few closure probes per boot and most tests build
    #: throwaway configurations.
    strict_analysis: bool = False
    #: Execution engine for lexpress rule evaluation
    #: (docs/LEXPRESS_COMPILER.md), bound once per rule and partition when
    #: the system builds its mappings: "compiled" (default) runs
    #: verifier-gated Python closures, falling back to the byte-code
    #: interpreter for code the verifier rejects; "interpret" runs the
    #: interpreter only; "verify" runs both and raises
    #: LexpressDivergenceError on any disagreement (the interpreter is the
    #: oracle).  An unknown mode raises ValueError at boot.
    lexpress_mode: str = "compiled"
    #: Wrap this system's subsystem locks in order-recording witness
    #: proxies (repro.obs.lockwitness): every acquisition pair is checked
    #: against the static LX5xx lock-order graph and reversals are
    #: journaled as ``witness.violation`` events.  Meant for tests,
    #: stress runs and canaries — each acquisition pays a dict probe.
    lock_witness: bool = False
    #: Boot gate over the *runtime* source: run the LX5xx concurrency
    #: analyzer (repro.analysis.concur) and refuse to construct the
    #: system on any error-severity finding (a known lock-order
    #: inversion).  The analysis is per-process cached by the witness
    #: seed path but re-run here for the gate's own report.
    strict_concurrency: bool = False


class MetaComm:
    """A fully wired MetaComm system."""

    def __init__(self, config: MetaCommConfig | None = None):
        self.config = config or MetaCommConfig()
        suffix = DN.parse(self.config.suffix)

        if self.config.strict_concurrency:
            # Boot gate over the runtime source itself: refuse to build a
            # system whose lock discipline has a known inversion (LX501).
            from ..analysis.concur import analyze_concurrency_strict

            analyze_concurrency_strict()

        #: This system's health plane: metrics registry, event journal
        #: (and the traces read from it) and device-health board.  Every
        #: component below reports here, so one scrape (``metrics_text``),
        #: one trace query or one journal read covers the whole Figure-1
        #: pipeline.
        self.obs = Observability(
            enabled=self.config.observability,
            journal_capacity=self.config.journal_capacity,
        )
        self.schema = build_integrated_schema()
        self.server = LdapServer(
            [suffix],
            schema=self.schema,
            server_id="metacomm",
            registry=self.obs.registry,
        )
        self._bootstrap_tree(suffix)

        self.gateway = LtapGateway(
            self.server,
            lock_timeout=self.config.lock_timeout,
            registry=self.obs.registry,
            journal=self.obs.journal,
        )
        self.error_log = ErrorLog(self.server, suffix)
        mode = self.config.lexpress_mode
        self.mappings = standard_mappings(self.config.phone_prefix, mode)

        people_container = (
            DN.parse(self.config.people_container)
            if self.config.people_container
            else suffix
        )
        self.ldap_filter = LdapFilter(
            self.gateway,
            people_base=suffix,
            default_container=people_container,
            registry=self.obs.registry,
        )

        self.pbxes: dict[str, DefinityPbx] = {}
        bindings: list[DeviceBinding] = []
        for pbx_config in self.config.pbxes:
            pbx = DefinityPbx(pbx_config.name, pbx_config.extension_prefixes)
            self.pbxes[pbx.name] = pbx
            bindings.append(
                DeviceBinding(
                    filter=DeviceFilter(
                        pbx, schema="pbx", registry=self.obs.registry
                    ),
                    to_ldap=self.mappings["pbx_to_ldap"],
                    from_ldap=self.mappings["ldap_to_pbx"],
                    partition=PartitionConstraint.compile(
                        partition_expression(pbx), mode
                    ),
                )
            )

        self.messaging: MessagingPlatform | None = None
        if self.config.messaging_name:
            self.messaging = MessagingPlatform(self.config.messaging_name)
            bindings.append(
                DeviceBinding(
                    filter=DeviceFilter(
                        self.messaging, schema="mp", registry=self.obs.registry
                    ),
                    to_ldap=self.mappings["mp_to_ldap"],
                    from_ldap=self.mappings["ldap_to_mp"],
                )
            )

        self._bindings = bindings
        #: Every rule and partition runner of this system, each bound once
        #: to ``config.lexpress_mode``.  Each compile attempt (none in
        #: interpret mode) is journaled as one ``lexpress.compiled`` event.
        self.lexpress_runners = [
            run for mapping in self.mappings.values() for run in mapping.runners
        ] + [b.partition.run for b in bindings if b.partition is not None]
        for runner in self.lexpress_runners:
            if runner.status is not None:
                self.obs.journal.emit(
                    LEXPRESS_COMPILED,
                    mapping=runner.mapping,
                    attribute=runner.attribute,
                    status=runner.status,
                    seconds=runner.seconds,
                    fingerprint=runner.fingerprint,
                )
        if self.config.strict_analysis:
            # Boot gate: a configuration with error-severity findings
            # (overlapping partitions, broken byte code, ...) would corrupt
            # repositories at the first update — refuse to build the UM.
            from ..analysis import analyze_strict

            analyze_strict(self.analysis_target(), registry=self.obs.registry)

        routing_plan = None
        if self.config.coordinator_lanes > 1:
            # The commutativity proof the sharded drain path rests on:
            # lexcheck's partition constraints + LX403 conflict probing,
            # compiled once into a per-configuration RoutingPlan.
            from ..analysis import build_routing_plan

            routing_plan = build_routing_plan(self.analysis_target())

        self.um = UpdateManager(
            self.server,
            self.gateway,
            self.ldap_filter,
            bindings,
            self.error_log,
            abort_on_failure=self.config.abort_on_failure,
            undo_on_failure=self.config.undo_on_failure,
            registry=self.obs.registry,
            journal=self.obs.journal,
            coordinator_lanes=self.config.coordinator_lanes,
            routing_plan=routing_plan,
            lane_depth_limit=self.config.lane_depth_limit,
            busy_policy=self.config.busy_policy,
            busy_timeout=self.config.busy_timeout,
        )
        self.sync = Synchronizer(self.um, self.binding_drift)
        self.suffix = suffix

        #: The event-driven link layer (docs/DEVICE_LINKS.md): one
        #: dispatcher thread drives a pipelined, batched command stream
        #: per device; the fan-out stage submits apply closures instead of
        #: blocking a worker per round-trip.  Started below, after the
        #: lock witness has had its chance to wrap the dispatcher's locks.
        self.links = None
        if self.config.device_links:
            from ..devices.links import LinkConfig, LinkDispatcher

            self.links = LinkDispatcher(
                metrics=self.obs.registry, health=self.obs.health
            )
            link_config = LinkConfig(
                window=self.config.link_window,
                batch=self.config.link_batch,
                queue_limit=self.config.link_queue_limit,
            )
            self.um.pipeline.attach_links(
                {
                    binding.name: self.links.register(
                        binding.filter.device, link_config
                    )
                    for binding in bindings
                }
            )
        if self.config.lane_depth_limit is not None:
            # Close the backpressure loop: saturated lanes surface at the
            # gateway as typed ServerBusy results, before any write.
            self.gateway.admission = self.um.admission_check

        # Device-link telemetry: every raw device write (fan-out, DDU,
        # sync push) feeds the health board's latency reservoir — per op
        # on the blocking path, per flush from the link dispatcher.
        for binding in bindings:
            device = binding.filter.device
            device.op_observer = self.obs.health.link_observer(binding.name)

        #: Declarative alert rules over this system's registry, evaluated
        #: on the auditor's clock (docs/OBSERVABILITY.md for the syntax).
        self.alerts = AlertEngine(
            self.obs.registry,
            journal=self.obs.journal,
            rules=default_rules(),
        )
        #: The background consistency auditor (not started by default).
        self.auditor = ConsistencyAuditor(
            self, interval=self.config.audit_interval
        )

        # Equality indexes on what the system searches by value: every
        # binding's directory key (LdapFilter.locate, sync), plus the two
        # below.  objectClass is left out: its person bucket is the DIT.
        indexed = {b.to_ldap.key_target for b in bindings}
        # The room roster: WBA and LTAP clients list everyone in a room.
        indexed.add("definityRoom")
        # Identity resolution by name on the DDU add-station path.
        indexed.add("cn")
        for attribute in sorted(indexed):
            self.server.backend.create_index(attribute)

        #: The runtime lock witness, when enabled — order-recording
        #: proxies over every subsystem lock, seeded with the static
        #: LX5xx acquisition graph (docs/CONCURRENCY.md).
        self.lock_witness = None
        if self.config.lock_witness:
            from ..obs.lockwitness import witness_system

            self.lock_witness = witness_system(self)

        if self.links is not None:
            # Started only now: the witness must wrap the dispatcher's
            # condition before its event loop starts waiting on it.
            self.links.start()

    # -- bootstrap ------------------------------------------------------------------

    def _bootstrap_tree(self, suffix: DN) -> None:
        self.server.backend.add(
            Entry(
                suffix,
                {"objectClass": ["top", "organization"], "o": suffix.rdn.value},
            )
        )
        for org in self.config.organizations:
            self.server.backend.add(
                Entry(
                    suffix.child(f"o={org}"),
                    {"objectClass": ["top", "organization"], "o": org},
                )
            )
        if self.config.people_container:
            container = DN.parse(self.config.people_container)
            if not self.server.backend.contains(container):
                self.server.backend.add(
                    Entry(
                        container,
                        {
                            "objectClass": ["top", "organizationalUnit"],
                            "ou": container.rdn.value,
                        },
                    )
                )

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release background resources (auditor thread, link
        dispatcher)."""
        self.auditor.stop()
        if self.links is not None:
            # stop() fails any futures a client thread still waits on.
            self.links.stop()

    def __enter__(self) -> "MetaComm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- handles -----------------------------------------------------------------------

    def connection(self) -> LdapConnection:
        """A fresh LDAP client connection *through the LTAP gateway* —
        what 'any LDAP tool' in the paper connects to."""
        return LdapConnection(self.gateway)

    def direct_connection(self) -> LdapConnection:
        """A connection straight to the server, bypassing LTAP (reads only
        if you want the system to stay consistent!)."""
        return LdapConnection(self.server)

    def pbx(self, name: str | None = None) -> DefinityPbx:
        if name is None:
            if len(self.pbxes) != 1:
                raise KeyError("several PBXes configured; name one")
            return next(iter(self.pbxes.values()))
        return self.pbxes[name]

    def terminal(self, pbx_name: str | None = None, login: str = "craft") -> OssiTerminal:
        """An OSSI craft terminal on one of the switches (the DDU path)."""
        return OssiTerminal(self.pbx(pbx_name), login=login)

    def find_person(self, filter_text: str) -> list[Entry]:
        return self.connection().search(self.suffix, filter=filter_text)

    # -- static analysis -------------------------------------------------------------

    def analysis_target(self):
        """This deployment as a lexcheck :class:`~repro.analysis.AnalysisTarget`:
        every compiled mapping, one instance binding per device (with its
        partition constraint), and the integrated schema's attributes."""
        from ..analysis import AnalysisTarget, InstanceBinding

        return AnalysisTarget(
            mappings=list(self.mappings.values()),
            instances=[
                InstanceBinding(b.name, b.from_ldap, b.partition)
                for b in self._bindings
            ],
            schema_attributes={
                "ldap": frozenset(self.schema.attribute_names())
            },
        )

    def analyze(self, strict: bool = False):
        """Run lexcheck over the live configuration.

        Returns an :class:`~repro.analysis.AnalysisReport`; with
        ``strict=True`` raises :class:`~repro.analysis.AnalysisError` on
        error findings, mirroring ``MetaCommConfig(strict_analysis=True)``."""
        from ..analysis import analyze, analyze_strict

        run = analyze_strict if strict else analyze
        return run(self.analysis_target(), registry=self.obs.registry)

    # -- observability ---------------------------------------------------------------

    def traces(self, name: str | None = None) -> list[TraceView]:
        """Recent update traces, read from the journal (``name``:
        ``"update"`` or ``"ddu"``)."""
        return traces(self.obs.journal.events(), name)

    def last_trace(self, name: str | None = None) -> TraceView | None:
        return last_trace(self.obs.journal.events(), name)

    def metrics_text(self) -> str:
        """This system's metrics in Prometheus text exposition format."""
        return self.obs.prometheus()

    def metrics_json(self) -> str:
        """Metrics + the journal's traces as a JSON document."""
        return self.obs.json()

    def consistent(self) -> bool:
        """Global consistency check: every device record matches the
        directory's materialized view, and vice versa (E1's oracle)."""
        return not self.inconsistencies()

    def inconsistencies(self) -> list[str]:
        """Human-readable list of device↔directory disagreements.

        A fresh full walk: one full directory read, then every device's
        dump compared against it.  It never uses the auditor's maintained
        view, so it is the reference that view is tested against."""
        bindings = list(self.um.bindings)
        view = self.directory_view(bindings)
        return [
            str(drift)
            for binding in bindings
            for drift in self._compare(binding, binding.filter.dump(), view)
        ]

    def binding_inconsistencies(self, binding: DeviceBinding) -> list[str]:
        """One device binding's slice of :meth:`inconsistencies`: the
        consistency auditor's probe unit.  Sampling one binding per cycle
        keeps the audit low-rate while covering the whole deployment
        round-robin."""
        return list(map(str, self.binding_drift(binding, binding.filter.dump())))

    def binding_drift(
        self, binding: DeviceBinding, records: list[dict[str, str]]
    ) -> list[Drift]:
        """:meth:`_compare` of *binding*'s dump *records* against the
        auditor's maintained view: it costs one backend read and one check
        per entry changed since the last comparison, and the rules of each
        memoized pair its change reaches.  The view is released on return."""
        if not any(b is binding for b in self.um.bindings):
            return self._compare(binding, records, self.directory_view([binding]))
        with self.auditor.directory_view() as view:
            return self._compare(binding, records, view)

    def directory_view(self, bindings: list[DeviceBinding]) -> DirectoryView:
        """A :class:`~repro.obs.audit.DirectoryView` of *bindings* built
        from one full read of the people subtree; it keeps the entries
        that read returned."""
        base = self.um.ldap_filter.people_base
        return DirectoryView(base, bindings, self.connection().search(base))

    @staticmethod
    def _compare(
        binding: DeviceBinding, records: list[dict[str, str]], view: DirectoryView
    ) -> list[Drift]:
        """The device↔directory comparison, shared by the full walk, the
        probe and resync: each device record must be found by its key
        (else a ``missing`` :class:`Drift`) and its image must be a
        subset of the directory entry (else one ``mismatch`` per
        attribute); each directory entry the binding's partition claims
        must be on the device (else ``unknown``).

        *records* are a device dump as the device stores them (field →
        ``str``).  A record with no memoized pair is lower-keyed and
        list-wrapped in one pass and imaged by one call of the mapping's
        image kernel; the subset check reads the lower-keyed image against
        the entry's stored lower-keyed values.
        A fresh view's memo is empty, so the full walk images every
        record.

        The view's memo holds, per device key, a copy of the record the
        last comparison verified and the entry it matched.  Such a pair
        was consistent, and a rule is a pure function of its deps, so:

        * a record equal to its copy whose key still locates the same
          entry object (entries are immutable) is taken as it is: no
          rule runs and the memo's normalized and lower-cased key are
          reused;
        * otherwise only the rules that read a field whose value differs
          from the copy (ΔR), or whose target's stored values differ
          between the memoized and the located entry (ΔE), run and are
          checked; the others produce what they produced, against the
          values they were verified with;
        * a record whose LDAP key may have changed (ΔR meets the key
          rule's inputs, ΔE holds the key attribute) or whose key no
          longer locates an entry is imaged in full.

        ``lastUpdater`` is bookkeeping, not user data: it is never
        checked, so its rule never runs for a memoized pair.  Records
        with a problem are never memoized, so persistent drift is
        reported on every comparison, in the words of the full walk."""
        problems: list[Drift] = []
        to_ldap = binding.to_ldap
        key_low = to_ldap.key_target.lower() if to_ldap.key_target else None
        key_source = to_ldap.key_source
        checked = [rule for rule in to_ldap.rules if rule.target_low != "lastupdater"]
        image_of = to_ldap.imager()
        key_inputs = {key_source.lower()} if key_source else set()
        for rule in to_ldap.rules:
            if rule.target_low == key_low:
                key_inputs.update(rule.deps)
        memo = view.verified(binding)
        verified: dict[str, tuple[dict, str, Entry, str, str]] = {}
        device_keys = set()
        hits = 0
        for record in records:
            device_key = record.get(key_source)
            pair = memo.get(device_key)
            if pair is not None:
                copy, ldap_key, held, normalized, lowered = pair
                entry = view.locate(key_low, normalized)
                if entry is held and copy == record:
                    device_keys.add(lowered)
                    verified[device_key] = pair
                    hits += 1
                    continue
                stale = _stale_rules(
                    checked, key_inputs, key_low, copy, record, held, entry
                )
                if stale is not None:
                    device_keys.add(lowered)
                    image_low = {}
                    if stale:
                        low = {name.lower(): [v] for name, v in record.items()}
                        for rule in stale:
                            values = to_ldap.evaluate(rule, low, canonical=True)
                            if values is not None:
                                image_low[rule.target_low] = values
                    if _image_held(
                        binding, ldap_key, image_low, record, entry, problems, checked
                    ):
                        verified[device_key] = (
                            record, ldap_key, entry, normalized, lowered
                        )
                    continue
            low = {name.lower(): [value] for name, value in record.items()}
            _, image_low = image_of(low)
            image_low.pop("lastupdater", None)
            ldap_key = to_ldap._key_in(image_low)
            if ldap_key is None:
                continue
            lowered = ldap_key.lower()
            normalized = _norm_value(ldap_key)
            device_keys.add(lowered)
            entry = view.locate(key_low, normalized)
            if entry is None:
                problems.append(Drift("missing", binding, ldap_key, record))
                continue
            if (
                _image_held(
                    binding, ldap_key, image_low, record, entry, problems, checked
                )
                and device_key is not None
            ):
                verified[device_key] = (record, ldap_key, entry, normalized, lowered)
        view.remember(binding, verified, len(records) - hits)
        for entry, key in view.unheld(binding, device_keys):
            problems.append(Drift("unknown", binding, key, entry=entry))
        return problems

    def monitor_snapshot(self) -> dict:
        """One consolidated health-plane view (the `monitor` CLI's data):
        queue staleness, device health, audit verdict, active alerts."""
        queue = self.um.queue
        report = self.auditor.last_report
        return {
            "queue": {
                "depth": len(queue),
                "oldest_age": queue.oldest_age(),
                "last_serial": queue.last_serial,
                "lanes": queue.lane_snapshot(),
            },
            "devices": self.obs.health.snapshot(),
            "links": self.links.snapshot() if self.links is not None else None,
            "audit": report.to_dict() if report is not None else None,
            "alerts": [alert.to_dict() for alert in self.alerts.active()],
            "journal_events": len(self.obs.journal),
        }


def _stale_rules(
    checked: list,
    key_inputs: set[str],
    key_low: str | None,
    copy: dict[str, str],
    record: dict[str, str],
    held: Entry,
    entry: Entry | None,
) -> list | None:
    """The rules of *checked* that a memoized pair (*copy* verified
    against *held*) must run again now that the device holds *record*
    and the key locates *entry*: those that read a changed field (ΔR) or
    whose target's stored values changed (ΔE).  None when the record
    must be imaged in full: the key may have changed, or it locates no
    entry."""
    if entry is None:
        return None
    changed = {name.lower() for name, _ in copy.items() ^ record.items()}
    if not key_inputs.isdisjoint(changed):
        return None
    before = held.attributes.lowered()
    after = entry.attributes.lowered()
    if before.get(key_low) != after.get(key_low):
        return None
    return [
        rule
        for rule in checked
        if not rule.deps.isdisjoint(changed)
        or before.get(rule.target_low) != after.get(rule.target_low)
    ]


def _image_held(
    binding: DeviceBinding,
    ldap_key: str,
    image_low: dict[str, list[str]],
    record: dict[str, str],
    entry: Entry,
    problems: list[Drift],
    rules: list,
) -> bool:
    """Is every value of *image_low* (lower-case target → values), the
    image of *record*, among *entry*'s stored values of that attribute?
    Appends one ``mismatch`` per attribute that is not, with the first of
    *rules* (the checked rules) with that target."""
    stored = entry.attributes.lowered()
    clean = True
    for name, values in image_low.items():
        have = stored.get(name, ())
        # The directory may carry extra values (e.g. an RDN disambiguator
        # on cn); the device's view must be a subset of the directory's.
        for value in values:
            if value not in have:
                break
        else:
            continue
        clean = False
        rule = next(rule for rule in rules if rule.target_low == name)
        problems.append(
            Drift(
                "mismatch", binding, ldap_key, record, entry,
                rule.target, values, have, rule,
            )
        )
    return clean
