"""The per-layer cost ledger of the traced run.

Wrappers installed from here, around public functions of each layer,
record one span per call: layer name, start, end, parent span, op id and
the op's kind.  A layer's *self time* is its span's duration minus the
time its wrapped children on the same thread cover.  Spans stay in
memory until the run ends; :meth:`Recorder.write` then dumps them.

Nothing in the program is edited: the wrappers replace class attributes
for the duration of the traced phase and :meth:`Recorder.uninstall` puts
the originals back.  A target that a later version of the program no
longer has cannot be wrapped: :func:`install` returns its name, and the
run reports it as a problem instead of a layer whose cost fell to zero.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Root span of every benchmark op; its self time is the op's wall time
#: that no wrapped layer accounts for.
OP = "bench.op"


def _defining_class(owner: type, name: str) -> type | None:
    for cls in owner.__mro__:
        if name in vars(cls):
            return cls
    return None


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple[type, str, object]] = []
        #: (id, layer, start_ns, end_ns, parent_id, op_id, kind, self_ns)
        self.spans: list[tuple] = []
        #: Event counts that are not spans, keyed by (name, op kind).
        self.counts: Counter[tuple[str, str]] = Counter()
        #: DeviceLink.submit → future resolved, in nanoseconds.
        self.submit_to_done: list[int] = []

    # -- op context ------------------------------------------------------------

    def _context(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = (None, "none")
            local.parent = None
        return local

    def begin_op(self, op_id: int, kind: str) -> list:
        local = self._context()
        local.op = (op_id, kind)
        local.parent = None
        return self.enter(OP)

    def end_op(self, frame: list) -> None:
        self.exit(frame)
        self._local.op = (None, "none")

    def enter(self, layer: str) -> list:
        local = self._context()
        stack = local.stack
        parent = stack[-1][3] if stack else local.parent
        frame = [layer, time.perf_counter_ns(), 0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        local = self._local
        stack = local.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        op_id, kind = local.op
        self.spans.append(
            (frame[3], frame[0], frame[1], end, frame[4], op_id, kind,
             duration - frame[2])
        )

    def count(self, name: str, amount: int = 1) -> None:
        kind = self._context().op[1]
        with self._lock:
            self.counts[name, kind] += amount

    # -- installing wrappers -----------------------------------------------------

    def _replace(self, owner: type, name: str, make) -> bool:
        cls = _defining_class(owner, name)
        if cls is None:
            return False
        original = vars(cls)[name]
        setattr(cls, name, make(original))
        self._restore.append((cls, name, original))
        return True

    def span(self, owner: type, name: str, layer, on_result=None) -> bool:
        """Record a span around every call of ``owner.name``.  ``layer`` is
        a name, or a function of the call's arguments returning one."""
        enter, exit_ = self.enter, self.exit

        def make(original):
            def wrapper(*args, **kwargs):
                frame = enter(layer if isinstance(layer, str) else layer(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_(frame)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return self._replace(owner, name, make)

    def on_result(self, owner: type, name: str, hook) -> bool:
        """Call ``hook(result)`` after every call of ``owner.name``."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(result)
                return result

            return wrapper

        return self._replace(owner, name, make)

    def link_submits(self, owner: type) -> bool:
        """Carry the submitting op's context onto the link dispatcher thread
        and time each submit until its future resolves."""
        recorder = self

        def make(original):
            def submit(link, fn, *args, **kwargs):
                local = recorder._context()
                op = local.op
                parent = local.stack[-1][3] if local.stack else None

                def run_as_submitter():
                    inner = recorder._context()
                    saved = inner.op, inner.parent
                    inner.op, inner.parent = op, parent
                    try:
                        return fn()
                    finally:
                        inner.op, inner.parent = saved

                start = time.perf_counter_ns()
                future = original(link, run_as_submitter, *args, **kwargs)
                future.add_done_callback(
                    lambda _f: recorder.submit_to_done.append(
                        time.perf_counter_ns() - start
                    )
                )
                return future

            return submit

        return self._replace(owner, name="submit", make=make)

    def uninstall(self) -> None:
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)

    # -- reading ---------------------------------------------------------------

    def self_time(self) -> dict[tuple[str, str], list[int]]:
        """(layer, kind) → [self_ns total, span count, wall_ns total]."""
        table: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        for _id, layer, start, end, _parent, _op, kind, self_ns in self.spans:
            row = table[layer, kind]
            row[0] += self_ns
            row[1] += 1
            row[2] += end - start
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id,layer,start_ns,end_ns,parent,op,kind,self_ns\n")
            for span in self.spans:
                out.write(",".join("" if v is None else str(v) for v in span))
                out.write("\n")


def install(recorder: Recorder, system) -> list[str]:
    """Wrap the public functions of every layer of one MetaComm system.
    Returns the targets that do not exist and so could not be wrapped."""
    from repro.core.filters.base import Filter
    from repro.core.filters.device_filter import DeviceFilter
    from repro.core.filters.ldap_filter import LdapFilter
    from repro.core.metacomm import MetaComm
    from repro.core.pipeline import UpdateSequencePipeline
    from repro.devices.base import Device
    from repro.devices.pbx.ossi import OssiTerminal
    from repro.ldap.backend import Backend
    from repro.ldap.protocol import (
        BindRequest,
        CompareRequest,
        SearchRequest,
        UnbindRequest,
    )
    from repro.lexpress.closure import ClosureEngine
    from repro.lexpress.mapping import CompiledMapping
    from repro.ltap.gateway import LtapGateway
    from repro.obs.events import EventJournal
    from repro.obs.health import HealthBoard

    reads = (SearchRequest, CompareRequest, BindRequest, UnbindRequest)

    def ltap_layer(args) -> str:
        return "ltap.read" if isinstance(args[1], reads) else "ltap.update"

    def planned(result) -> None:
        recorder.count("pipeline.plan_calls")
        if result is not None:
            recorder.count("pipeline.plan_hits")

    def dumped(rows) -> None:
        recorder.count("audit.records_probed", len(rows))

    missing: list[str] = []

    def span(owner: type, name: str, layer, on_result=None) -> None:
        if not recorder.span(owner, name, layer, on_result):
            missing.append(f"{owner.__name__}.{name}")

    span(CompiledMapping, "translate", "lexpress.translate")
    span(CompiledMapping, "image", "lexpress.image")
    span(ClosureEngine, "propagate", "lexpress.propagate")
    span(UpdateSequencePipeline, "build_plan", "pipeline.plan")
    span(UpdateSequencePipeline, "run", "pipeline.run")
    if not recorder.on_result(UpdateSequencePipeline, "plan_device_update", planned):
        missing.append("UpdateSequencePipeline.plan_device_update")
    span(DeviceFilter, "apply", "filters.device_apply")
    span(Filter, "before_image", "filters.before_image")
    span(DeviceFilter, "fetch", "filters.before_image")
    span(DeviceFilter, "dump", "filters.dump", on_result=dumped)
    for name in ("add", "modify", "delete"):
        span(Device, name, "devices.op")
    span(OssiTerminal, "execute", "devices.ossi")
    span(LdapFilter, "apply_supplemental", "filters.supplemental")
    span(LdapFilter, "forward_ddu", "filters.forward_ddu")
    for name in ("add", "modify", "delete", "modify_rdn"):
        span(Backend, name, "ldap.write")
    span(Backend, "search", "ldap.search")
    span(LtapGateway, "process", ltap_layer)
    span(type(system.gateway.locks), "acquire", "ltap.lock_wait")
    if system.config.coordinator_lanes > 1:
        # Only a multi-lane queue makes an update wait for its turn.
        span(type(system.um.queue), "wait_turn", "queue.turn_wait")
    span(EventJournal, "emit", "obs.journal")
    span(HealthBoard, "record_outcome", "obs.health")
    span(HealthBoard, "record_link", "obs.health")
    span(MetaComm, "binding_inconsistencies", "audit.probe")
    if system.links is not None:
        from repro.devices.links import DeviceLink

        if not recorder.link_submits(DeviceLink):
            missing.append("DeviceLink.submit")
    return missing


#: Per-layer metrics: name → (layer, what, denominator).  ``what`` is
#: ``self`` (self µs), ``wall`` (wall µs) or ``calls`` (span count);
#: the denominator is the op kind the value is divided by, where
#: ``write`` is the workload's update-originating kind.
LAYER_METRICS = {
    "lexpress.translate_us": ("lexpress.translate", "self", "write"),
    "lexpress.translate_calls": ("lexpress.translate", "calls", "write"),
    "lexpress.image_us": ("lexpress.image", "self", "write"),
    "lexpress.image_calls": ("lexpress.image", "calls", "write"),
    "lexpress.propagate_us": ("lexpress.propagate", "self", "write"),
    "pipeline.plan_us": ("pipeline.plan", "self", "write"),
    "pipeline.run_self_us": ("pipeline.run", "self", "write"),
    "filters.device_apply_us": ("filters.device_apply", "self", "write"),
    "filters.before_image_us": ("filters.before_image", "self", "write"),
    "devices.op_us": ("devices.op", "self", "write"),
    "devices.ops": ("devices.op", "calls", "write"),
    "filters.supplemental_us": ("filters.supplemental", "self", "write"),
    "ldap.write_us": ("ldap.write", "self", "write"),
    "ltap.update_self_us": ("ltap.update", "self", "write"),
    "obs.journal_emits": ("obs.journal", "calls", "write"),
    "obs.journal_us": ("obs.journal", "self", "write"),
    "obs.health_us": ("obs.health", "self", "write"),
    "ltap.lock_wait_us": ("ltap.lock_wait", "wall", "write"),
    "queue.turn_wait_us": ("queue.turn_wait", "wall", "write"),
    "filters.forward_ddu_us": ("filters.forward_ddu", "self", "ddu"),
    "devices.ossi_us": ("devices.ossi", "self", "ddu"),
    "ltap.read_us": ("ltap.read", "self", "read"),
    "ldap.search_us": ("ldap.search", "self", "read"),
    "audit.probe_us": ("audit.probe", "self", "audit"),
}


def layer_metrics(recorder: Recorder, ops: dict[str, int], write_kind: str,
                  extra: dict) -> dict[str, tuple[float, str]]:
    """Turn the span table into the per-layer metrics, each per completed
    op of its kind.  ``ops`` counts completed ops by kind; ``extra`` holds
    the figures read from the system (reapplied, link snapshot, traces)."""
    table = recorder.self_time()
    out: dict[str, tuple[float, str]] = {}
    for name, (layer, what, kind) in LAYER_METRICS.items():
        kind = write_kind if kind == "write" else kind
        n = ops.get(kind, 0)
        row = table.get((layer, kind))
        if not n or row is None:
            value = 0.0
        elif what == "calls":
            value = row[1] / n
        else:
            value = (row[0] if what == "self" else row[2]) / n / 1000
        out[name] = (value, "count" if what == "calls" else "us")

    writes = ops.get(write_kind, 0)
    calls = recorder.counts["pipeline.plan_calls", write_kind]
    hits = recorder.counts["pipeline.plan_hits", write_kind]
    out["pipeline.plan_calls"] = (calls / writes if writes else 0.0, "count")
    out["pipeline.plan_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    audits = ops.get("audit", 0)
    probed = recorder.counts["audit.records_probed", "audit"]
    out["audit.records_probed"] = (probed / audits if audits else 0.0, "count")
    ddus = ops.get("ddu", 0)
    out["ddu.reapplied"] = (extra["reapplied"] / ddus if ddus else 0.0, "count")
    out["obs.spans"] = (extra["spans_per_trace"], "count")
    done = recorder.submit_to_done
    out["links.submit_to_done_us"] = (
        sum(done) / len(done) / 1000 if done else 0.0, "us"
    )
    flushes, completed = extra["link_flushes"], extra["link_completed"]
    out["links.flushes"] = (flushes / writes if writes else 0.0, "count")
    out["links.mean_batch"] = (completed / flushes if flushes else 0.0, "count")
    total_ops = sum(ops.values())
    unattributed = sum(
        row[0] for (layer, _kind), row in table.items() if layer == OP
    )
    out["bench.unattributed_us"] = (
        unattributed / total_ops / 1000 if total_ops else 0.0, "us"
    )
    return out


def top_layers(recorder: Recorder, kind: str, n_ops: int, limit: int = 3) -> list[tuple]:
    """The layers with the largest self time per op of ``kind``: rows of
    (layer, µs per op, share of the traced op time)."""
    table = recorder.self_time()
    op_row = table.get((OP, kind))
    if not n_ops or op_row is None:
        return []
    op_us = op_row[2] / n_ops / 1000
    rows = [
        (layer, row[0] / n_ops / 1000)
        for (layer, k), row in table.items()
        if k == kind and layer != OP
    ]
    rows.sort(key=lambda r: r[1], reverse=True)
    return [(layer, us, us / op_us) for layer, us in rows[:limit]]
