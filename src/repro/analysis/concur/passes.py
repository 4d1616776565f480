"""The LX5xx concurrency lints over the package lock model.

Five checks, all driven by :class:`~repro.analysis.concur.model.PackageModel`:

* **LX501 — lock-order inversion.**  Every ``with self.A:`` taken while
  ``B`` is held contributes an edge ``B → A`` to a global acquisition-order
  graph; call-graph propagation adds edges for locks a callee transitively
  acquires.  A cycle means two threads can deadlock by taking the same
  locks in opposite orders.
* **LX502 — blocking call under lock.**  ``time.sleep``, unbounded
  ``wait``/``join``/``result``/``Executor.shutdown(wait=True)``, socket
  I/O, a bounded ``Condition.wait`` that holds a *second* lock through the
  sleep, or a call into a method that transitively does any of these —
  while at least one lock is held.  Journal/listener callback delivery
  under a ``repro.obs``/``repro.core`` lock is reported here too (the
  listener is arbitrary user code; under a hot-path lock it is I/O).
* **LX503 — inconsistently guarded field.**  RacerD-style majority
  inference: a field written under one lock on ≥ 75 % of its post-init
  writes, yet accessed without that lock elsewhere, is reported once with
  every bare site anchored (any anchor suppresses).
* **LX504 — callback invoked under a non-reentrant lock.**  A stored
  listener/observer/hook called while a plain ``Lock``/``Condition`` of
  the same object is held: a callback that calls back in (``subscribe``,
  ``record``) self-deadlocks.  ``RLock`` holders are exempt.
* **LX505 — thread without a stop/join path.**  A class that constructs
  ``threading.Thread`` but never joins a thread nor sets a stop
  ``Event`` leaks its worker past ``close()``.

The fixpoints (transitive lock acquisition, may-block, may-invoke-
callbacks) iterate to a fixed point over the resolvable call graph:
``self.m(...)`` calls plus attribute-typed calls (see the model module).
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field

from ...digraph import strongly_connected_components
from ...lexpress.ast import Span
from ..diagnostics import Diagnostic
from .model import Blocking, CallSite, ClassModel, PackageModel

__all__ = ["LockOrderGraph", "run_passes", "build_lock_order_graph"]

#: Module prefixes whose locks guard hot paths: callback delivery while
#: one of these is held is an LX502 (the issue's "journal/listener
#: callbacks inside repro.obs or repro.core.queue locks").
HOT_LOCK_PREFIXES = ("repro/obs/", "repro/core/")


@dataclass(frozen=True)
class OrderEdge:
    """One observed before/after pair in the acquisition-order graph."""

    held: str
    acquired: str
    module: str
    line: int
    method: str
    #: "acquire" for a literal ``with`` nesting, "call" for an edge added
    #: by call-graph propagation.
    origin: str


@dataclass
class LockOrderGraph:
    """The global acquisition-order graph (also the lock-witness seed)."""

    nodes: list[str] = field(default_factory=list)
    edges: list[OrderEdge] = field(default_factory=list)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted({(e.held, e.acquired) for e in self.edges})

    def successors(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.held, set()).add(edge.acquired)
        return out

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [
                {
                    "held": e.held,
                    "acquired": e.acquired,
                    "site": f"{e.module}:{e.line}",
                    "method": e.method,
                    "origin": e.origin,
                }
                for e in sorted(
                    self.edges,
                    key=lambda e: (e.held, e.acquired, e.module, e.line),
                )
            ],
        }


# -- call-graph fixpoints -----------------------------------------------------------


class _Summaries:
    """Per-method summaries propagated to a fixed point."""

    def __init__(self, model: PackageModel):
        self.model = model
        self.calls: dict[tuple[str, str], list[CallSite]] = {}
        self.known: set[tuple[str, str]] = set()
        #: (cls, method) -> locks the method (transitively) acquires.
        self.acquired: dict[tuple[str, str], set[str]] = {}
        #: (cls, method) -> reason string when the method may block.
        self.may_block: dict[tuple[str, str], str] = {}
        #: (cls, method) -> reason string when it may invoke callbacks.
        self.may_callback: dict[tuple[str, str], str] = {}
        for cls in model.classes.values():
            for method in cls.methods:
                key = (cls.name, method)
                self.known.add(key)
                self.calls[key] = [
                    c for c in cls.calls if c.method == method
                ]
                self.acquired[key] = {
                    a.lock for a in cls.acquires if a.method == method
                }
            for entry in cls.blocking:
                if _blocks(entry):
                    self.may_block.setdefault(
                        (cls.name, entry.method), entry.desc
                    )
            for cb in cls.callbacks:
                self.may_callback.setdefault(
                    (cls.name, cb.method), cb.desc
                )
        self._fixpoint()

    def resolve(self, target: tuple[str, str]) -> tuple[str, str] | None:
        """Map a call target to the class that defines the method."""
        if target in self.known:
            return target
        return self.model.resolve_method(*target)

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for key, sites in self.calls.items():
                for site in sites:
                    for raw in site.targets:
                        target = self.resolve(raw)
                        if target is None or target == key:
                            continue
                        extra = self.acquired[target] - self.acquired[key]
                        if extra:
                            self.acquired[key] |= extra
                            changed = True
                        if (
                            target in self.may_block
                            and key not in self.may_block
                        ):
                            self.may_block[key] = (
                                f"{site.label} -> {self.may_block[target]}"
                            )
                            changed = True
                        if (
                            target in self.may_callback
                            and key not in self.may_callback
                        ):
                            self.may_callback[key] = (
                                f"{site.label} -> {self.may_callback[target]}"
                            )
                            changed = True


def _blocks(entry: Blocking) -> bool:
    """Does this primitive block its caller indefinitely (or do I/O)?"""
    if entry.kind in ("sleep", "io"):
        return True
    return not entry.bounded


# -- the passes ---------------------------------------------------------------------


def build_lock_order_graph(model: PackageModel) -> LockOrderGraph:
    summaries = _Summaries(model)
    return _build_graph(model, summaries)


def _build_graph(
    model: PackageModel, summaries: _Summaries
) -> LockOrderGraph:
    graph = LockOrderGraph()
    nodes: set[str] = set()
    for cls in model.classes.values():
        nodes.update(cls.lock_keys())
        for acq in cls.acquires:
            for held in acq.held:
                if held != acq.lock:
                    graph.edges.append(
                        OrderEdge(
                            held,
                            acq.lock,
                            cls.module,
                            acq.line,
                            f"{cls.name}.{acq.method}",
                            "acquire",
                        )
                    )
        for site in cls.calls:
            if not site.held:
                continue
            acquired: set[str] = set()
            for raw in site.targets:
                target = summaries.resolve(raw)
                if target is not None:
                    acquired |= summaries.acquired.get(target, set())
            for lock in acquired - site.held:
                for held in site.held:
                    if held != lock:
                        graph.edges.append(
                            OrderEdge(
                                held,
                                lock,
                                cls.module,
                                site.line,
                                f"{cls.name}.{site.method}",
                                "call",
                            )
                        )
    nodes.update(e.held for e in graph.edges)
    nodes.update(e.acquired for e in graph.edges)
    graph.nodes = sorted(nodes)
    return graph


def run_passes(
    model: PackageModel,
) -> tuple[list[Diagnostic], LockOrderGraph]:
    """All five LX5xx checks; returns raw diagnostics plus the graph."""
    summaries = _Summaries(model)
    graph = _build_graph(model, summaries)
    diagnostics: list[Diagnostic] = []
    diagnostics += _check_lock_order(graph)
    for cls in model.classes.values():
        diagnostics += _check_blocking(cls, summaries)
        diagnostics += _check_guarded_fields(cls)
        diagnostics += _check_callbacks(cls, model, summaries)
        diagnostics += _check_threads(cls)
    return diagnostics, graph


# -- LX501 --------------------------------------------------------------------------


def _check_lock_order(graph: LockOrderGraph) -> list[Diagnostic]:
    successors = graph.successors()
    by_pair: dict[tuple[str, str], OrderEdge] = {}
    for edge in graph.edges:
        by_pair.setdefault((edge.held, edge.acquired), edge)
    out: list[Diagnostic] = []
    for cycle in _cycles(successors):
        edges = [
            by_pair[(cycle[i], cycle[(i + 1) % len(cycle)])]
            for i in range(len(cycle))
        ]
        first = edges[0]
        out.append(
            Diagnostic(
                code="LX501",
                message=(
                    "lock-order inversion: "
                    + " -> ".join([*cycle, cycle[0]])
                    + " — two threads taking these locks in opposite "
                    "orders can deadlock"
                ),
                mapping=first.module,
                span=Span(first.line, 1),
                hint=(
                    "pick one global order for these locks and acquire "
                    "them in that order on every path"
                ),
                related=tuple(
                    (e.module, Span(e.line, 1)) for e in edges[1:]
                ),
            )
        )
    return out


def _cycles(successors: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles, one representative per strongly-connected
    component (enough for reporting; the fix collapses the whole SCC)."""
    sccs = strongly_connected_components(successors)
    out: list[list[str]] = []
    for scc in sccs:
        members = set(scc)
        if len(scc) == 1:
            node = scc[0]
            if node in successors.get(node, set()):
                out.append([node])
            continue
        # Walk within the SCC until a node repeats: a concrete cycle.
        start = min(members)
        path = [start]
        seen = {start}
        node = start
        while True:
            node = min(n for n in successors.get(node, set()) if n in members)
            if node in seen:
                out.append(path[path.index(node):])
                break
            path.append(node)
            seen.add(node)
    return out


# -- LX502 --------------------------------------------------------------------------


def _check_blocking(
    cls: ClassModel, summaries: _Summaries
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for entry in cls.blocking:
        if not entry.held:
            continue
        foreign = entry.held - ({entry.subject} if entry.subject else set())
        if _blocks(entry):
            # A wait on one's own condition releases that condition — but
            # every *other* held lock stays held through the sleep.
            if entry.subject is not None and not foreign:
                if entry.bounded:
                    continue
                held_text = entry.subject
            else:
                held_text = ", ".join(sorted(foreign or entry.held))
            out.append(
                _blocking_diag(cls, entry.line, entry.desc, held_text)
            )
        elif entry.kind == "wait" and entry.subject is not None and foreign:
            out.append(
                _blocking_diag(
                    cls,
                    entry.line,
                    f"{entry.desc} (bounded, but {', '.join(sorted(foreign))}"
                    " stays held through the sleep)",
                    ", ".join(sorted(foreign)),
                )
            )
    for site in cls.calls:
        if not site.held:
            continue
        for raw in site.targets:
            target = summaries.resolve(raw)
            reason = summaries.may_block.get(target) if target else None
            if reason is not None:
                out.append(
                    _blocking_diag(
                        cls,
                        site.line,
                        f"{site.label} (may block: {reason})",
                        ", ".join(sorted(site.held)),
                    )
                )
                break
    return out


def _blocking_diag(
    cls: ClassModel, line: int, what: str, held: str
) -> Diagnostic:
    return Diagnostic(
        code="LX502",
        message=(
            f"{cls.name} blocks on {what} while holding {held} — every "
            "thread contending for that lock stalls behind the sleep"
        ),
        mapping=cls.module,
        span=Span(line, 1),
        hint=(
            "move the blocking call outside the critical section, or "
            "bound it with a timeout and re-check state after waking"
        ),
    )


# -- LX503 --------------------------------------------------------------------------


def _check_guarded_fields(cls: ClassModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    by_attr: dict[str, list] = {}
    for access in cls.accesses:
        if not access.in_init:
            by_attr.setdefault(access.attr, []).append(access)
    for attr, accesses in sorted(by_attr.items()):
        writes = [a for a in accesses if a.write]
        locked_writes = [a for a in writes if a.held]
        if not locked_writes:
            continue
        if len(locked_writes) / len(writes) < 0.75:
            continue
        counts = _Counter(
            lock for a in locked_writes for lock in a.held
        )
        majority = max(
            counts,
            key=lambda lock: (counts[lock], lock.startswith(cls.name + ".")),
        )
        bare = sorted(
            (a for a in accesses if majority not in a.held),
            key=lambda a: (a.line, a.column),
        )
        if not bare:
            continue
        first = bare[0]
        kinds = "written" if any(a.write for a in bare) else "read"
        out.append(
            Diagnostic(
                code="LX503",
                message=(
                    f"{cls.name}.{attr} is guarded by {majority} on "
                    f"{len(locked_writes)}/{len(writes)} write(s) but "
                    f"{kinds} without it at {len(bare)} site(s) "
                    f"(first: {cls.module}:{first.line} in "
                    f"{first.method})"
                ),
                mapping=cls.module,
                span=Span(first.line, first.column + 1),
                hint=(
                    f"take {majority} around every access, or document "
                    "the benign race with a justified suppression"
                ),
                related=tuple(
                    (cls.module, Span(a.line, a.column + 1))
                    for a in bare[1:5]
                ),
            )
        )
    return out


# -- LX504 --------------------------------------------------------------------------


def _check_callbacks(
    cls: ClassModel, model: PackageModel, summaries: _Summaries
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for cb in cls.callbacks:
        nonreentrant = sorted(
            key
            for key in cb.held
            if (info := model.lock_of(key)) is not None and not info.reentrant
        )
        if not nonreentrant:
            continue
        held = ", ".join(nonreentrant)
        out.append(
            Diagnostic(
                code="LX504",
                message=(
                    f"{cls.name}.{cb.method} invokes {cb.desc} while "
                    f"holding non-reentrant {held} — a callback that "
                    "calls back into this object deadlocks"
                ),
                mapping=cls.module,
                span=Span(cb.line, cb.column + 1),
                hint=(
                    "snapshot the callback list inside the lock and "
                    "invoke the callbacks after releasing it"
                ),
            )
        )
        # Callback delivery under a hot-path (obs/core) lock is also a
        # blocking-under-lock finding; report the stronger LX504 only.
    for site in cls.calls:
        if not site.held:
            continue
        hot = sorted(
            key
            for key in site.held
            if model.module_of_lock(key).startswith(HOT_LOCK_PREFIXES)
        )
        if not hot:
            continue
        for raw in site.targets:
            target = summaries.resolve(raw)
            reason = summaries.may_callback.get(target) if target else None
            if reason is not None:
                out.append(
                    Diagnostic(
                        code="LX502",
                        message=(
                            f"{cls.name}.{site.method} calls {site.label} "
                            f"(delivers callbacks: {reason}) while holding "
                            f"{', '.join(hot)} — listeners are arbitrary "
                            "user code and must not run under a hot-path "
                            "lock"
                        ),
                        mapping=cls.module,
                        span=Span(site.line, site.column + 1),
                        hint=(
                            "emit after releasing the lock (snapshot any "
                            "state the event needs first)"
                        ),
                    )
                )
                break
    return out


# -- LX505 --------------------------------------------------------------------------


def _check_threads(cls: ClassModel) -> list[Diagnostic]:
    if not cls.threads or cls.has_join or cls.has_stop_signal:
        return []
    out: list[Diagnostic] = []
    for spawn in cls.threads:
        flavor = "daemon thread" if spawn.daemon else "thread"
        label = f" {spawn.name!r}" if spawn.name else ""
        out.append(
            Diagnostic(
                code="LX505",
                message=(
                    f"{cls.name}.{spawn.method} starts {flavor}{label} "
                    "but the class has no join() call and never sets a "
                    "stop Event — the worker cannot be shut down"
                ),
                mapping=cls.module,
                span=Span(spawn.line, spawn.column + 1),
                hint=(
                    "keep the Thread, add a stop Event the loop checks, "
                    "and join() it from a close()/stop() method"
                ),
            )
        )
    return out
