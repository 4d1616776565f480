"""The per-class lock model: AST extraction for the LX5xx concurrency lints.

lexcheck's first four passes analyze lexpress *configurations*; this
module gives the fifth pass (:mod:`repro.analysis.concur.passes`) a model
of the *runtime* that executes them.  One scan of ``src/repro`` produces
a :class:`PackageModel`:

* every ``threading.Lock/RLock/Condition`` assigned to a ``self``
  attribute becomes a :class:`LockInfo` with a stable identity of
  ``ClassName.attr`` (``threading.Event`` attributes are tracked
  separately — they gate thread lifecycles, they do not order);
* every method body is walked with an intraprocedural **lockset**: the
  set of class locks held at each statement, derived from ``with
  self._lock:`` blocks;
* field accesses, lock acquisitions, self/typed calls, blocking
  primitives, stored-callback invocations and thread spawns are recorded
  together with the lockset in force at each site.

Two conventions of this codebase are modelled explicitly:

* **held-lock contracts** — a method whose docstring says ``Caller holds
  ``_cond``.`` (or whose name ends in ``_unlocked``/``_locked``) is
  analyzed as if that lock were held on entry; the convention predates
  the analyzer (``UpdateQueue._runnable`` et al.) and the pass
  verifies rather than guesses it;
* **attribute typing** — ``self.x = ClassName(...)`` assignments, a
  small role-name table for constructor parameters (``journal=...``),
  and the metrics-factory idiom (``registry.counter(...)`` returns a
  :class:`~repro.obs.metrics.Counter`) let call-graph propagation follow
  calls across class boundaries without real type inference.

The model is purely syntactic — no imports are executed.  Precision
limits are documented in docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Access",
    "Acquire",
    "Blocking",
    "CallSite",
    "CallbackCall",
    "ClassModel",
    "LockInfo",
    "PackageModel",
    "ThreadSpawn",
    "build_model",
    "default_root",
]

#: threading factory name -> lock kind (identity-ordered primitives).
LOCK_FACTORIES = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}

#: Methods that mutate their receiver in place (a write of the field).
MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "discard", "remove", "pop",
        "popleft", "popitem", "clear", "update", "setdefault", "extend",
        "insert",
    }
)

#: Substrings that mark an attribute as holding stored callbacks.
CALLBACK_MARKERS = ("listener", "callback", "observer", "hook")
#: Exact attribute names that are callbacks without a marker substring.
CALLBACK_NAMES = frozenset({"op_observer", "_compensate", "compensate"})

#: Constructor-parameter roles: ``self.x = journal`` types ``x`` when no
#: constructor call is visible (the health-plane wiring idiom).
ROLE_TYPES = {
    "journal": "EventJournal",
    "health": "HealthBoard",
    "board": "HealthBoard",
    "registry": "MetricsRegistry",
    "backend": "Backend",
    "pipeline": "UpdateSequencePipeline",
    "error_log": "ErrorLog",
    "alerts": "AlertEngine",
    "auditor": "ConsistencyAuditor",
}

#: Factory-method idiom: ``self.x = registry.counter(...)`` types ``x``.
FACTORY_RETURNS = {
    "counter": "Counter",
    "gauge": "Gauge",
    "histogram": "Histogram",
}

#: Docstring phrases announcing a held-lock contract.
_CONTRACT_RE = re.compile(r"caller holds|already-held-lock", re.IGNORECASE)
_CONTRACT_LOCK_RE = re.compile(r"``(\w+)``")


@dataclass(frozen=True)
class LockInfo:
    """One lock-typed attribute of one class."""

    cls: str
    attr: str
    kind: str  # "lock" | "rlock" | "condition"
    line: int

    @property
    def key(self) -> str:
        return f"{self.cls}.{self.attr}"

    @property
    def reentrant(self) -> bool:
        return self.kind == "rlock"


@dataclass(frozen=True)
class Access:
    """One read or write of a ``self`` attribute."""

    attr: str
    write: bool
    line: int
    column: int
    method: str
    held: frozenset[str]
    in_init: bool


@dataclass(frozen=True)
class Acquire:
    """One ``with self.<lock>:`` entry (the lock-order graph's raw edges)."""

    lock: str  # LockInfo.key
    line: int
    column: int
    method: str
    held: frozenset[str]  # locks already held when this one is taken


@dataclass(frozen=True)
class CallSite:
    """One resolvable call: ``self.m(...)`` or ``self.typed_attr.m(...)``."""

    targets: tuple[tuple[str, str], ...]  # (class, method) candidates
    line: int
    column: int
    method: str
    held: frozenset[str]
    label: str  # rendered receiver, for messages


@dataclass(frozen=True)
class Blocking:
    """One potentially blocking primitive call."""

    kind: str  # "sleep" | "wait" | "join" | "result" | "shutdown" | "io"
    desc: str
    bounded: bool
    #: Lock key when the receiver is a class Condition (its own release
    #: during ``wait`` is modelled by the pass), else None.
    subject: str | None
    line: int
    column: int
    method: str
    held: frozenset[str]


@dataclass(frozen=True)
class CallbackCall:
    """One invocation of a stored callback (listener/observer/hook)."""

    desc: str
    line: int
    column: int
    method: str
    held: frozenset[str]


@dataclass(frozen=True)
class ThreadSpawn:
    """One ``threading.Thread(...)`` construction."""

    line: int
    column: int
    method: str
    daemon: bool
    name: str | None


@dataclass
class ClassModel:
    """Everything the passes need to know about one class."""

    name: str
    module: str  # repo-relative path, e.g. "repro/core/queue.py"
    line: int
    bases: tuple[str, ...] = ()
    locks: dict[str, LockInfo] = field(default_factory=dict)
    events: set[str] = field(default_factory=set)
    methods: set[str] = field(default_factory=set)
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    accesses: list[Access] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[Blocking] = field(default_factory=list)
    callbacks: list[CallbackCall] = field(default_factory=list)
    threads: list[ThreadSpawn] = field(default_factory=list)
    #: Any ``.join(`` call anywhere in the class (a thread reaping path).
    has_join: bool = False
    #: Any ``self.<event>.set()`` call (a stop-signal path).
    has_stop_signal: bool = False

    def lock_keys(self) -> set[str]:
        return {info.key for info in self.locks.values()}


@dataclass
class PackageModel:
    """The whole-package model: every class, plus module source texts."""

    root: Path
    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: module path -> source text (for suppression scanning).
    sources: dict[str, str] = field(default_factory=dict)

    def lock_of(self, key: str) -> LockInfo | None:
        cls, _, attr = key.partition(".")
        model = self.classes.get(cls)
        return model.locks.get(attr) if model else None

    def module_of_lock(self, key: str) -> str:
        model = self.classes.get(key.partition(".")[0])
        return model.module if model else ""

    def resolve_method(self, cls_name: str, method: str) -> tuple[str, str] | None:
        """Find the class actually defining *method*, walking base classes.

        ``Counter.labels`` resolves to ``("Metric", "labels")`` — which is
        where the lock it acquires lives too."""
        seen: set[str] = set()
        queue = [cls_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return (name, method)
            queue.extend(cls.bases)
        return None


def default_root() -> Path:
    """The shipped package root (``src/repro``), resolved from this file."""
    return Path(__file__).resolve().parents[2]


def build_model(root: str | Path | None = None) -> PackageModel:
    """Parse every ``.py`` under *root* and build the package lock model."""
    root = Path(root) if root is not None else default_root()
    model = PackageModel(root=root)
    class_defs: list[tuple[str, ast.ClassDef]] = []
    for path in sorted(root.rglob("*.py")):
        rel = f"{root.name}/{path.relative_to(root).as_posix()}"
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel)
        except (OSError, SyntaxError):
            continue
        model.sources[rel] = source
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                class_defs.append((rel, node))
    # Phase 1: class names, methods, lock/event fields, attribute types —
    # collected before any body walk so typed calls can resolve forward
    # references between modules.
    for rel, node in class_defs:
        cls = _scan_class(rel, node)
        # Same-name classes in different modules would alias; first wins
        # and the collision is rare enough to tolerate (none shipped).
        model.classes.setdefault(cls.name, cls)
    # Phase 1.5: merge inherited lock/event fields and attribute types so
    # subclass method walks see base-class locks (keys keep the defining
    # class: a Counter's lock is still "Metric._lock").
    for cls in model.classes.values():
        _merge_inherited(model, cls)
    # Phase 2: method-body walks with locksets.
    for rel, node in class_defs:
        cls = model.classes[node.name]
        if cls.module != rel:
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _MethodWalker(cls, item).run()
    return model


# -- phase 1: class surface ---------------------------------------------------------


def _merge_inherited(model: PackageModel, cls: ClassModel) -> None:
    seen = {cls.name}
    queue = list(cls.bases)
    while queue:
        name = queue.pop(0)
        if name in seen:
            continue
        seen.add(name)
        base = model.classes.get(name)
        if base is None:
            continue
        for attr, info in base.locks.items():
            cls.locks.setdefault(attr, info)
        cls.events.update(base.events)
        for attr, types in base.attr_types.items():
            cls.attr_types.setdefault(attr, set()).update(types)
        queue.extend(base.bases)


def _scan_class(module: str, node: ast.ClassDef) -> ClassModel:
    bases = tuple(
        name
        for name in (_callable_name(b) for b in node.bases)
        if name is not None
    )
    cls = ClassModel(name=node.name, module=module, line=node.lineno, bases=bases)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.add(item.name)
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        attr = _self_attr(target)
        if attr is None:
            continue
        value = stmt.value
        _type_attr(cls, attr, value, stmt.lineno)
    return cls


def _type_attr(cls: ClassModel, attr: str, value: ast.expr, line: int) -> None:
    if isinstance(value, ast.Call):
        name = _callable_name(value.func)
        if name in LOCK_FACTORIES:
            cls.locks[attr] = LockInfo(
                cls.name, attr, LOCK_FACTORIES[name], line
            )
            return
        if name == "Event":
            cls.events.add(attr)
            return
        if name is not None and name[:1].isupper():
            cls.attr_types.setdefault(attr, set()).add(name)
            return
        if name in FACTORY_RETURNS:
            cls.attr_types.setdefault(attr, set()).add(FACTORY_RETURNS[name])
            return
    elif isinstance(value, ast.Name) and value.id in ROLE_TYPES:
        cls.attr_types.setdefault(attr, set()).add(ROLE_TYPES[value.id])
    elif attr in ROLE_TYPES and isinstance(value, (ast.Name, ast.Attribute)):
        cls.attr_types.setdefault(attr, set()).add(ROLE_TYPES[attr])


def _callable_name(func: ast.expr) -> str | None:
    """The trailing name of a call target (``threading.Lock`` -> ``Lock``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_callback_attr(attr: str) -> bool:
    lowered = attr.lower()
    return attr in CALLBACK_NAMES or any(
        marker in lowered for marker in CALLBACK_MARKERS
    )


def _has_timeout(call: ast.Call) -> bool:
    """Does this wait/join/result-style call carry a timeout bound?"""
    if call.args:
        first = call.args[0]
        if not (isinstance(first, ast.Constant) and first.value is None):
            return True
    for kw in call.keywords:
        if kw.arg == "timeout" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return True
    return False


def _shutdown_waits(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "wait":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    if call.args:
        first = call.args[0]
        return not (isinstance(first, ast.Constant) and first.value is False)
    return True  # Executor.shutdown defaults to wait=True


# -- phase 2: method walks ----------------------------------------------------------


class _MethodWalker:
    """Walks one method body, threading the intraprocedural lockset."""

    def __init__(self, cls: ClassModel, node: ast.FunctionDef):
        self.cls = cls
        self.node = node
        self.method = node.name
        self.in_init = node.name == "__init__"
        #: local name -> self attribute it snapshots (single assignment).
        self.var_sources: dict[str, str] = {}
        #: loop variables currently bound to a callback-holding iterable.
        self.callback_vars: set[str] = set()

    def run(self) -> None:
        held: tuple[str, ...] = self._contract_locks()
        self._walk_body(self.node.body, held)

    def _contract_locks(self) -> tuple[str, ...]:
        """Locks a held-lock contract declares held on entry."""
        doc = ast.get_docstring(self.node) or ""
        named: list[str] = []
        if _CONTRACT_RE.search(doc):
            for attr in _CONTRACT_LOCK_RE.findall(doc):
                if attr in self.cls.locks:
                    named.append(self.cls.locks[attr].key)
        elif not (
            self.method.endswith("_unlocked") or self.method.endswith("_locked")
        ):
            return ()
        if not named and len(self.cls.locks) == 1:
            named = [next(iter(self.cls.locks.values())).key]
        return tuple(named)

    # -- statements ---------------------------------------------------------

    def _walk_body(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in stmt.items:
                lock = self._lock_of_expr(item.context_expr)
                if lock is not None and lock.key not in inner:
                    self.cls.acquires.append(
                        Acquire(
                            lock.key,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                            self.method,
                            frozenset(inner),
                        )
                    )
                    inner.append(lock.key)
                else:
                    self._walk_expr(item.context_expr, tuple(inner))
            self._walk_body(stmt.body, tuple(inner))
        elif isinstance(stmt, ast.Assign):
            self._walk_expr(stmt.value, held)
            self._note_snapshot(stmt)
            for target in stmt.targets:
                self._write_target(target, held)
        elif isinstance(stmt, ast.AugAssign):
            self._walk_expr(stmt.value, held)
            self._write_target(stmt.target, held, also_read=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._walk_expr(stmt.value, held)
                self._write_target(stmt.target, held)
        elif isinstance(stmt, ast.For):
            self._walk_expr(stmt.iter, held)
            self._note_loop_callback(stmt)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._walk_expr(stmt.test, held)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_body(handler.body, held)
            self._walk_body(stmt.orelse, held)
            self._walk_body(stmt.finalbody, held)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            self._walk_expr(stmt.value, held)
        elif isinstance(stmt, ast.Raise):
            self._walk_expr(stmt.exc, held)
            self._walk_expr(stmt.cause, held)
        elif isinstance(stmt, ast.Assert):
            self._walk_expr(stmt.test, held)
            self._walk_expr(stmt.msg, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs later, outside the current lockset —
            # and never counts as __init__ publication.
            saved = self.in_init
            self.in_init = False
            self._walk_body(stmt.body, ())
            self.in_init = saved
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._write_target(target, held)
                else:
                    self._walk_expr(target, held)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, held)

    def _note_snapshot(self, stmt: ast.Assign) -> None:
        """Track ``local = self.attr`` so loop-callback detection can see
        through the snapshot idiom (``for cb in snapshot: cb(...)``)."""
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        attr = _self_attr(stmt.value)
        if attr is not None:
            self.var_sources[stmt.targets[0].id] = attr

    def _note_loop_callback(self, stmt: ast.For) -> None:
        if not isinstance(stmt.target, ast.Name):
            return
        iter_attr = _self_attr(stmt.iter)
        if iter_attr is None and isinstance(stmt.iter, ast.Name):
            iter_attr = self.var_sources.get(stmt.iter.id)
        if iter_attr is not None and _is_callback_attr(iter_attr):
            self.callback_vars.add(stmt.target.id)

    # -- expressions --------------------------------------------------------

    def _walk_expr(self, node: ast.expr | None, held: tuple[str, ...]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
            for arg in node.args:
                self._walk_expr(arg, held)
            for kw in node.keywords:
                self._walk_expr(kw.value, held)
            if isinstance(node.func, ast.Attribute):
                self._walk_expr(node.func.value, held)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                self._record_access(node, attr, False, held)
            else:
                self._walk_expr(node.value, held)
            return
        if isinstance(node, ast.Lambda):
            self._walk_expr(node.body, ())
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child, held)
            elif isinstance(child, ast.comprehension):
                self._walk_expr(child.iter, held)
                for test in child.ifs:
                    self._walk_expr(test, held)

    def _record_access(
        self,
        node: ast.expr,
        attr: str,
        write: bool,
        held: tuple[str, ...],
    ) -> None:
        if attr in self.cls.locks or attr in self.cls.events:
            return
        if not write and attr in self.cls.methods:
            # Reading a property/bound method is a call edge, not a field
            # read — record it so lock contracts propagate through it.
            self.cls.calls.append(
                CallSite(
                    ((self.cls.name, attr),),
                    node.lineno,
                    node.col_offset,
                    self.method,
                    frozenset(held),
                    f"self.{attr}",
                )
            )
            return
        self.cls.accesses.append(
            Access(
                attr,
                write,
                node.lineno,
                node.col_offset,
                self.method,
                frozenset(held),
                self.in_init,
            )
        )

    def _write_target(
        self,
        target: ast.expr,
        held: tuple[str, ...],
        also_read: bool = False,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, held, also_read)
            return
        if isinstance(target, ast.Subscript):
            self._walk_expr(target.slice, held)
            attr = _self_attr(target.value)
            if attr is not None:
                self._record_access(target, attr, True, held)
            else:
                self._walk_expr(target.value, held)
            return
        attr = _self_attr(target)
        if attr is not None:
            if also_read:
                self._record_access(target, attr, False, held)
            self._record_access(target, attr, True, held)
        elif isinstance(target, ast.Attribute):
            self._walk_expr(target.value, held)

    def _lock_of_expr(self, node: ast.expr) -> LockInfo | None:
        attr = _self_attr(node)
        if attr is not None:
            return self.cls.locks.get(attr)
        return None

    # -- calls --------------------------------------------------------------

    def _handle_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.callback_vars:
                self.cls.callbacks.append(
                    CallbackCall(
                        f"stored callback {func.id!r}",
                        node.lineno,
                        node.col_offset,
                        self.method,
                        frozenset(held),
                    )
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        mname = func.attr
        receiver = func.value

        # Thread construction: threading.Thread(...)
        if mname == "Thread":
            self._note_thread(node)
            return

        rcv_attr = _self_attr(receiver)

        # self.m(...): a self-call (possibly inherited — the passes resolve
        # through base classes) or a stored-callback field invocation.
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if mname not in self.cls.methods and _is_callback_attr(mname):
                self.cls.callbacks.append(
                    CallbackCall(
                        f"stored callback self.{mname}",
                        node.lineno,
                        node.col_offset,
                        self.method,
                        frozenset(held),
                    )
                )
            else:
                self.cls.calls.append(
                    CallSite(
                        ((self.cls.name, mname),),
                        node.lineno,
                        node.col_offset,
                        self.method,
                        frozenset(held),
                        f"self.{mname}",
                    )
                )
            return

        # time.sleep(...) — the canonical blocking primitive.
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "time"
            and mname == "sleep"
        ):
            self._note_blocking(node, "sleep", "time.sleep", False, None, held)
            return

        # Lock/condition method calls on class lock fields.
        if rcv_attr is not None and rcv_attr in self.cls.locks:
            info = self.cls.locks[rcv_attr]
            if mname == "acquire":
                self.cls.acquires.append(
                    Acquire(
                        info.key,
                        node.lineno,
                        node.col_offset,
                        self.method,
                        frozenset(held),
                    )
                )
            elif mname in ("wait", "wait_for"):
                self._note_blocking(
                    node,
                    "wait",
                    f"{info.key}.{mname}",
                    _has_timeout(node),
                    info.key,
                    held,
                )
            return

        # Event.wait on a class event field (stop-flag waits).
        if rcv_attr is not None and rcv_attr in self.cls.events:
            if mname == "wait":
                self._note_blocking(
                    node,
                    "wait",
                    f"self.{rcv_attr}.wait",
                    _has_timeout(node),
                    None,
                    held,
                )
            elif mname == "set":
                self.cls.has_stop_signal = True
            return

        # Generic blocking primitives by method name.
        if mname == "join":
            # One positional argument and no keywords is str.join, not a
            # thread join — the only shape Thread.join never takes.
            if not (len(node.args) == 1 and not node.keywords):
                self.cls.has_join = True
                self._note_blocking(
                    node, "join", "join", _has_timeout(node), None, held
                )
            return
        if mname == "wait":
            self._note_blocking(
                node, "wait", "wait", _has_timeout(node), None, held
            )
            return
        if mname == "result":
            self._note_blocking(
                node, "result", "Future.result", _has_timeout(node), None, held
            )
            return
        if mname == "shutdown":
            self._note_blocking(
                node,
                "shutdown",
                "Executor.shutdown",
                not _shutdown_waits(node),
                None,
                held,
            )
            return
        if mname in ("accept", "recv", "recv_into", "sendall", "connect"):
            self._note_blocking(
                node, "io", f"socket.{mname}", False, None, held
            )
            return

        # Typed external calls (self.journal.emit(...), metrics, ...).
        if rcv_attr is not None:
            if mname in MUTATORS and rcv_attr not in self.cls.locks:
                self._record_access(node, rcv_attr, True, held)
            types = self.cls.attr_types.get(rcv_attr)
            if types:
                self.cls.calls.append(
                    CallSite(
                        tuple((t, mname) for t in sorted(types)),
                        node.lineno,
                        node.col_offset,
                        self.method,
                        frozenset(held),
                        f"self.{rcv_attr}.{mname}",
                    )
                )

    def _note_blocking(
        self,
        node: ast.Call,
        kind: str,
        desc: str,
        bounded: bool,
        subject: str | None,
        held: tuple[str, ...],
    ) -> None:
        self.cls.blocking.append(
            Blocking(
                kind,
                desc,
                bounded,
                subject,
                node.lineno,
                node.col_offset,
                self.method,
                frozenset(held),
            )
        )

    def _note_thread(self, node: ast.Call) -> None:
        daemon = False
        name = None
        for kw in node.keywords:
            if kw.arg == "daemon" and isinstance(kw.value, ast.Constant):
                daemon = bool(kw.value.value)
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                name = str(kw.value.value)
        self.cls.threads.append(
            ThreadSpawn(
                node.lineno, node.col_offset, self.method, daemon, name
            )
        )
