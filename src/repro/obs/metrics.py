"""Thread-safe metrics primitives for the MetaComm pipeline.

The paper's evaluation (sections 4.4/5.4) argues that one serialized
pipeline keeps every repository convergent — but the seed code could only
*assert* that, not measure it: each component kept an ad-hoc
``statistics`` dict.  This module replaces those dicts with a small,
dependency-free metrics registry in the style of the Prometheus client
libraries:

* :class:`Counter` — monotonically increasing totals (fan-outs, DDUs);
* :class:`Gauge` — instantaneous values (queue depth);
* :class:`Histogram` — latency distributions with cumulative buckets
  (enqueue→dequeue wait, per-device apply time);

all three supporting **labels** (``counter.labels(device="pbx-west")``)
and all safe to update from client threads and the link dispatcher
concurrently.

A :class:`MetricsRegistry` owns a namespace of metrics; every MetaComm
system creates its own registry so tests and co-hosted systems never share
counters.  Module-level code with no instance to hang a registry on (the
lexpress interpreter) uses the process-wide :func:`global_registry`.

Registries can be created *disabled*: every series is then bound to one
shared no-op child, so a write costs a call that does nothing — which is
what the instrumentation-overhead smoke benchmark compares against.
Whether a registry records is decided when a series is bound, never on a
write.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import nullcontext
from threading import get_ident
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCache",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "global_registry",
]

#: Default histogram buckets — tuned for sub-millisecond in-process hops
#: up to multi-second synchronization runs (seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def _label_key(
    labelnames: tuple[str, ...], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class LabelCache(dict):
    """A labelled family's children keyed by the value of its one free
    label (the others fixed at construction) — or, with several free
    labels, by the tuple of their values — each resolved on first use.

    Hot paths index this instead of calling ``.labels(...)``, which checks
    and builds the label key on every call; and since a child is bound
    only when first used, no series appears before its first update."""

    def __init__(self, metric: "Metric", **fixed: str):
        super().__init__()
        self._free = tuple(n for n in metric.labelnames if n not in fixed)
        self._metric = metric
        self._fixed = fixed

    def __missing__(self, key):
        values = (key,) if len(self._free) == 1 else key
        # Benign race: two threads may both bind the child; the registry
        # dedupes by label key, so both get the same one.
        child = self[key] = self._metric.labels(
            **self._fixed, **dict(zip(self._free, values))
        )
        return child


class Metric:
    """Base class: a named family of children, one per label combination."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        registry: "MetricsRegistry | None" = None,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.registry = registry
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # Unlabelled metrics have exactly one child, created eagerly so
            # the hot path never takes the family lock.
            self._default = self._bind()
            self._children[()] = self._default
        else:
            self._default = None

    def _bind(self):
        """A new child — or, in a registry built disabled, the family's
        shared no-op child: whether to record is decided once, here, and
        never again on a write."""
        if self.registry is not None and not self.registry.enabled:
            return self._noop()
        return self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def _noop(self):
        return _NOOP

    def labels(self, **labels: str):
        """The child bound to one label combination (created on demand)."""
        key = _label_key(self.labelnames, labels)
        # Double-checked create: the bare read is a hot-path fast lane; a
        # stale miss just falls into the locked setdefault, which dedupes.
        child = self._children.get(key)  # lexcheck: ignore[LX503]
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._bind())
        return child

    def _child(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self._default

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        with self._lock:
            items = list(self._children.items())
        return iter(sorted(items))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# -- children ---------------------------------------------------------------
#
# A child keeps one cell per writing thread, keyed by the thread's id: a
# write adds to the caller's own cell and takes no lock, and a read sums
# the cells (the G-Counter of Shapiro & Preguica, with threads for
# replicas).  Two things make the unlocked add safe under the GIL: only
# the thread a cell is keyed by ever writes it, and every dict operation
# used here (``get``, item store, ``list(d.values())``) is one atomic step.
# A thread id the runtime reuses after its thread ended keys the same
# cell, which the new thread simply goes on adding to — the dead thread
# writes no more, so no add is lost.  docs/CONCURRENCY.md has the argument.


def _cells_total(cells: dict) -> float:
    total = 0.0
    for cell in list(cells.values()):
        total += cell[0]
    return total


class _CounterChild:
    __slots__ = ("_cells",)

    def __init__(self):
        #: thread id -> [this thread's running total]
        self._cells: dict[int, list] = {}

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        cell = self._cells.get(get_ident())
        if cell is None:
            cell = self._cells[get_ident()] = [0.0]
        cell[0] += amount

    @property
    def value(self) -> float:
        return _cells_total(self._cells)


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._child().inc(amount)

    @property
    def value(self) -> float:
        return self._child().value

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(child.value for _, child in self.children())


class _GaugeChild:
    """``set`` stores the value; ``inc``/``dec``/``track`` add to the
    caller's own cell, and a read adds the cells to the stored value.

    A gauge is either set or tracked, not both: a ``set`` does not clear
    what the cells hold, so it only means "the value is now this" for a
    gauge no one moves with ``inc``/``dec``."""

    __slots__ = ("_value", "_cells", "_tracker")

    def __init__(self):
        self._value = 0.0
        self._cells: dict[int, list] = {}
        self._tracker = _GaugeTracker(self)

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        cell = self._cells.get(get_ident())
        if cell is None:
            cell = self._cells[get_ident()] = [0.0]
        cell[0] += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def track(self) -> "_GaugeTracker":
        return self._tracker

    @property
    def value(self) -> float:
        if not self._cells:
            return self._value
        return self._value + _cells_total(self._cells)


class _GaugeTracker:
    """Context manager: +1 on entry, -1 on exit (in-flight tracking).
    Stateless, so each gauge child hands out the same one."""

    __slots__ = ("_child",)

    def __init__(self, child: _GaugeChild):
        self._child = child

    def __enter__(self) -> "_GaugeTracker":
        self._child.inc()
        return self

    def __exit__(self, *exc_info) -> None:
        self._child.inc(-1.0)


class Gauge(Metric):
    """An instantaneous value that can go up and down."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._child().dec(amount)

    def track(self) -> _GaugeTracker:
        """Track a block's concurrency: the gauge counts blocks in flight."""
        return self._child().track()

    @property
    def value(self) -> float:
        return self._child().value


class _HistogramChild:
    __slots__ = ("_buckets", "_cells")

    def __init__(self, buckets: tuple[float, ...]):
        self._buckets = buckets
        #: thread id -> [count per bucket..., +Inf count, sum]
        self._cells: dict[int, list] = {}

    def observe(self, value: float) -> None:
        cell = self._cells.get(get_ident())
        if cell is None:
            cell = self._cells[get_ident()] = [0] * (len(self._buckets) + 1)
            cell.append(0.0)
        buckets = self._buckets
        # The first bound >= value; NaN compares false to every bound, so
        # it belongs in +Inf (bisect_left alone would file it first).
        cell[bisect_left(buckets, value) if value == value else len(buckets)] += 1
        cell[-1] += value

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)

    def _counts(self) -> Iterable[int]:
        """The per-bucket counts (+Inf last), every cell summed."""
        cells = list(self._cells.values())
        if len(cells) == 1:
            return cells[0][:-1]
        if not cells:
            return [0] * (len(self._buckets) + 1)
        return [sum(column) for column in zip(*cells)][:-1]

    @property
    def count(self) -> int:
        return sum(self._counts())

    @property
    def sum(self) -> float:
        total = 0.0
        for cell in list(self._cells.values()):
            total += cell[-1]
        return total

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf — whose
        count is the histogram's count."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self._buckets, _INF), self._counts()):
            running += count
            out.append((bound, running))
        return out


class _HistogramTimer:
    """Context manager observing the wall-clock time of its block."""

    __slots__ = ("_child", "_start")

    def __init__(self, child: _HistogramChild):
        self._child = child
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._child.observe(time.perf_counter() - self._start)


class Histogram(Metric):
    """A latency/size distribution with cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        registry: "MetricsRegistry | None" = None,
        buckets: Iterable[float] | None = None,
    ):
        self.buckets = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        self._noop_child = _NoopChild(self.buckets)
        super().__init__(name, help, labelnames, registry)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def _noop(self) -> "_NoopChild":
        return self._noop_child

    def observe(self, value: float) -> None:
        self._child().observe(value)

    def time(self) -> _HistogramTimer:
        return self._child().time()

    @property
    def count(self) -> int:
        return self._child().count

    @property
    def sum(self) -> float:
        return self._child().sum

    def cumulative(self) -> list[tuple[float, int]]:
        return self._child().cumulative()


class _NoopChild:
    """What a registry built disabled binds for every series: every write
    is a no-op and every read is zero.  Counters and gauges share one;
    each histogram family has its own, for its bucket bounds."""

    __slots__ = ("_buckets",)

    value = 0.0
    count = 0
    sum = 0.0

    def __init__(self, buckets: tuple[float, ...] = ()):
        self._buckets = buckets

    def inc(self, amount: float = 1.0) -> None:
        pass

    set = dec = observe = inc

    def track(self) -> nullcontext:
        return _NULL_CONTEXT

    time = track

    def cumulative(self) -> list[tuple[float, int]]:
        return [(bound, 0) for bound in (*self._buckets, _INF)]


_NOOP = _NoopChild()
_NULL_CONTEXT = nullcontext()


class MetricsRegistry:
    """A namespace of metrics; get-or-create semantics per name.

    Asking twice for the same name returns the same metric object, so
    several components can share a family (e.g. every device filter's
    ``metacomm_filter_events_total``) and differ only in labels.  Asking
    for an existing name with a different kind or label set raises.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # -- get-or-create -----------------------------------------------------

    def _register(self, cls, name, help, labelnames, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, registry=self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return iter(metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def child(self, name: str, **labels: str):
        """The child of *name* bound to *labels*, or None if that series
        was never bound (or *name* never registered); binds nothing."""
        metric = self.get(name)
        if metric is None:
            return None
        return metric._children.get(_label_key(metric.labelnames, labels))

    def value(self, name: str, **labels: str) -> float:
        """Convenience: current value of a counter/gauge child (0 if absent)."""
        if labels:
            return getattr(self.child(name, **labels), "value", 0.0)
        metric = self.get(name)
        if metric is None:
            return 0.0
        if isinstance(metric, Counter) and metric.labelnames:
            return metric.total()
        return getattr(metric, "value", 0.0)

    def snapshot(self) -> dict:
        """A JSON-able dump of every metric and child."""
        out: dict[str, dict] = {}
        for metric in self:
            entry: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": [],
            }
            for key, child in metric.children():
                labels = dict(zip(metric.labelnames, key))
                if metric.kind == "histogram":
                    cumulative = child.cumulative()
                    entry["samples"].append(
                        {
                            "labels": labels,
                            "count": cumulative[-1][1],
                            "sum": child.sum,
                            "buckets": [
                                [bound, count] for bound, count in cumulative
                            ],
                        }
                    )
                else:
                    entry["samples"].append(
                        {"labels": labels, "value": child.value}
                    )
            out[metric.name] = entry
        return out


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (used by module-level instrumentation)."""
    return _GLOBAL
