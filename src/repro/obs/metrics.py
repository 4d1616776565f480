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

Registries can be created *disabled*: every update becomes a cheap no-op,
which is what the instrumentation-overhead smoke benchmark compares
against.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
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
    label (the others fixed at construction), each resolved on first use.

    Hot paths index this instead of calling ``.labels(...)``, which checks
    and builds the label key on every call; and since a child is bound
    only when first used, no series appears before its first update."""

    def __init__(self, metric: "Metric", **fixed: str):
        super().__init__()
        (self._free,) = [n for n in metric.labelnames if n not in fixed]
        self._metric = metric
        self._fixed = fixed

    def __missing__(self, value: str):
        # Benign race: two threads may both bind the child; the registry
        # dedupes by label key, so both get the same one.
        child = self[value] = self._metric.labels(
            **self._fixed, **{self._free: value}
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
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    @property
    def enabled(self) -> bool:
        return self.registry is None or self.registry.enabled

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child bound to one label combination (created on demand)."""
        key = _label_key(self.labelnames, labels)
        # Double-checked create: the bare read is a hot-path fast lane; a
        # stale miss just falls into the locked setdefault, which dedupes.
        child = self._children.get(key)  # lexcheck: ignore[LX503]
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
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


class _CounterChild:
    __slots__ = ("_value", "_lock", "_metric")

    def __init__(self, metric: "Counter"):
        self._metric = metric
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        # Scrape-side read of one float: torn-read-free under the GIL,
        # and a scrape racing an inc() legitimately sees either total.
        return self._value  # lexcheck: ignore[LX503]


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self)

    def inc(self, amount: float = 1.0) -> None:
        self._child().inc(amount)

    @property
    def value(self) -> float:
        return self._child().value

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(child.value for _, child in self.children())


class _GaugeChild:
    __slots__ = ("_value", "_lock", "_metric")

    def __init__(self, metric: "Gauge"):
        self._metric = metric
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not self._metric.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def track(self) -> "_GaugeTracker":
        return _GaugeTracker(self)

    @property
    def value(self) -> float:
        # Same benign race as _CounterChild.value: single-float snapshot.
        return self._value  # lexcheck: ignore[LX503]


class _GaugeTracker:
    """Context manager: +1 on entry, -1 on exit (in-flight tracking)."""

    __slots__ = ("_child",)

    def __init__(self, child: _GaugeChild):
        self._child = child

    def __enter__(self) -> "_GaugeTracker":
        self._child.inc()
        return self

    def __exit__(self, *exc_info) -> None:
        self._child.dec()


class Gauge(Metric):
    """An instantaneous value that can go up and down."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self)

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
    __slots__ = ("_metric", "_lock", "counts", "sum", "count")

    def __init__(self, metric: "Histogram"):
        self._metric = metric
        self._lock = threading.Lock()
        self.counts = [0] * (len(metric.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._metric.enabled:
            return
        buckets = self._metric.buckets
        # The first bound >= value; NaN compares false to every bound, so
        # it belongs in +Inf (bisect_left alone would file it first).
        index = bisect_left(buckets, value) if value == value else len(buckets)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        with self._lock:
            counts = list(self.counts)
        out: list[tuple[float, int]] = []
        running = 0
        bounds = [*self._metric.buckets, _INF]
        for bound, count in zip(bounds, counts):
            running += count
            out.append((bound, running))
        return out


class _HistogramTimer:
    """Context manager observing the wall-clock time of its block."""

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
        super().__init__(name, help, labelnames, registry)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self)

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

    def value(self, name: str, **labels: str) -> float:
        """Convenience: current value of a counter/gauge child (0 if absent)."""
        metric = self.get(name)
        if metric is None:
            return 0.0
        if labels:
            child = metric._children.get(
                _label_key(metric.labelnames, labels)
            )
            return getattr(child, "value", 0.0) if child is not None else 0.0
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
                    entry["samples"].append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                [bound, count]
                                for bound, count in child.cumulative()
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
