"""A small, stdlib-only metrics registry (Prometheus data model).

Three instrument kinds, mirroring the Prometheus types the exposition
layer (:mod:`repro.obs.prom`) renders:

* :class:`Counter` — monotonically increasing totals (requests served,
  cache hits); names end in ``_total`` by convention.  A counter is
  either labelled, counting through its children, or *callback-backed*:
  its value is read at collect time from state the owner already
  tracks, so ``/stats`` and ``/metrics`` never need double bookkeeping.
* :class:`Gauge` — point-in-time values (queue depth, live jobs),
  always callback-backed.
* :class:`Histogram` — cumulative fixed-bucket distributions; the
  shared :data:`LATENCY_BUCKETS_S` ladder keeps every latency series
  comparable across the service, the loadtest and CI gates.

An instrument is created once per name on the registry, and the
:meth:`~_Instrument.labels` of a labelled one returns (and memoises) the
child for one label-value combination.  Mutations take the registry
lock, so handler threads, the dispatcher and the scrape path can share
one registry safely.  Metric names are part of the public contract —
dashboards and CI scrape them — so instruments must be created through
the registry, which enforces name uniqueness and valid identifiers.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
]

#: The fixed latency ladder (seconds) shared by every latency histogram:
#: service batches, HTTP requests, and the loadtest report.  Sub-ms
#: resolution at the bottom (warm memo hits land around 100-500us),
#: tens of seconds at the top (cold grid sweeps).
LATENCY_BUCKETS_S = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass
class MetricFamily:
    """One metric with its type, help text and current samples."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: list[Sample] = field(default_factory=list)


class _Instrument:
    """Shared labelled-children plumbing for all instrument kinds."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ):
        self._lock = registry._lock
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: str):
        """The child instrument for one label-value combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _label_items(self) -> list[tuple[tuple[tuple[str, str], ...], Any]]:
        with self._lock:
            return [
                (tuple(zip(self.labelnames, key)), child)
                for key, child in sorted(self._children.items())
            ]


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    """A monotonically increasing total: labelled, or callback-backed.

    A labelled counter counts through its children
    (``counter.labels(route=..., code=...).inc()``).  A callback-backed
    one reads external monotonic state at collect time, so a total the
    owner already tracks (cache hits, request counts) has exactly one
    source of truth — ``/stats`` and ``/metrics`` cannot drift.
    """

    kind = "counter"

    def __init__(
        self,
        registry,
        name,
        help,
        labelnames=(),
        callback: Callable[[], float] | None = None,
    ):
        super().__init__(registry, name, help, labelnames)
        if bool(labelnames) == (callback is not None):
            raise ValueError(
                f"{name}: a counter is either labelled or callback-backed"
            )
        self._callback = callback

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def value_of(self, **labelvalues: str) -> float:
        """Current total of one labelled child (0.0 when never touched)."""
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            return child.value if child is not None else 0.0

    def collect(self) -> MetricFamily:
        if self._callback is not None:
            samples = [Sample(self.name, (), float(self._callback()))]
        else:
            samples = [
                Sample(self.name, labels, child.value)
                for labels, child in self._label_items()
            ]
        return MetricFamily(self.name, self.kind, self.help, samples)


class Gauge:
    """A point-in-time value (queue depth, live jobs), read from
    *callback* at collect time, so state the owner already tracks never
    needs double bookkeeping."""

    kind = "gauge"

    def __init__(self, name: str, help: str, callback: Callable[[], float]):
        self.name = name
        self.help = help
        self._callback = callback

    def collect(self) -> MetricFamily:
        sample = Sample(self.name, (), float(self._callback()))
        return MetricFamily(self.name, self.kind, self.help, [sample])


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class Histogram(_Instrument):
    """Cumulative histogram over :data:`LATENCY_BUCKETS_S` (Prometheus
    semantics)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames=()):
        super().__init__(registry, name, help, labelnames)
        self.buckets = LATENCY_BUCKETS_S
        self._default = (
            _HistogramChild(self._lock, self.buckets) if not labelnames else None
        )

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        if self._default is None:
            raise ValueError(
                f"{self.name} is labelled; use .labels(...).observe()"
            )
        self._default.observe(value)

    def _child_samples(
        self, labels: tuple[tuple[str, str], ...], child: _HistogramChild
    ) -> list[Sample]:
        samples = []
        cumulative = 0
        for bound, n in zip(self.buckets, child.counts):
            cumulative += n
            samples.append(
                Sample(
                    f"{self.name}_bucket",
                    labels + (("le", _format_bound(bound)),),
                    cumulative,
                )
            )
        samples.append(
            Sample(f"{self.name}_bucket", labels + (("le", "+Inf"),), child.count)
        )
        samples.append(Sample(f"{self.name}_sum", labels, child.sum))
        samples.append(Sample(f"{self.name}_count", labels, child.count))
        return samples

    def collect(self) -> MetricFamily:
        fam = MetricFamily(self.name, self.kind, self.help)
        if self._default is not None:
            fam.samples.extend(self._child_samples((), self._default))
        else:
            for labels, child in self._label_items():
                fam.samples.extend(self._child_samples(labels, child))
        return fam


def _format_bound(bound: float) -> str:
    """Prometheus-style bucket bound: integral values without the ``.0``."""
    return str(int(bound)) if bound == int(bound) else repr(bound)


class MetricsRegistry:
    """The set of instruments one process (or one service) exports.

    Creation is idempotent per name *and* signature — asking twice for
    the same counter returns the same object, so instrumented modules
    need no global wiring order.  Conflicting re-registration (same name,
    different kind/labels) raises, which is what keeps scraped metric
    names stable.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _register(self, factory: Callable[[], Any], name: str, kind: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = factory()
        with self._lock:
            return self._metrics.setdefault(name, metric)

    def counter(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        callback: Callable[[], float] | None = None,
    ) -> Counter:
        _check_labels(labelnames)
        return self._register(
            lambda: Counter(self, name, help, labelnames, callback),
            name,
            "counter",
        )

    def gauge(
        self, name: str, help: str, *, callback: Callable[[], float]
    ) -> Gauge:
        return self._register(lambda: Gauge(name, help, callback), name, "gauge")

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
    ) -> Histogram:
        _check_labels(labelnames)
        return self._register(
            lambda: Histogram(self, name, help, labelnames),
            name,
            "histogram",
        )

    # ------------------------------------------------------------------
    def collect(self) -> list[MetricFamily]:
        """Current samples of every instrument, sorted by metric name."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return [metric.collect() for _name, metric in metrics]


def _check_labels(labelnames: tuple[str, ...]) -> None:
    for label in labelnames:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
