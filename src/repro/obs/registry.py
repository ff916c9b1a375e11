"""A low-overhead metrics registry: Counter, Gauge, Histogram.

Modelled on the Prometheus client-library data model but dependency-free
and tuned for a simulator: a :class:`MetricsRegistry` holds metric
*families* (one per name), each family holds *children* (one per label
value combination), and children expose the mutation verbs
(``inc``/``set``/``observe``).

Cost discipline: publishing sites fetch children through
``registry.counter(...).labels(...)``.  When the registry is
*disabled*, ``labels()`` returns the shared :data:`NULL_CHILD`
singleton whose verbs are empty methods -- the entire instrumentation
path collapses to a couple of dictionary lookups and no-op calls, so
always-on publishing sites (engine telemetry, the invariant monitor)
are effectively free unless someone asked for metrics.  Per-cycle
publishers hold a :class:`CachedChild` instead, which resolves its
child once and then costs one call.  The process-global default
registry starts *disabled*; the CLIs enable it under ``--metrics``.
"""

from __future__ import annotations

import re
import threading
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in seconds (sim quantities are seconds).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class _NullChild:
    """Shared no-op child handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The singleton every ``labels()`` call on a disabled registry returns.
NULL_CHILD = _NullChild()


class CounterChild:
    """A monotonically increasing count for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self.value += amount


class GaugeChild:
    """A settable value for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """Bucketed observations for one label combination."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last bucket is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "HistogramChild") -> None:
        """Add the observations of ``other`` (same buckets) to this one."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms of other buckets")
        self.sum += other.sum
        self.count += other.count
        for index, count in enumerate(other.counts):
            self.counts[index] += count

    def cumulative(self) -> List[int]:
        """Cumulative per-bucket counts, Prometheus style (ends +Inf)."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


class MetricFamily:
    """One named metric with zero or more labelled children."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str, labelnames: Tuple[str, ...]):
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], object] = {}

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values, **labelvalues):
        """The child for one label combination (created on first use).

        Accepts either positional values in ``labelnames`` order or
        keyword arguments.  On a disabled registry this returns the
        shared :data:`NULL_CHILD` no-op.
        """
        if not self.registry.enabled:
            return NULL_CHILD
        if values and labelvalues:
            raise ValueError("pass label values either positionally "
                             "or by keyword, not both")
        if labelvalues:
            try:
                values = tuple(str(labelvalues[name])
                               for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc}") from None
            if len(labelvalues) != len(self.labelnames):
                extra = set(labelvalues) - set(self.labelnames)
                raise ValueError(f"{self.name}: unknown labels {extra}")
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {values}")
        child = self._children.get(values)
        if child is None:
            with self.registry._lock:
                child = self._children.setdefault(
                    values, self._new_child())
        return child

    # Label-less convenience verbs (delegate to the single child).

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        for key in sorted(self._children):
            yield key, self._children[key]


class Counter(MetricFamily):
    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()


class Gauge(MetricFamily):
    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild()


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str, labelnames: Tuple[str, ...],
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)


class MetricsRegistry:
    """A set of metric families, addressable by name.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers the family, later calls return it (and raise if the
    kind or label names disagree -- a misuse, not a race).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        #: Bumped by :meth:`reset`, so cached children resolve again.
        self.generation = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop every family (children and all)."""
        with self._lock:
            self._families.clear()
            self.generation += 1

    # -- family construction ----------------------------------------------

    def _family(self, cls, name: str, help: str,
                labelnames: Sequence[str], **kwargs) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = tuple(labelnames)
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) \
                    or existing.labelnames != labels:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}")
            return existing
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                existing = cls(self, name, help, labels, **kwargs)
                self._families[name] = existing
        return existing

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._family(Histogram, name, help, labelnames,
                            buckets=buckets)

    # -- introspection / export -------------------------------------------

    def families(self) -> List[MetricFamily]:
        return [self._families[name]
                for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def rows(self) -> List[Dict[str, object]]:
        """Flat, JSON-serializable samples (one dict per child).

        Counters and gauges carry ``value``; histograms carry ``sum``,
        ``count``, and a ``buckets`` map of upper-bound -> cumulative
        count (the ``inf`` key is the total).
        """
        out: List[Dict[str, object]] = []
        for family in self.families():
            for values, child in family.children():
                row: Dict[str, object] = {
                    "name": family.name,
                    "kind": family.kind,
                    "labels": dict(zip(family.labelnames, values)),
                }
                if isinstance(child, HistogramChild):
                    cumulative = child.cumulative()
                    row["sum"] = child.sum
                    row["count"] = child.count
                    row["buckets"] = {
                        **{str(bound): cumulative[index]
                           for index, bound
                           in enumerate(child.buckets)},
                        "inf": cumulative[-1],
                    }
                else:
                    row["value"] = child.value
                out.append(row)
        return out


class CachedChild:
    """A publisher's handle on one child: resolved once, then reused.

    ``resolve`` fetches the child the ordinary way, e.g. ``lambda:
    registry.counter(name, help, names).labels(*values)``.  Calling the
    handle returns the cached child while the registry is enabled and
    has not been reset since the fetch; otherwise it resolves again.  So
    a disabled registry records nothing (its :data:`NULL_CHILD` is never
    kept), and after :meth:`MetricsRegistry.reset` the next publish
    re-creates the family, exactly as an uncached fetch would.
    """

    __slots__ = ("registry", "resolve", "_child", "_generation")

    def __init__(self, registry: MetricsRegistry,
                 resolve: Callable[[], Any]):
        self.registry = registry
        self.resolve = resolve
        self._child = NULL_CHILD
        self._generation = -1

    def __call__(self) -> Any:
        registry = self.registry
        if registry.enabled and self._generation == registry.generation:
            return self._child
        generation = registry.generation
        child = self.resolve()
        if child is not NULL_CHILD:
            self._child = child
            self._generation = generation
        return child


#: The process-global registry: disabled until a CLI asks for metrics.
_DEFAULT = MetricsRegistry(enabled=False)


def default_registry() -> MetricsRegistry:
    """The process-global registry always-on publishers write into."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
