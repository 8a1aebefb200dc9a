"""Self-metered metrics primitives: counters, gauges, timing sketches.

Zero external dependencies.  Three instrument kinds cover everything the
instrumented layers need:

:class:`Counter`
    a monotonically increasing integer (NEW/COLLAPSE/OUTPUT counts,
    elements ingested, kernel strategy selections);

:class:`Gauge`
    a settable float (buffers in use, bytes resident);

:class:`TimingSketch`
    a value distribution (latencies, batch sizes) tracked with the
    library's **own** :class:`~repro.core.adaptive.AdaptiveQuantileSketch`:
    the instrumentation reports p50/p90/p99 with the exact certified
    rank bound it exists to demonstrate.

Instruments live in a :class:`MetricsRegistry`, addressed by name plus
an optional label mapping (``registry.counter("core.collapse",
level=3)``).  Creation is get-or-create, so call sites never need to
declare instruments up front; a family (all instruments of one name) can
be summed across labels for exposition.

The registry itself does no gating: the cost of not observing is paid at
the *call sites*, which guard every hook behind one module-attribute
read (see :mod:`repro.obs.hooks`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "TimingSketch",
    "MetricsRegistry",
]

#: percentiles reported by :meth:`TimingSketch.percentiles`
_TIMING_PHIS = (0.5, 0.9, 0.99)

#: observations a :class:`TimingSketch` buffers before one sketch extend
_FLUSH_AT = 1024

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def get(self) -> int:
        return self.value


class Gauge:
    """A point-in-time float value (last write wins)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def get(self) -> float:
        return self.value


class _Timer:
    """Context manager feeding one wall-clock duration (ms) into a sketch."""

    __slots__ = ("_sketch", "_start")

    def __init__(self, sketch: "TimingSketch") -> None:
        self._sketch = sketch
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._sketch.observe((time.perf_counter() - self._start) * 1000.0)


class TimingSketch:
    """A value distribution backed by the library's own quantile sketch.

    Values are recorded as given, in the instrument's unit; durations
    carry the unit in the instrument name (``service.query.latency_ms``)
    and :meth:`time` records milliseconds.  Observations are buffered
    and fed to the inner
    :class:`~repro.core.adaptive.AdaptiveQuantileSketch` in one
    vectorised extend every ``_FLUSH_AT`` values or when read: the
    service observes every request, one sketch insert per request was a
    measurable slice of server CPU, and batched ingest is bit-identical
    to one-at-a-time.  The sketch is created lazily (which also keeps
    this module free of import cycles with :mod:`repro.core`).
    """

    __slots__ = ("epsilon", "_sketch", "_buf")

    kind = "timing"

    def __init__(self, epsilon: float = 0.01) -> None:
        self.epsilon = epsilon
        self._sketch: Any = None
        self._buf: List[float] = []

    @property
    def n(self) -> int:
        """Values observed so far, buffered ones included."""
        n = len(self._buf)
        return n if self._sketch is None else n + self._sketch.n

    def observe(self, value: float) -> None:
        """Record one value (in the instrument's unit)."""
        buf = self._buf
        buf.append(value)
        if len(buf) >= _FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        if not self._buf:
            return
        if self._sketch is None:
            from ..core.adaptive import AdaptiveQuantileSketch

            self._sketch = AdaptiveQuantileSketch(epsilon=self.epsilon)
        self._sketch.extend(self._buf)
        self._buf = []

    def time(self) -> _Timer:
        """``with timing.time(): ...`` records the block's duration."""
        return _Timer(self)

    def percentiles(self) -> Optional[Dict[str, float]]:
        """p50/p90/p99 plus the certified rank bound, or ``None``."""
        self._flush()
        if self._sketch is None or self._sketch.n == 0:
            return None
        values = self._sketch.quantiles(list(_TIMING_PHIS))
        out = {
            f"p{int(phi * 100)}": round(float(v), 4)
            for phi, v in zip(_TIMING_PHIS, values)
        }
        out["n"] = self._sketch.n
        out["certified_rank_bound_fraction"] = round(
            self._sketch.error_bound_fraction(), 6
        )
        return out

    def get(self) -> Optional[Dict[str, float]]:
        return self.percentiles()


class MetricsRegistry:
    """Named, labelled instruments with get-or-create access.

    The registry is a flat map ``(name, sorted-labels) -> instrument``.
    Within one name every instrument must share a kind; mixing kinds
    under one name raises ``ValueError`` (it would make family rollups
    meaningless).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, str] = {}

    # -- access ------------------------------------------------------------

    def _get_or_create(
        self, name: str, labels: Dict[str, Any], factory: Any, kind: str
    ) -> Any:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            seen = self._kinds.get(name)
            if seen is not None and seen != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen}, "
                    f"requested {kind}"
                )
            inst = factory()
            self._instruments[key] = inst
            self._kinds[name] = kind
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter, "counter")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge, "gauge")

    def timing(self, name: str, **labels: Any) -> TimingSketch:
        return self._get_or_create(name, labels, TimingSketch, "timing")

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Tuple[str, LabelKey, Any]]:
        for (name, labels), inst in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            yield name, labels, inst

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._instruments})

    def kind_of(self, name: str) -> Optional[str]:
        """The instrument kind registered under *name* (None if absent)."""
        return self._kinds.get(name)

    def value(self, name: str, **labels: Any) -> Any:
        """The current value of one instrument (0/None if absent)."""
        inst = self._instruments.get((name, _label_key(labels)))
        if inst is None:
            return 0 if self._kinds.get(name) != "timing" else None
        return inst.get()

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label combinations."""
        return sum(
            inst.value
            for (n, _), inst in self._instruments.items()
            if n == name and not isinstance(inst, TimingSketch)
        )

    def family(self, name: str) -> Dict[LabelKey, Any]:
        """All instruments of one name, keyed by their label tuples."""
        return {
            labels: inst
            for (n, labels), inst in self._instruments.items()
            if n == name
        }

    def snapshot(self) -> List[Dict[str, Any]]:
        """A JSON-able dump of every instrument (sorted, stable order)."""
        rows: List[Dict[str, Any]] = []
        for name, labels, inst in self:
            rows.append(
                {
                    "name": name,
                    "kind": inst.kind,
                    "labels": dict(labels),
                    "value": inst.get(),
                }
            )
        return rows

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark isolation)."""
        self._instruments.clear()
        self._kinds.clear()
