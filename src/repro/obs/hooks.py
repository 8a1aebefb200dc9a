"""The instrumentation gate: module-level state the hot paths consult.

Design constraint: the core ingest loop must pay (almost) nothing when
observability is off.  Every instrumented call site in
:mod:`repro.core` is guarded by a single module-attribute read::

    from ..obs import hooks as _obs
    ...
    if _obs.ENABLED:
        _obs.on_collapse(self, group, result, weight, offset)

``ENABLED`` is a plain module global -- the disabled cost is one
attribute load plus a branch, and the guards sit at *buffer/chunk*
granularity (one per NEW/COLLAPSE/chunk, never per element), so the
per-element overhead is ~1/k of an attribute read.  The benchmark gate
(``bench_hotpath.py --quick``, section ``obs``) measures exactly this
and CI asserts it stays under 2%.

:func:`enable` installs a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.trace.Tracer` (defaults are created on demand);
:func:`disable` turns the gate off but keeps both readable, so a
benchmark can flip instrumentation without losing what it collected.

Per-sketch statistics (NEW/COLLAPSE counts per level, the running
certified bound) live in a lazily attached :class:`SketchObsStats` on
each observed framework -- the service reads these to report per-metric
collapse trees and live epsilon*N without a global registry lookup per
metric.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "tracer",
    "SketchObsStats",
    "stats_for",
    "collected_stats",
]

#: THE gate.  Core call sites read this exactly once per hook site.
ENABLED = False

_registry: Optional[Any] = None  # MetricsRegistry
_tracer: Optional[Any] = None  # Tracer


def enable(
    registry: Optional[Any] = None,
    tracer: Optional[Any] = None,
    *,
    ring_capacity: int = 1024,
) -> Any:
    """Turn instrumentation on; returns the active registry.

    Passing an existing registry/tracer reuses it (the service passes
    its own so STATS can render the collected families); otherwise
    fresh defaults are created on first enable and kept across
    enable/disable cycles.
    """
    global ENABLED, _registry, _tracer
    if registry is not None:
        _registry = registry
    elif _registry is None:
        from .metrics import MetricsRegistry

        _registry = MetricsRegistry()
    if tracer is not None:
        _tracer = tracer
    elif _tracer is None:
        from .trace import Tracer

        _tracer = Tracer(ring_capacity=ring_capacity)
    ENABLED = True
    return _registry


def disable() -> None:
    """Turn the gate off (collected state stays readable)."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


def registry() -> Any:
    """The active registry (created on demand even while disabled)."""
    global _registry
    if _registry is None:
        from .metrics import MetricsRegistry

        _registry = MetricsRegistry()
    return _registry


def tracer() -> Any:
    """The active tracer (created on demand even while disabled)."""
    global _tracer
    if _tracer is None:
        from .trace import Tracer

        _tracer = Tracer()
    return _tracer


def reset() -> None:
    """Drop gate + collected state entirely (test isolation)."""
    global ENABLED, _registry, _tracer, _hot
    ENABLED = False
    _registry = None
    _tracer = None
    _hot = None


# -- cached instrument handles ------------------------------------------------


class _HotHandles:
    """Instrument handles resolved once, not per event.

    ``registry().counter(name, **labels)`` builds a labels dict, sorts
    it into a key tuple and does two dict lookups -- fine for one-off
    reads, but the NEW/COLLAPSE hooks fire thousands of times per
    second under service ingest and the lookup chain was ~10% of server
    CPU.  Handles are plain attribute/dict reads here; the cache
    revalidates with a single identity check so registry swaps
    (``enable(registry=...)``, ``reset()``) stay correct.
    """

    __slots__ = (
        "registry",
        "new_by_level",
        "collapse_by_level",
        "buffers_gauge",
        "output",
        "elements_ingested",
        "bytes_ingested",
        "bank_chunks",
        "bank_elements",
        "bank_runs",
        "engine_events",
    )

    def __init__(self, reg: Any) -> None:
        self.registry = reg
        self.new_by_level: Dict[int, Any] = {}
        self.collapse_by_level: Dict[int, Any] = {}
        self.buffers_gauge = reg.gauge("core.buffers_in_use")
        self.output = reg.counter("core.output")
        self.elements_ingested = reg.counter("core.elements_ingested")
        self.bytes_ingested = reg.counter("core.bytes_ingested")
        self.bank_chunks = reg.counter("bank.chunks")
        self.bank_elements = reg.counter("bank.elements")
        self.bank_runs = reg.counter("bank.runs")
        self.engine_events: Dict[Any, Any] = {}


_hot: Optional[_HotHandles] = None


def _handles() -> _HotHandles:
    global _hot
    reg = registry()
    hot = _hot
    if hot is None or hot.registry is not reg:
        hot = _hot = _HotHandles(reg)
    return hot


# -- per-sketch statistics ----------------------------------------------------


class SketchObsStats:
    """Per-framework operation counts and the running certified bound.

    The two per-level dicts are created by the first NEW / COLLAPSE they
    count: a sketch that has only ingested (a KLL or a paper metric
    whose first buffer is not yet full) pays for neither.
    """

    __slots__ = (
        "new_by_level",
        "collapses_by_level",
        "outputs",
        "elements",
        "last_bound",
    )

    def __init__(self) -> None:
        self.new_by_level: Optional[Dict[int, int]] = None
        self.collapses_by_level: Optional[Dict[int, int]] = None
        self.outputs = 0
        self.elements = 0
        self.last_bound = 0.0

    @property
    def n_new(self) -> int:
        return sum(self.new_by_level.values()) if self.new_by_level else 0

    @property
    def n_collapses(self) -> int:
        by_level = self.collapses_by_level
        return sum(by_level.values()) if by_level else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "new_by_level": _by_level_dict(self.new_by_level),
            "collapses_by_level": _by_level_dict(self.collapses_by_level),
            "outputs": self.outputs,
            "elements": self.elements,
            "certified_bound": self.last_bound,
        }

    def merge(self, other: "SketchObsStats") -> None:
        self.new_by_level = _merged_counts(self.new_by_level, other.new_by_level)
        self.collapses_by_level = _merged_counts(
            self.collapses_by_level, other.collapses_by_level
        )
        self.outputs += other.outputs
        self.elements += other.elements
        self.last_bound = max(self.last_bound, other.last_bound)


def _by_level_dict(by_level: Optional[Dict[int, int]]) -> Dict[str, int]:
    return {str(k): v for k, v in sorted(by_level.items())} if by_level else {}


def _merged_counts(
    mine: Optional[Dict[int, int]], theirs: Optional[Dict[int, int]]
) -> Optional[Dict[int, int]]:
    """*mine* plus *theirs*, level by level (made on first need)."""
    if not theirs:
        return mine
    merged = {} if mine is None else mine
    for level, count in theirs.items():
        merged[level] = merged.get(level, 0) + count
    return merged


def _counted(by_level: Optional[Dict[int, int]], level: int) -> Dict[int, int]:
    """*by_level* with one more at *level* (made on first need)."""
    if by_level is None:
        by_level = {}
    by_level[level] = by_level.get(level, 0) + 1
    return by_level


def stats_for(fw: Any) -> SketchObsStats:
    """Get-or-create the per-sketch stats attached to *fw*."""
    stats = getattr(fw, "_obs_stats", None)
    if stats is None:
        stats = SketchObsStats()
        fw._obs_stats = stats
    return stats


def collected_stats(sketch: Any) -> Optional[SketchObsStats]:
    """Aggregate stats for any sketch-like object, or ``None`` if unobserved.

    Frameworks carry their stats directly.  The adaptive multi-stage
    sketch keeps rolled-stage totals on itself (merged at stage roll, see
    ``AdaptiveQuantileSketch._roll_stage``) plus the live stage's own
    stats; this merges the two into one read-only view.
    """
    own = getattr(sketch, "_obs_stats", None)
    active = getattr(sketch, "_active", None)
    if active is None:
        return own
    active_stats = getattr(active, "_obs_stats", None)
    if own is None and active_stats is None:
        return None
    out = SketchObsStats()
    if own is not None:
        out.merge(own)
    if active_stats is not None:
        out.merge(active_stats)
    return out


# -- hook bodies (called only when the caller saw ENABLED=True) ---------------


def on_new(fw: Any, level: int) -> None:
    """A NEW placed one buffer at *level*."""
    stats = stats_for(fw)
    stats.new_by_level = _counted(stats.new_by_level, level)
    hot = _handles()
    counter = hot.new_by_level.get(level)
    if counter is None:
        counter = hot.new_by_level[level] = hot.registry.counter(
            "core.new", level=level
        )
    counter.inc()
    hot.buffers_gauge.set(len(fw._full))


def on_collapse(
    fw: Any,
    group: Sequence[Any],
    result: Any,
    weight: int,
    offset: int,
) -> None:
    """A COLLAPSE merged *group* into *result*; emit counters + trace.

    The certified bound recorded here is Lemma 5 evaluated on the
    framework's state immediately after the collapse -- which is also
    the bound for any answer issued before the *next* collapse, because
    NEW neither changes ``W``/``C`` nor the heaviest buffer.
    """
    level = result.level
    stats = stats_for(fw)
    stats.collapses_by_level = _counted(stats.collapses_by_level, level)
    w_max = max((buf.weight for buf in fw._full), default=1)
    bound = (
        fw._sum_collapse_weights - fw._n_collapses - 1
    ) / 2.0 + w_max
    stats.last_bound = bound
    hot = _handles()
    counter = hot.collapse_by_level.get(level)
    if counter is None:
        counter = hot.collapse_by_level[level] = hot.registry.counter(
            "core.collapse", level=level
        )
    counter.inc()
    hot.buffers_gauge.set(len(fw._full))
    from .trace import TraceEvent

    tracer().emit(
        TraceEvent(
            kind="collapse",
            sketch_id=id(fw),
            level=level,
            n=fw._n,
            n_collapses=fw._n_collapses,
            sum_collapse_weights=fw._sum_collapse_weights,
            w_max=w_max,
            bound=bound,
            weights=tuple(buf.weight for buf in group),
            out_weight=weight,
            offset=offset,
        )
    )


def on_output(fw: Any, n_phis: int) -> None:
    """An OUTPUT answered *n_phis* quantile fractions."""
    stats = stats_for(fw)
    stats.outputs += 1
    _handles().output.inc()


def on_ingest(fw: Any, count: int, nbytes: int) -> None:
    """One ingest chunk of *count* elements entered the framework."""
    stats = stats_for(fw)
    stats.elements += count
    hot = _handles()
    hot.elements_ingested.inc(count)
    hot.bytes_ingested.inc(nbytes)


def on_bank_extend(bank: Any, n_elements: int, n_runs: int) -> None:
    """A bank routed one chunk of *n_elements* over *n_runs* runs."""
    hot = _handles()
    hot.bank_chunks.inc()
    hot.bank_elements.inc(n_elements)
    hot.bank_runs.inc(n_runs)


def on_kernel(name: str, path: str) -> None:
    """A kernel entry point chose execution *path* (strategy counters)."""
    registry().counter(f"kernels.{name}", path=path).inc()


def on_engine_event(engine: str, event: str, count: int = 1) -> None:
    """A sketch engine performed *count* internal operations of kind *event*.

    Engine-labelled counters for the pluggable engines: KLL compactions
    (``engine.compactions{engine="kll"}``), Frugal step adjustments
    (``engine.step_adjustments{engine="frugal"}``), ...  Call sites sit
    at chunk/compaction granularity behind the usual ``ENABLED`` gate,
    so the disabled cost stays one attribute read + branch per chunk.
    """
    if not count:
        return
    hot = _handles()
    key = (engine, event)
    counter = hot.engine_events.get(key)
    if counter is None:
        counter = hot.engine_events[key] = hot.registry.counter(
            f"engine.{event}", engine=engine
        )
    counter.inc(count)
