"""The server's ``STATS`` view over its metrics registry.

A server records every number it keeps about itself into one
:class:`~repro.obs.metrics.MetricsRegistry` (``QuantileService.metrics``):
the ``service.*`` families -- ingest per shard, queries, connections,
coalescing, backpressure, durability, WATCH -- and, while observability
is on, the ``core.*`` families the :mod:`repro.obs` hooks write.  The
distributions (query latency, batch size, frames per read, per-opcode
latency) are :class:`~repro.obs.metrics.TimingSketch` instruments, i.e.
the library's own :class:`~repro.core.adaptive.AdaptiveQuantileSketch`,
so ``STATS`` reports p50/p90/p99 with a certified rank bound -- the same
guarantee the server gives its clients.

``STATS`` and the Prometheus page are two renderings of that one
registry: :func:`stats_view` builds the ``STATS`` dict, adding what the
registry does not hold (the trailing-window ingest rate, per-metric
certified bounds, memory accounting via
:mod:`repro.analysis.memory`).
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from typing import Any, Dict, Optional

from ..obs import hooks as obs_hooks
from ..obs.metrics import MetricsRegistry
from .registry import SketchRegistry

__all__ = ["RecentRate", "stats_view"]

#: window for the "recent" ingest rate, seconds
_RATE_WINDOW_S = 10.0

#: resolution of that window, seconds per bucket
_RATE_BUCKET_S = 0.1
_RATE_BUCKETS = round(_RATE_WINDOW_S / _RATE_BUCKET_S)

#: ``ru_maxrss`` unit: KiB on Linux, bytes on macOS
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


class RecentRate:
    """Elements/s ingested over the trailing ``_RATE_WINDOW_S``.

    A fixed ring of per-``_RATE_BUCKET_S`` element counts, so memory is
    constant however many batches arrive.  A bucket leaves the window
    whole, so the rate matches an exact per-event window to within one
    bucket.
    """

    __slots__ = ("_counts", "_tick", "_since")

    def __init__(self) -> None:
        self._counts = array("q", (0,)) * _RATE_BUCKETS
        #: bucket number (monotonic time // bucket width) of the newest
        #: bucket in the ring
        self._tick = 0
        #: monotonic time of the first event, None before it
        self._since: Optional[float] = None

    def _advance(self, now: float) -> int:
        """Move the ring up to *now*'s bucket, zeroing the buckets that
        left the window; return that bucket's number."""
        tick = int(now // _RATE_BUCKET_S)
        stale = min(tick - self._tick, _RATE_BUCKETS)
        if stale > 0:
            counts = self._counts
            for t in range(tick - stale + 1, tick + 1):
                counts[t % _RATE_BUCKETS] = 0
            self._tick = tick
        return tick

    def add(self, n_values: int) -> None:
        now = time.monotonic()
        if self._since is None:
            self._since = now
        self._counts[self._advance(now) % _RATE_BUCKETS] += n_values

    def rate(self) -> float:
        if self._since is None:
            return 0.0
        now = time.monotonic()
        tick = self._advance(now)
        counts = self._counts
        total = sum(counts)
        if not total:
            return 0.0
        # the span starts at the oldest bucket still holding events (or
        # at the first event ever, if that is later)
        age = _RATE_BUCKETS - 1
        while not counts[(tick - age) % _RATE_BUCKETS]:
            age -= 1
        start = max(self._since, (tick - age) * _RATE_BUCKET_S)
        return total / min(_RATE_WINDOW_S, max(now - start, 1e-9))


def _obs_section(
    metrics: MetricsRegistry, registry: SketchRegistry
) -> Dict[str, object]:
    """Live observability detail: per-metric certified bounds, collapse
    counts by level, self-metered per-op latency, and the counter and
    gauge totals of the server's registry."""
    metrics_detail = []
    for entry in registry.entries():
        sketch = entry.sketch
        n = int(sketch.n)
        bound = float(sketch.error_bound()) if n else 0.0
        detail: Dict[str, object] = {
            "name": entry.name,
            "kind": entry.config.kind,
            "shard": entry.shard,
            "n": n,
            "certified_bound": bound,
            "certified_bound_fraction": (bound / n) if n else 0.0,
        }
        stats = obs_hooks.collected_stats(sketch)
        if stats is not None:
            counts = stats.to_dict()
            detail["collapses_by_level"] = counts["collapses_by_level"]
            detail["new_by_level"] = counts["new_by_level"]
        metrics_detail.append(detail)
    op_latency = {
        dict(labels)["op"]: sketch.percentiles()
        for labels, sketch in sorted(
            metrics.family("service.op_latency_ms").items()
        )
        if sketch.n
    }
    # measured, not analytic: the process's peak resident set,
    # refreshed whenever STATS (and with it Prometheus) is rendered
    metrics.gauge("service.process.peak_rss_bytes").set(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_SCALE
    )
    metrics.gauge("service.dedup.window_bytes").set(registry.dedup.nbytes)
    names = metrics.names()
    return {
        "enabled": obs_hooks.is_enabled() and obs_hooks.registry() is metrics,
        "metrics": metrics_detail,
        "op_latency_ms": op_latency,
        "counters": {
            name: int(metrics.total(name))
            for name in names
            if metrics.kind_of(name) == "counter"
        },
        "gauges": {
            name: metrics.total(name)
            for name in names
            if metrics.kind_of(name) == "gauge"
        },
    }


def stats_view(
    metrics: MetricsRegistry,
    registry: SketchRegistry,
    rules: Any,
    *,
    started_at: float,
    uptime_s: float,
    recent_rate: float,
) -> Dict[str, object]:
    """The ``STATS`` response dict, read off the server's registry."""
    value = metrics.value

    def lifetime_rate(elements: float) -> float:
        return round(elements / uptime_s, 1) if uptime_s > 0 else 0.0

    shard_stats = registry.shard_stats()
    for stats in shard_stats:
        shard = int(stats["shard"])
        elements = value("service.ingest.elements", shard=shard)
        stats["ingest_batches"] = value("service.ingest.batches", shard=shard)
        stats["ingest_elements"] = elements
        stats["ingest_rate_per_s"] = lifetime_rate(elements)
    from ..analysis.memory import report_memory

    memory_reports = [
        report_memory(entry.sketch) for entry in registry.entries()
    ]
    totals = rules.alert_totals()
    elements = int(metrics.total("service.ingest.elements"))
    return {
        "uptime_s": round(uptime_s, 3),
        "started_at_unix": round(started_at, 3),
        "connections": {
            "open": int(value("service.connections_open")),
            "total": value("service.connections_total"),
        },
        "ingest": {
            "batches": int(metrics.total("service.ingest.batches")),
            "elements": elements,
            "rate_per_s_recent": round(recent_rate, 1),
            "rate_per_s_lifetime": lifetime_rate(elements),
            "batch_size": value("service.ingest.batch_size"),
        },
        "queries": {
            "count": value("service.queries"),
            "latency_ms": value("service.query.latency_ms"),
        },
        "durability": {
            "snapshots_written": value("service.snapshots"),
            "journal_records_recovered": value(
                "service.journal_records_recovered"
            ),
        },
        "coalescing": {
            "reads": value("service.coalesce.reads"),
            "frames": value("service.coalesce.frames"),
            "frames_per_read": value("service.coalesce.frames_per_read"),
        },
        "resilience": {
            "dedup_window_tokens": len(registry.dedup),
            "dedup_hits": registry.dedup.hits,
            "dedup_window_bytes": registry.dedup.nbytes,
            "backpressure_flushes": value("service.backpressure_flushes"),
        },
        "registry": {
            "metrics": len(registry),
            "total_elements": registry.total_elements,
            "memory_elements": sum(r.elements for r in memory_reports),
            "memory_bytes_incl_bookkeeping": sum(
                r.total_bytes for r in memory_reports
            ),
        },
        "watch": {
            "rules": len(rules),
            "evaluations": value("service.watch_evaluations"),
            "alerts_definite_total": totals["definite"],
            "alerts_possible_total": totals["possible"],
        },
        "shards": shard_stats,
        "obs": _obs_section(metrics, registry),
    }
