"""Service observability.

Counters plus -- naturally -- a quantile sketch: query latencies are
tracked by the library's own
:class:`~repro.core.adaptive.AdaptiveQuantileSketch`, so the server's
``STATS`` response reports p50/p95/p99 latency with a certified rank
bound, the same guarantee it serves to clients.  Ingest rates are both
cumulative and windowed (a short deque of recent batches), batch sizes
feed a second sketch so the batching efficiency of the shard flusher is
visible, and per-shard collapse counts / memory come straight from the
registry (:mod:`repro.analysis.memory` accounting).
"""

from __future__ import annotations

import resource
import sys
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..analysis.memory import report_memory
from ..core.adaptive import AdaptiveQuantileSketch
from ..core.errors import EmptySummaryError
from ..obs import hooks as obs_hooks
from ..obs.metrics import TimingSketch
from .registry import SketchRegistry

__all__ = ["ServiceMetrics"]

#: window for the "recent" ingest rate, seconds
_RATE_WINDOW_S = 10.0

#: buffered observations per stream before a vectorised sketch flush
_FLUSH_AT = 1024

#: ``ru_maxrss`` unit: KiB on Linux, bytes on macOS
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


class ServiceMetrics:
    """Mutable counters + latency/batch-size sketches for one server."""

    def __init__(self, n_shards: int) -> None:
        self.started_at = time.time()
        self._t0 = time.monotonic()
        self.n_shards = n_shards
        self.ingest_batches = 0
        self.ingest_elements = 0
        self.ingest_batches_by_shard = [0] * n_shards
        self.ingest_elements_by_shard = [0] * n_shards
        self.queries = 0
        self.snapshots = 0
        self.recovered_records = 0
        self.connections_total = 0
        self.connections_open = 0
        self.backpressure_flushes = 0
        self.coalesced_reads = 0
        self.coalesced_frames = 0
        self._recent: Deque[Tuple[float, int]] = deque()
        self.query_latency = AdaptiveQuantileSketch(epsilon=0.01)
        self.batch_sizes = AdaptiveQuantileSketch(epsilon=0.01)
        #: frames dispatched per socket read -- how deep clients pipeline
        self.frames_per_read = AdaptiveQuantileSketch(epsilon=0.01)
        #: per-opcode latency histograms, each a quantile sketch itself
        self.op_latency: Dict[str, TimingSketch] = {}
        # observation buffers: the hot path appends floats to plain
        # lists and the sketches are fed in vectorised batches (at
        # _FLUSH_AT, or when a reader asks) -- one sketch insert per
        # request was a measurable slice of server CPU, and batched
        # ingest is bit-identical to one-at-a-time
        self._batch_size_buf: list = []
        self._frames_buf: list = []
        self._op_buf: Dict[str, list] = {}

    # -- recording ---------------------------------------------------------

    def record_ingest(self, shard: int, n_values: int) -> None:
        self.ingest_batches += 1
        self.ingest_elements += n_values
        self.ingest_batches_by_shard[shard] += 1
        self.ingest_elements_by_shard[shard] += n_values
        buf = self._batch_size_buf
        buf.append(float(n_values))
        if len(buf) >= _FLUSH_AT:
            self.flush_observations()
        now = time.monotonic()
        self._recent.append((now, n_values))
        horizon = now - _RATE_WINDOW_S
        while self._recent and self._recent[0][0] < horizon:
            self._recent.popleft()

    def record_coalesce(self, n_frames: int) -> None:
        """One socket read dispatched *n_frames* requests as a batch."""
        self.coalesced_reads += 1
        self.coalesced_frames += n_frames
        self._frames_buf.append(float(n_frames))

    def record_query(self, seconds: float) -> None:
        self.queries += 1
        self.query_latency.update(seconds * 1000.0)

    def record_op(self, op_name: str, seconds: float) -> None:
        """Feed one request's wall time into that opcode's sketch."""
        buf = self._op_buf.get(op_name)
        if buf is None:
            buf = self._op_buf[op_name] = []
        buf.append(seconds * 1000.0)
        if len(buf) >= _FLUSH_AT:
            self.flush_observations()

    def flush_observations(self) -> None:
        """Drain the observation buffers into their sketches."""
        if self._batch_size_buf:
            self.batch_sizes.extend(self._batch_size_buf)
            self._batch_size_buf = []
        if self._frames_buf:
            self.frames_per_read.extend(self._frames_buf)
            self._frames_buf = []
        for op_name, buf in self._op_buf.items():
            if buf:
                sketch = self.op_latency.get(op_name)
                if sketch is None:
                    sketch = self.op_latency[op_name] = TimingSketch()
                sketch.extend_ms(buf)
        self._op_buf = {}

    # -- reporting ---------------------------------------------------------

    def _sketch_percentiles(
        self, sketch: AdaptiveQuantileSketch
    ) -> Optional[Dict[str, float]]:
        if sketch.n == 0:
            return None
        try:
            p50, p95, p99 = sketch.quantiles([0.5, 0.95, 0.99])
        except EmptySummaryError:  # pragma: no cover - guarded by n above
            return None
        return {
            "p50": round(float(p50), 4),
            "p95": round(float(p95), 4),
            "p99": round(float(p99), 4),
            "n": sketch.n,
            "certified_rank_bound_fraction": round(
                sketch.error_bound_fraction(), 6
            ),
        }

    def uptime_s(self) -> float:
        """Seconds since this server's metrics were initialised."""
        return time.monotonic() - self._t0

    def recent_rate(self) -> float:
        """Elements/s ingested over the trailing window."""
        if not self._recent:
            return 0.0
        now = time.monotonic()
        horizon = now - _RATE_WINDOW_S
        total = sum(n for t, n in self._recent if t >= horizon)
        span = min(_RATE_WINDOW_S, max(now - self._recent[0][0], 1e-9))
        return total / span

    def _obs_section(self, registry: SketchRegistry) -> Dict[str, object]:
        """Live observability detail: per-metric certified bounds,
        collapse counts by level, self-metered per-op latency, and the
        global :mod:`repro.obs` counter totals."""
        metrics_detail = []
        for entry in registry.entries():
            sketch = entry.sketch
            n = int(sketch.n)
            bound = float(sketch.error_bound()) if n else 0.0
            detail: Dict[str, object] = {
                "name": entry.name,
                "kind": entry.kind,
                "shard": entry.shard,
                "n": n,
                "certified_bound": bound,
                "certified_bound_fraction": (bound / n) if n else 0.0,
            }
            stats = obs_hooks.collected_stats(sketch)
            if stats is not None:
                detail["collapses_by_level"] = {
                    str(k): v
                    for k, v in sorted(stats.collapses_by_level.items())
                }
                detail["new_by_level"] = {
                    str(k): v for k, v in sorted(stats.new_by_level.items())
                }
            metrics_detail.append(detail)
        op_latency = {
            op: sketch.percentiles()
            for op, sketch in sorted(self.op_latency.items())
            if sketch.n
        }
        reg = obs_hooks.registry()
        # measured, not analytic: the process's peak resident set,
        # refreshed whenever STATS (and with it Prometheus) is rendered
        reg.gauge("service.process.peak_rss_bytes").set(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * _MAXRSS_SCALE
        )
        counters = {
            name: int(reg.total(name))
            for name in reg.names()
            if reg.kind_of(name) == "counter"
        }
        gauges = {
            name: reg.total(name)
            for name in reg.names()
            if reg.kind_of(name) == "gauge"
        }
        return {
            "enabled": obs_hooks.is_enabled(),
            "metrics": metrics_detail,
            "op_latency_ms": op_latency,
            "counters": counters,
            "gauges": gauges,
        }

    def to_dict(
        self, registry: SketchRegistry, rules: Optional[object] = None
    ) -> Dict[str, object]:
        self.flush_observations()
        uptime = time.monotonic() - self._t0
        shard_stats = registry.shard_stats()
        for stats in shard_stats:
            shard = int(stats["shard"])
            stats["ingest_batches"] = self.ingest_batches_by_shard[shard]
            stats["ingest_elements"] = self.ingest_elements_by_shard[shard]
            stats["ingest_rate_per_s"] = round(
                self.ingest_elements_by_shard[shard] / uptime, 1
            ) if uptime > 0 else 0.0
        memory_reports = [
            report_memory(entry.sketch) for entry in registry.entries()
        ]
        watch: Dict[str, object] = {
            "rules": 0,
            "evaluations": 0,
            "alerts_definite_total": 0,
            "alerts_possible_total": 0,
        }
        if rules is not None:
            totals = rules.alert_totals()
            watch = {
                "rules": len(rules),
                "evaluations": rules.evaluations,
                "alerts_definite_total": totals["definite"],
                "alerts_possible_total": totals["possible"],
            }
        return {
            "uptime_s": round(uptime, 3),
            "started_at_unix": round(self.started_at, 3),
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "ingest": {
                "batches": self.ingest_batches,
                "elements": self.ingest_elements,
                "rate_per_s_recent": round(self.recent_rate(), 1),
                "rate_per_s_lifetime": round(
                    self.ingest_elements / uptime, 1
                ) if uptime > 0 else 0.0,
                "batch_size": self._sketch_percentiles(self.batch_sizes),
            },
            "queries": {
                "count": self.queries,
                "latency_ms": self._sketch_percentiles(self.query_latency),
            },
            "durability": {
                "snapshots_written": self.snapshots,
                "journal_records_recovered": self.recovered_records,
            },
            "coalescing": {
                "reads": self.coalesced_reads,
                "frames": self.coalesced_frames,
                "frames_per_read": self._sketch_percentiles(
                    self.frames_per_read
                ),
            },
            "resilience": {
                "dedup_window_tokens": len(registry.dedup),
                "dedup_hits": registry.dedup.hits,
                "backpressure_flushes": self.backpressure_flushes,
            },
            "registry": {
                "metrics": len(registry),
                "total_elements": registry.total_elements,
                "memory_elements": sum(r.elements for r in memory_reports),
                "memory_bytes_incl_bookkeeping": sum(
                    r.total_bytes for r in memory_reports
                ),
            },
            "watch": watch,
            "shards": shard_stats,
            "obs": self._obs_section(registry),
        }
