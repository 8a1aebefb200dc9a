"""Rendering collected metrics for humans and scrapers.

Two output formats:

:func:`render_prometheus`
    the Prometheus text exposition format (version 0.0.4) from a
    :class:`~repro.obs.metrics.MetricsRegistry`.  Counter/gauge
    instruments become one sample each; timing sketches expand into
    ``_p50``/``_p90``/``_p99``/``_count`` samples plus the certified
    rank bound the sketch carries about its own percentiles.

:func:`render_stats_text`
    a fixed-width terminal view of a service ``STATS`` response dict,
    consumed by ``repro stats [--watch]``.  It shows the per-shard
    ingest/collapse table, per-metric certified epsilon*N, and the
    self-metered per-op latency percentiles.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "render_prometheus",
    "render_stats_text",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    return _NAME_SANITIZE.sub("_", f"{prefix}{name}")


def _prom_labels(labels: Iterable[Tuple[str, Any]]) -> str:
    pairs = [
        '%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels
    ]
    return "{%s}" % ",".join(pairs) if pairs else ""


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: Any, prefix: str = "repro_") -> str:
    """Render a metrics registry in Prometheus text format.

    Instrument names have dots replaced by underscores and *prefix*
    prepended; labels are carried through.  Timing sketches emit one
    sample per tracked percentile (with a ``quantile`` label, summary
    style) plus ``_count`` and ``_bound_fraction``.
    """
    lines: List[str] = []
    seen_types: set = set()
    for name, labels, inst in registry:
        kind = inst.kind
        if kind in ("counter", "gauge"):
            pname = _prom_name(name, prefix)
            if pname not in seen_types:
                seen_types.add(pname)
                lines.append(f"# TYPE {pname} {kind}")
            lines.append(f"{pname}{_prom_labels(labels)} {_prom_value(inst.get())}")
        elif kind == "timing":
            pname = _prom_name(name, prefix)
            pcts = inst.percentiles()
            if pname not in seen_types:
                seen_types.add(pname)
                lines.append(f"# TYPE {pname} summary")
            if pcts is None:
                lines.append(f"{pname}_count{_prom_labels(labels)} 0")
                continue
            base = list(labels)
            for key, value in pcts.items():
                if key.startswith("p"):
                    phi = int(key[1:]) / 100.0
                    lines.append(
                        "%s%s %s"
                        % (
                            pname,
                            _prom_labels(base + [("quantile", phi)]),
                            _prom_value(value),
                        )
                    )
            lines.append(
                f"{pname}_count{_prom_labels(labels)} {int(pcts['n'])}"
            )
            lines.append(
                "%s_bound_fraction%s %s"
                % (
                    pname,
                    _prom_labels(labels),
                    _prom_value(pcts["certified_rank_bound_fraction"]),
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- terminal STATS view ------------------------------------------------------


def _fmt_count(value: Any) -> str:
    try:
        v = float(value)
    except (TypeError, ValueError):
        return str(value)
    if v >= 1e9:
        return f"{v / 1e9:.2f}G"
    if v >= 1e6:
        return f"{v / 1e6:.2f}M"
    if v >= 1e4:
        return f"{v / 1e3:.1f}k"
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return out


def _fmt_latency(pcts: Optional[Mapping[str, Any]]) -> str:
    if not pcts:
        return "-"
    parts = []
    for key in ("p50", "p90", "p99"):
        if key in pcts:
            parts.append(f"{key}={pcts[key]:.3g}ms")
    if "n" in pcts:
        parts.append(f"n={_fmt_count(pcts['n'])}")
    return " ".join(parts) if parts else "-"


def _fmt_levels(by_level: Optional[Mapping[str, Any]]) -> str:
    if not by_level:
        return "-"
    items = sorted(by_level.items(), key=lambda kv: int(kv[0]))
    return " ".join(f"L{lvl}:{cnt}" for lvl, cnt in items)


def render_stats_text(stats: Mapping[str, Any]) -> str:
    """Format a service ``STATS`` response dict for the terminal."""
    lines: List[str] = []
    uptime = stats.get("uptime_s")
    header = "repro service stats"
    if uptime is not None:
        header += f" · uptime {float(uptime):.1f}s"
    ingest = stats.get("ingest", {})
    if ingest:
        header += (
            f" · {_fmt_count(ingest.get('elements', 0))} elements"
            f" · {_fmt_count(ingest.get('rate_per_s_recent', 0))}/s recent"
        )
    lines.append(header)
    lines.append("")

    shards = stats.get("shards") or []
    if shards:
        rows = []
        for shard in shards:
            rows.append(
                [
                    str(shard.get("shard", "?")),
                    str(shard.get("metrics", 0)),
                    _fmt_count(shard.get("elements_applied", 0)),
                    _fmt_count(shard.get("batches_applied", 0)),
                    str(shard.get("pending_batches", 0)),
                    _fmt_levels(shard.get("collapses_by_level"))
                    if shard.get("collapses_by_level")
                    else _fmt_count(shard.get("collapse_count", 0)),
                    _fmt_count(shard.get("memory_elements", 0)),
                ]
            )
        lines.append("shards")
        lines.extend(
            _table(
                ["shard", "metrics", "elements", "batches", "pend", "collapses", "mem"],
                rows,
            )
        )
        lines.append("")

    obs = stats.get("obs") or {}
    metrics_detail = obs.get("metrics") or []
    if metrics_detail:
        rows = []
        for m in metrics_detail:
            bound = m.get("certified_bound")
            n = m.get("n", 0)
            eps_n = "-" if bound is None else _fmt_count(bound)
            eps = (
                "-"
                if bound is None or not n
                else f"{float(bound) / float(n):.2e}"
            )
            rows.append(
                [
                    str(m.get("name", "?")),
                    str(m.get("shard", "?")),
                    _fmt_count(n),
                    _fmt_levels(m.get("collapses_by_level")),
                    eps_n,
                    eps,
                ]
            )
        lines.append("metrics (certified a-posteriori bounds)")
        lines.extend(
            _table(
                ["name", "shard", "n", "collapses", "cert. εN", "cert. ε"],
                rows,
            )
        )
        lines.append("")

    op_latency = obs.get("op_latency_ms") or {}
    if op_latency:
        rows = [
            [op, _fmt_latency(pcts)]
            for op, pcts in sorted(op_latency.items())
        ]
        lines.append("op latency (self-metered, ms)")
        lines.extend(_table(["op", "percentiles"], rows))
        lines.append("")

    queries = stats.get("queries", {})
    if queries:
        lines.append(
            "queries: total=%s latency[%s]"
            % (
                _fmt_count(queries.get("count", 0)),
                _fmt_latency(queries.get("latency_ms")),
            )
        )

    engines = stats.get("engines") or {}
    if engines:
        parts = [f"{k}={_fmt_count(v)}" for k, v in sorted(engines.items())]
        lines.append("engines: " + " ".join(parts))

    counters = obs.get("counters") or {}
    if counters:
        parts = [f"{k}={_fmt_count(v)}" for k, v in sorted(counters.items())]
        lines.append("obs counters: " + " ".join(parts))

    return "\n".join(lines).rstrip() + "\n"
