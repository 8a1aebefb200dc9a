"""Observability for the MRL quantile framework.

A zero-dependency instrumentation subsystem threaded through the core
framework, the sharded service, the parallel engine, and the CLI:

- :mod:`repro.obs.metrics` -- counters, gauges, and latency histograms
  tracked with the library's **own** quantile sketch (dogfooding);
- :mod:`repro.obs.trace` -- structured COLLAPSE trace events carrying
  the running Lemma 5 certified bound, with a ring buffer and a
  JSON-lines sink;
- :mod:`repro.obs.hooks` -- the module-level gate the hot paths consult
  (one attribute read per buffer-level operation when disabled);
- :mod:`repro.obs.exposition` -- Prometheus text format and the
  ``repro stats --watch`` terminal view.

Quick start::

    import repro
    from repro import obs

    reg = obs.enable()
    sk = repro.Sketch(eps=0.01)
    sk.extend(range(1_000_000))
    print(obs.render_prometheus(reg))
    print(obs.tracer().current_bound())   # live certified rank bound

Instrumentation is **off** by default; see :mod:`repro.obs.hooks` for
the overhead contract (disabled-mode cost is gated at <2% of ingest in
the benchmark suite).
"""

from typing import TYPE_CHECKING

from .._lazy import attach

__all__ = [
    "Counter",
    "Gauge",
    "TimingSketch",
    "MetricsRegistry",
    "TraceEvent",
    "TraceRing",
    "JsonLinesSink",
    "Tracer",
    "SketchObsStats",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "tracer",
    "reset",
    "stats_for",
    "collected_stats",
    "render_prometheus",
    "render_stats_text",
]

__getattr__, __dir__ = attach(
    __name__,
    submod_attrs={
        "hooks": [
            "SketchObsStats",
            "collected_stats",
            "disable",
            "enable",
            "is_enabled",
            "registry",
            "reset",
            "stats_for",
            "tracer",
        ],
        "exposition": ["render_prometheus", "render_stats_text"],
        "metrics": ["Counter", "Gauge", "MetricsRegistry", "TimingSketch"],
        "trace": ["JsonLinesSink", "TraceEvent", "TraceRing", "Tracer"],
    },
)

if TYPE_CHECKING:
    from .hooks import (
        SketchObsStats,
        collected_stats,
        disable,
        enable,
        is_enabled,
        registry,
        reset,
        stats_for,
        tracer,
    )
    from .exposition import render_prometheus, render_stats_text
    from .metrics import Counter, Gauge, MetricsRegistry, TimingSketch
    from .trace import JsonLinesSink, TraceEvent, TraceRing, Tracer
