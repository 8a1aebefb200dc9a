"""One service benchmark: four workloads against real ``repro serve`` processes.

    python3 benchmarks/suite/run.py --workload firehose --seed 0
    python3 benchmarks/suite/run.py --workload fleet --seed 3 --trace 1
    python3 benchmarks/suite/run.py --seed 0 --repeat 5
    python3 benchmarks/suite/run.py --smoke --workload cluster --seed 0

One workload (``--workload``) prints its metrics by name with their
units, then, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (the
default) reports the end-to-end metrics in that line and prints the
unbounded user-facing timings beside them; ``--trace 1`` runs the workload
twice for half the time each -- once plain, once with the layer wrappers
installed in this generator and in every server -- and reports the
per-layer metrics, including ``trace.overhead_ratio`` (traced versus
plain).  Without ``--workload`` every workload runs; with ``--repeat R``
each runs R times on seeds ``seed .. seed+R-1``, and the last line is a
summary of medians, quartiles and sample counts.  The exit status is 1
when any answer fails its oracle check.

See README.md for the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import common

#: must equal ``run_seconds`` in BENCHMARK.json
DEFAULT_SECONDS = 15

#: (name, unit, better) -- the end-to-end metrics, from the plain run
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("server_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) -- user-facing timings a plain run measures too.
#: Their spread from run to run exceeds 10 % of the median on the
#: reference machine, so they are per-layer diagnostics: printed, taken
#: from the plain pass of a traced run, never bounded (README).
UNBOUNDED: Tuple[Tuple[str, str, str], ...] = (
    ("server_cpu_ns_per_elem", "ns/element", "lower"),
    ("ingest_elems_per_s", "elements/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
)


def _span_metrics() -> List[Tuple[str, str, str]]:
    import spans

    out = []
    for layer in spans.GENERATOR_LAYERS + spans.SERVER_LAYERS:
        if layer == "service.client.drain":
            out += [
                (f"{layer}.calls", "count", "lower"),
                (f"{layer}.wait_s", "s", "lower"),
            ]
            continue
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    return out


#: (name, unit, better) -- derived per-layer metrics beside the spans
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("service.registry.apply_shard.elems_per_call", "elements", "higher"),
    ("service.registry.apply_shard.queue_wait_p50_ms", "ms", "lower"),
    ("generator.cpu_s", "s", "lower"),
    ("generator.send_lag_p99_ms", "ms", "lower"),
    ("server.cpu_s", "s", "lower"),
    ("server.cpu_util", "cores", "lower"),
    ("server.wchar_per_user_byte", "B/B", "lower"),
    ("server.coalesce_frames_per_write", "frames", "higher"),
    ("server.backpressure_flushes", "count", "lower"),
    ("obs.collapses_total", "count", "lower"),
    ("server.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    return list(UNBOUNDED) + _span_metrics() + list(DERIVED)


@dataclass
class PassResult:
    setup_s: List[float]
    phase: Any  # workloads.Phase
    drive_s: float
    rss_mib: float
    server_cpu_s: float
    wchar: int
    generator_cpu_s: float
    stats: List[Dict[str, Any]]
    summaries: List[Dict[str, Any]]
    generator_stats: Dict[str, List[float]]


def run_pass(
    wl: Any,
    base_dir: str,
    seconds: float,
    setups: int,
    chk: Any,
    traced: bool = False,
) -> PassResult:
    """Set up *setups* times (keeping the last), drive, measure, verify.

    A traced pass wraps the layers here and in the servers; the servers
    leave their spans and summaries in ``base_dir/trace``, and every
    span dump ends up in :data:`common.OUT_DIR`.
    """
    import spans
    from workloads import Session

    rec = trace_dir = None
    if traced:
        trace_dir = os.path.join(base_dir, "trace")
        os.makedirs(trace_dir)
        rec = spans.SpanRecorder()
        spans.install_generator(rec)
    clock = time.perf_counter
    setup_s: List[float] = []
    session = None
    try:
        for i in range(setups):
            if session is not None:
                session.close(kill=True)  # a throwaway set-up
            session = Session(
                os.path.join(base_dir, f"setup{i}"),
                trace_dir if i == setups - 1 else None,
            )
            t0 = clock()
            wl.setup(session, chk)
            setup_s.append(clock() - t0)
        servers = session.servers
        cpu0 = sum(srv.cpu_s() for srv in servers)
        wchar0 = sum(srv.wchar() for srv in servers)
        gen0 = time.process_time()
        t0 = clock()
        phase = wl.drive(session, seconds)
        drive_s = clock() - t0
        gen_cpu = time.process_time() - gen0
        cpu = sum(srv.cpu_s() for srv in servers) - cpu0
        wchar = sum(srv.wchar() for srv in servers) - wchar0
        rss = sum(srv.peak_rss_mib() for srv in servers)
        stats = (
            [c.stats() for c in wl.stats_clients(session)]
            if trace_dir is not None
            else []
        )
        wl.verify(session, phase, chk)
    finally:
        if session is not None:
            session.close()
        if rec is not None:
            rec.uninstall()
    summaries = []
    if trace_dir is not None:
        for srv in servers:
            # a server that died before writing its summary fails the run
            path = os.path.join(trace_dir, f"summary-{srv.name}.json")
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
            spans_file = f"spans-{srv.name}.jsonl"
            os.replace(
                os.path.join(trace_dir, spans_file),
                os.path.join(common.OUT_DIR, spans_file),
            )
        rec.dump(
            os.path.join(common.OUT_DIR, f"spans-{wl.name}-generator.jsonl")
        )
    return PassResult(
        setup_s, phase, drive_s, rss, cpu, wchar, gen_cpu,
        stats, summaries, rec.stats if rec is not None else {},
    )


def _percentile_ms(samples_s: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples_s, q)) * 1e3 if samples_s else 0.0


def user_facing(r: PassResult) -> Dict[str, float]:
    """The END_TO_END and UNBOUNDED metrics of a pass.  CPU cost, rate
    and p50 are medians over the phase's blocks; p99 pools every query,
    since a block holds too few samples."""
    phase = r.phase
    return {
        "server_cpu_ns_per_elem": statistics.median(phase.block_cpu_ns),
        "ingest_elems_per_s": statistics.median(phase.block_rates),
        "query_p50_ms": statistics.median(phase.block_p50s_s) * 1e3,
        "query_p99_ms": _percentile_ms(phase.latencies_s, 99),
        "server_rss_mb": r.rss_mib,
        "setup_s": statistics.median(r.setup_s),
    }


def layers(wl: Any, plain: PassResult, traced: PassResult) -> Dict[str, float]:
    """Per-layer metrics of the traced pass; the plain one prices tracing."""
    totals: Dict[str, List[float]] = {}
    sources = [traced.generator_stats] + [s["stats"] for s in traced.summaries]
    for stats in sources:
        for layer, (calls, total, self_s) in stats.items():
            acc = totals.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    out: Dict[str, float] = {}
    for name, _unit, _better in _span_metrics():
        layer, stat = name.rsplit(".", 1)
        calls, total, self_s = totals.get(layer, (0, 0.0, 0.0))
        out[name] = {
            "calls": calls, "total_s": total, "wait_s": total,
            "self_s": self_s,
        }[stat]
    summaries = traced.summaries
    applies = sum(s["nonempty_applies"] for s in summaries)
    server_self = sum(
        st[2] for s in summaries for st in s["stats"].values()
    )
    frames = sum(st["coalescing"]["frames"] for st in traced.stats)
    reads = sum(st["coalescing"]["reads"] for st in traced.stats)
    primary = wl.primary
    plain_user, traced_user = user_facing(plain), user_facing(traced)
    overhead = traced_user[primary] / plain_user[primary]
    if dict((n, b) for n, _u, b in UNBOUNDED)[primary] == "higher":
        overhead = 1 / overhead
    out.update({name: plain_user[name] for name, _u, _b in UNBOUNDED})
    out.update(
        {
            "service.registry.apply_shard.elems_per_call": (
                sum(s["applied_elements"] for s in summaries) / applies
                if applies
                else 0.0
            ),
            "service.registry.apply_shard.queue_wait_p50_ms": (
                statistics.fmean(s["queue_wait_p50_ms"] for s in summaries)
            ),
            "generator.cpu_s": traced.generator_cpu_s,
            "generator.send_lag_p99_ms": _percentile_ms(
                traced.phase.lags_s, 99
            ),
            "server.cpu_s": traced.server_cpu_s,
            "server.cpu_util": traced.server_cpu_s / traced.drive_s,
            "server.wchar_per_user_byte": (
                traced.wchar / (8 * traced.phase.elements)
            ),
            "server.coalesce_frames_per_write": frames / reads if reads else 0,
            "server.backpressure_flushes": sum(
                st["resilience"]["backpressure_flushes"]
                for st in traced.stats
            ),
            "obs.collapses_total": sum(
                st["obs"]["counters"].get("core.collapse", 0)
                for st in traced.stats
            ),
            "server.unattributed_s": (
                sum(s["cpu_s"] for s in summaries) - server_self
            ),
            "trace.overhead_ratio": overhead,
        }
    )
    return out


@dataclass
class RunResult:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    samples: int  # query latency samples behind the percentiles


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> RunResult:
    from workloads import WORKLOADS, Checker, Scale

    scale = Scale.of(seconds, smoke)
    wl = WORKLOADS[name](seed, scale)
    chk = Checker()
    base = os.path.join(common.OUT_DIR, f"run-{os.getpid()}-{name}")
    try:
        if trace:
            half = scale.seconds / 2
            plain = run_pass(wl, os.path.join(base, "plain"), half, 1, chk)
            traced = run_pass(
                wl, os.path.join(base, "traced"), half, 1, chk, traced=True
            )
            metrics = layers(wl, plain, traced)
            result = traced
        else:
            result = run_pass(wl, base, scale.seconds, scale.setups, chk)
            metrics = user_facing(result)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return RunResult(
        name, seed, chk.failed == 0, chk.attempted, chk.failed,
        chk.problems, metrics, len(result.phase.latencies_s),
    )


def _units(trace: bool, shown: bool) -> Dict[str, str]:
    """Units of the metrics the result line reports, or, with *shown*,
    of those printed and summarised (a plain run adds UNBOUNDED)."""
    if trace:
        specs = per_layer_metrics()
    else:
        specs = list(END_TO_END) + (list(UNBOUNDED) if shown else [])
    return {name: unit for name, unit, _better in specs}


def _print_run(r: RunResult, units: Dict[str, str]) -> None:
    print(
        f"{r.workload} seed={r.seed}: {r.attempted} operations, "
        f"{r.failed} failed, {r.samples} query latency samples"
    )
    for problem in r.problems:
        print(f"  ORACLE VIOLATION {problem}")
    for name in units:
        print(f"  {name:<52} {r.metrics[name]:>16.6g} {units[name]}")


def summarize(
    results: List[RunResult], units: Dict[str, str]
) -> Dict[str, Any]:
    """Median, quartiles and sample count per workload and metric."""
    out: Dict[str, Any] = {}
    for name in dict.fromkeys(r.workload for r in results):
        runs = [r for r in results if r.workload == name]
        rows = {}
        for metric, unit in units.items():
            values = [r.metrics[metric] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4)
                if len(values) > 1
                else (med, med, med)
            )
            rows[metric] = {
                "unit": unit,
                "median": med,
                "q1": q1,
                "q3": q3,
                "rel_iqr": (q3 - q1) / med if med else 0.0,
                "n": len(values),
                "query_samples_median": statistics.median(
                    r.samples for r in runs
                ),
            }
        out[name] = {
            "seeds": [r.seed for r in runs],
            "failed": sum(r.failed for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "metrics": rows,
        }
    return out


def _meta(args: argparse.Namespace, seconds: float) -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seconds": seconds,
        "repeat": args.repeat,
        "trace": bool(args.trace),
        "smoke": args.smoke,
    }


def main(argv: Optional[List[str]] = None) -> int:
    common.import_repro()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true", help="about 1/50 of full size",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")

    # a SIGTERM unwinds through the finally blocks that stop the servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = _units(bool(args.trace), shown=True)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    results = []
    for name in names:
        for r in range(args.repeat):
            result = run_workload(
                name, args.seed + r, args.seconds, bool(args.trace),
                args.smoke,
            )
            _print_run(result, units)
            sys.stdout.flush()
            results.append(result)
    correct = all(r.correct for r in results)

    if len(results) == 1:
        (r,) = results
        line = {
            "correct": r.correct,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {
                name: {"value": r.metrics[name], "unit": unit}
                for name, unit in _units(bool(args.trace), False).items()
            },
        }
    else:
        line = {
            "correct": correct,
            "meta": _meta(args, args.seconds),
            "workloads": summarize(results, units),
        }
        for name, rows in line["workloads"].items():
            print(f"{name}: median [q1, q3] over {args.repeat} run(s)")
            for metric, row in rows["metrics"].items():
                print(
                    f"  {metric:<52} {row['median']:>14.6g} "
                    f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['unit']} "
                    f"(rel IQR {row['rel_iqr']:.3f})"
                )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
