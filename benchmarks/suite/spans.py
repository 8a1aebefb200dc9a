"""Spans around the calls into each layer, recorded from outside the program.

A span is one call of a wrapped function: its layer name, start and end
(``perf_counter`` seconds), the span that was open when it started (its
parent) and a request id.  On the INGEST path the request id is the
request's idempotency token, so the generator's ``encode_ingest_framed``
span and the server's ``decode_request`` / ``append_ingest`` /
``enqueue`` / ``encode_ok`` spans of one batch share it.

Self time is a span's duration minus the time its child spans cover.  It
is accumulated as each span closes, so the per-layer totals are exact
however many spans are kept in memory for the JSON-lines dump.

The wrappers replace module or class attributes at the place the program
looks them up: ``protocol.decode_request`` is called through the module,
``collapse`` is imported by name into :mod:`repro.core.framework`, and
methods are looked up on their class.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept for the JSON-lines dump per process; the per-layer totals
#: count every span regardless
KEEP_SPANS = 100_000

#: the obs hooks the core calls through ``repro.obs.hooks``; their
#: spans are summed into one layer
OBS_HOOKS = (
    "on_new", "on_collapse", "on_output", "on_ingest", "on_bank_extend",
    "on_kernel", "on_engine_event",
)

#: layers recorded in the generator process
GENERATOR_LAYERS = (
    "service.protocol.encode_ingest_framed",
    "service.client.ingest_nowait",
    "service.client.drain",
    "service.client.fetch_raw",
    "cluster.client.ingest_nowait",
    "cluster.client.fetch_merged",
    "cluster.client.merge_tagged",
)

#: layers recorded in each server process (node.py)
SERVER_LAYERS = (
    "service.protocol.decode_request",
    "service.protocol.encode_ok",
    "service.registry.enqueue",
    "service.registry.enqueue_at",
    "service.journal.append_ingest",
    "service.journal.append_ingest_at",
    "service.registry.apply_shard",
    "core.bank.extend_single",
    "core.kernels.sort_rows",
    "core.framework.collapse",
    "core.framework.output",
    "obs.hooks.on_any",
    "core.kll.KLLSketch.extend",
    "core.frugal.FrugalBank.extend_pairs",
    "core.kernels.frugal2u_update",
    "service.registry.create",
    "core.parameters.optimal_parameters",
    "windows.extend_at",
    "windows.WindowedSketch.quantiles",
    "service.registry.quantiles",
    "service.registry.fetch_serialized",
    "service.snapshot.write_snapshot",
    "service.rules.RuleSet.evaluate",
)


class SpanRecorder:
    """Collects spans of wrapped calls in one single-threaded process."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.keep = keep
        #: layer -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: (span id, parent id, layer, start, end, request id)
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        #: request id stamped on spans until a request-ending span closes
        self.request_id = 0
        self._stack: List[List[float]] = []  # [span id, child time]
        self._next_id = 1
        self._installed: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        request: Optional[Callable[[tuple, Any], int]] = None,
        ends_request: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(args, result)`` sets the current request id from a
        call; ``ends_request`` clears it once this span is recorded.
        """
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_id
            self._next_id = sid + 1
            parent = int(stack[-1][0]) if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if request is not None:
                    self.request_id = request(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < self.keep:
                    spans.append(
                        (sid, parent, layer, start, end, self.request_id)
                    )
                else:
                    self.dropped += 1
                if ends_request:
                    self.request_id = 0

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, start, end, req in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "request": req,
                        }
                    )
                )
                fh.write("\n")


def install_generator(rec: SpanRecorder) -> None:
    """Wrap the client-side layers the generator calls."""
    from repro.cluster import client as cluster_client
    from repro.service import client as service_client
    from repro.service import protocol

    rec.wrap(
        protocol, "encode_ingest_framed",
        "service.protocol.encode_ingest_framed",
        request=lambda args, _result: int(args[2]) if len(args) > 2 else 0,
    )
    qc = service_client.QuantileClient
    rec.wrap(
        qc, "ingest_nowait", "service.client.ingest_nowait",
        ends_request=True,
    )
    # every wait for acks -- flush() and each synchronous call -- goes
    # through _drain; its time is the generator blocked on the server
    rec.wrap(qc, "_drain", "service.client.drain")
    rec.wrap(qc, "fetch_raw", "service.client.fetch_raw")
    cc = cluster_client.ClusterClient
    rec.wrap(cc, "ingest_nowait", "cluster.client.ingest_nowait")
    rec.wrap(cc, "fetch_merged", "cluster.client.fetch_merged")
    rec.wrap(cluster_client, "merge_tagged", "cluster.client.merge_tagged")


class QueueProbe:
    """How long enqueued batches wait for their shard's apply.

    Each ``enqueue`` is stamped against the returned entry's ``.shard``;
    the next ``apply_shard`` of that shard closes the stamps.
    """

    def __init__(self) -> None:
        self.pending: Dict[int, List[float]] = {}
        self.waits_s: List[float] = []
        self.applied_elements = 0
        self.nonempty_applies = 0

    def install(self) -> None:
        from repro.service.registry import SketchRegistry

        clock = time.perf_counter
        apply_shard = SketchRegistry.apply_shard
        probe = self

        def stamped(enqueue: Callable[..., Any]) -> Callable[..., Any]:
            def stamped_enqueue(self_, *args: Any, **kwargs: Any) -> Any:
                entry = enqueue(self_, *args, **kwargs)
                probe.pending.setdefault(entry.shard, []).append(clock())
                return entry

            return stamped_enqueue

        def timed_apply_shard(self_, shard_idx: int) -> int:
            stamps = probe.pending.get(shard_idx)
            if stamps:
                now = clock()
                probe.waits_s.extend(now - t for t in stamps)
                stamps.clear()
            applied = apply_shard(self_, shard_idx)
            if applied:
                probe.applied_elements += applied
                probe.nonempty_applies += 1
            return applied

        SketchRegistry.enqueue = stamped(SketchRegistry.enqueue)
        SketchRegistry.enqueue_at = stamped(SketchRegistry.enqueue_at)
        SketchRegistry.apply_shard = timed_apply_shard


def install_server(rec: SpanRecorder, probe: QueueProbe) -> None:
    """Wrap the server-side layers (called by node.py before ``serve``)."""
    from repro import windows
    from repro.core import bank, framework, frugal, kernels, kll, parameters
    from repro.obs import hooks
    from repro.service import journal, protocol, registry, rules, server

    probe.install()  # under the span wrappers: its stamping is inside them
    rec.wrap(
        protocol, "decode_request", "service.protocol.decode_request",
        request=lambda _args, req: (
            req.token if req.opcode == protocol.Opcode.INGEST else 0
        ),
    )
    rec.wrap(
        protocol, "encode_ok", "service.protocol.encode_ok",
        ends_request=True,
    )
    reg = registry.SketchRegistry
    rec.wrap(reg, "enqueue", "service.registry.enqueue")
    rec.wrap(reg, "enqueue_at", "service.registry.enqueue_at")
    rec.wrap(reg, "apply_shard", "service.registry.apply_shard")
    rec.wrap(reg, "create", "service.registry.create")
    rec.wrap(reg, "quantiles", "service.registry.quantiles")
    rec.wrap(reg, "fetch_serialized", "service.registry.fetch_serialized")
    ij = journal.IngestJournal
    rec.wrap(ij, "append_ingest", "service.journal.append_ingest")
    rec.wrap(ij, "append_ingest_at", "service.journal.append_ingest_at")
    rec.wrap(bank.SketchBank, "extend_single", "core.bank.extend_single")
    rec.wrap(kernels, "sort_rows", "core.kernels.sort_rows")
    rec.wrap(kernels, "frugal2u_update", "core.kernels.frugal2u_update")
    rec.wrap(framework, "collapse", "core.framework.collapse")
    rec.wrap(framework, "output", "core.framework.output")
    for hook in OBS_HOOKS:
        rec.wrap(hooks, hook, "obs.hooks.on_any")
    rec.wrap(kll.KLLSketch, "extend", "core.kll.KLLSketch.extend")
    rec.wrap(
        frugal.FrugalBank, "extend_pairs",
        "core.frugal.FrugalBank.extend_pairs",
    )
    # the registry imported optimal_parameters by name; windowed buckets
    # look it up on the module at call time
    rec.wrap(
        registry, "optimal_parameters", "core.parameters.optimal_parameters"
    )
    rec.wrap(
        parameters, "optimal_parameters",
        "core.parameters.optimal_parameters",
    )
    rec.wrap(windows._TimeBucketedSketch, "extend_at", "windows.extend_at")
    rec.wrap(
        windows.WindowedSketch, "quantiles",
        "windows.WindowedSketch.quantiles",
    )
    rec.wrap(server, "write_snapshot", "service.snapshot.write_snapshot")
    rec.wrap(rules.RuleSet, "evaluate", "service.rules.RuleSet.evaluate")
