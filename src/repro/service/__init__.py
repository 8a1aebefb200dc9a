"""repro.service: a sharded, durable quantile-sketch server.

The deployment mode the paper anticipates (§4.9: one-pass summaries
maintained next to the data and shipped between nodes) as a long-running
process: a registry of named sketches (``namespace/metric``), sharded
across :class:`~repro.core.bank.SketchBank`-backed worker shards so
batched ingest from many connections takes the vectorised presorted
path, speaking a small length-prefixed binary protocol whose sketch
payloads reuse the :mod:`repro.core.serialize` wire format.

Durability is first class: every acknowledged ingest batch is appended
to a CRC-guarded journal before it is applied, periodic snapshots are
written atomically (write-temp + rename), and recovery replays the
journal tail on top of the latest snapshot -- yielding answers
bit-identical to an uninterrupted run (property-tested, including torn
journal tails).

    from repro.service import QuantileClient, ServerThread

    with ServerThread(data_dir="./slo-data") as server:
        client = QuantileClient("127.0.0.1", server.port)
        client.create("api/latency_ms", kind="adaptive", eps=0.005)
        client.ingest("api/latency_ms", latencies)
        values, bound, n = client.query("api/latency_ms", [0.5, 0.99])
"""

from typing import TYPE_CHECKING

from .._lazy import attach

__all__ = [
    "QuantileClient",
    "QuantileService",
    "ServerThread",
    "SketchRegistry",
    "MetricEntry",
    "MetricConfig",
    "DedupWindow",
    "ServiceError",
    "ServiceConnectionError",
    "ServiceTimeoutError",
    "ChaosProxy",
    "FaultSchedule",
    "FaultEvent",
    "IngestJournal",
    "JournalRecord",
    "read_journal",
    "read_snapshot",
    "write_snapshot",
]

__getattr__, __dir__ = attach(
    __name__,
    submod_attrs={
        "client": ["QuantileClient"],
        "errors": [
            "ServiceConnectionError",
            "ServiceError",
            "ServiceTimeoutError",
        ],
        "faults": ["ChaosProxy", "FaultEvent", "FaultSchedule"],
        "journal": ["IngestJournal", "JournalRecord", "read_journal"],
        "protocol": ["MetricConfig"],
        "registry": ["DedupWindow", "MetricEntry", "SketchRegistry"],
        "server": ["QuantileService", "ServerThread"],
        "snapshot": ["read_snapshot", "write_snapshot"],
    },
)

if TYPE_CHECKING:
    from .client import QuantileClient
    from .errors import (
        ServiceConnectionError,
        ServiceError,
        ServiceTimeoutError,
    )
    from .faults import ChaosProxy, FaultEvent, FaultSchedule
    from .journal import IngestJournal, JournalRecord, read_journal
    from .protocol import MetricConfig
    from .registry import DedupWindow, MetricEntry, SketchRegistry
    from .server import QuantileService, ServerThread
    from .snapshot import read_snapshot, write_snapshot
