"""Entry point of one cluster node process.

:class:`~repro.cluster.coordinator.ClusterCoordinator` spawns each node
with :func:`node_main` as its target.  A spawn child imports the module
that defines its target before calling it, so this module imports
nothing at top level that loads numpy: :func:`node_main` can still
default numpy's OpenBLAS pool to one thread, as ``repro serve`` does,
before the server's first import.  (The coordinator module loads numpy
through the cluster client, which would start the pool first.)
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["node_main"]


def node_main(
    host: str,
    port: int,
    data_dir: Optional[str],
    conn: "Connection",
    service_kwargs: Dict[str, Any],
) -> None:
    """Run one node: a complete :class:`QuantileService`.

    Own reactor, own shards, own journal.  Reports the bound port
    (ephemeral when the cluster asked for port 0) back over *conn*, then
    serves until SIGTERM/SIGINT, which triggers the same graceful drain
    a single-process server performs: apply queued batches, final
    snapshot, close the journal.
    """
    # nothing in the server calls BLAS; an operator's own setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ..service.server import QuantileService

    try:
        service = QuantileService(
            host=host, port=port, data_dir=data_dir, **service_kwargs
        )
        service.start()
    except BaseException as exc:  # noqa: BLE001 - shipped to parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        raise
    conn.send(("ready", service.port))
    conn.close()
    service.serve()
