"""The parallel version of the algorithm (Section 4.9).

The new algorithm parallelises by partitioning the input stream among P
workers (statically or dynamically), running an independent framework on
each partition, and concatenating the workers' final full buffers ("root
gates") into the input of a single final OUTPUT.  For very high degrees of
parallelism the paper suggests a two-stage variant: partition the root
buffers onto fewer combiner nodes, collapse there, and finish on a single
node.

Two execution backends are provided:

``backend="sync"`` (default)
    Physical parallelism is irrelevant to the accuracy analysis -- only
    the dataflow matters -- so the sync backend executes workers
    sequentially in-process while reproducing the exact buffer flow.

``backend="process"``
    True multiprocessing: each worker is a separate OS process running its
    own :class:`~repro.core.framework.QuantileFramework` over its stream
    partition, fed chunks through a pipe.  Queries snapshot every worker
    -- the worker returns its summary in the safe binary format of
    :mod:`repro.core.serialize` (never pickled framework objects) -- and
    the parent recombines the deserialised summaries exactly as the sync
    backend recombines its live workers, so both backends answer
    bit-identically.  The process backend accepts
    numeric streams only (the wire format stores float64 buffers) and
    named collapse policies (the policy must be reconstructible in the
    worker process).

In either case a query reads the workers through :func:`recombine` and
never changes them, so ingest may continue after any query.  The
combined tree is a forest whose roots meet under one OUTPUT node, and
the certified bound is Lemma 5 over that forest (whose proof only needs
leaves of weight one and internal nodes with at least two children).
:func:`recombine` is also the query-time merge of every other set of
paper summaries: window buckets, cluster fan-in, adaptive stages.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from . import serialize
from .errors import ConfigurationError, EmptySummaryError, WorkerError
from .framework import QuantileFramework

__all__ = ["ParallelQuantileEngine", "recombine"]

_BACKENDS = ("sync", "process")


def recombine(
    summaries: Iterable[QuantileFramework],
    *,
    combine_fanin: Optional[int] = None,
) -> QuantileFramework:
    """One summary over the root buffers of *summaries* (Section 4.9).

    Each input contributes its full buffers and, as a temporary padded
    buffer, its staged tail (``_snapshot_buffers``), so no input
    changes.  The result is a plain framework whose ``b`` is the buffer
    count; one weighted OUTPUT over the concatenation answers its
    queries, and it re-serialises like any summary.  ``n``, ``W`` and
    ``C`` add; exact extremes combine when every input has them.
    *combine_fanin* (>= 2, the >100-node regime) first COLLAPSEs
    consecutive groups of at most that many buffers on the result's own
    offset alternation, counted in ``W`` and ``C``.

    ``error_bound()`` is Lemma 5 over the forest of ``T`` collapsed
    trees, ``sum_j (W_j - C_j + 1)/2 + w_max - 1`` (DESIGN.md, §4.9):
    each tree's own offset alternation may leave one even-weight half
    rank unmatched.  ``W`` carries the ``T - 1`` extra halves as ``T -
    1`` units, so the single-tree ``(W - C - 1)/2 + w_max`` -- and the
    wire format -- report that bound.  Inputs of different ``k``
    recombine, but cannot pre-combine or serialise.
    """
    if combine_fanin is not None and combine_fanin < 2:
        raise ConfigurationError("combine_fanin must be >= 2")
    inputs = [fw for fw in summaries if fw.n]
    if not inputs:
        raise EmptySummaryError("no elements have been ingested")
    first = inputs[0]
    out = QuantileFramework(
        2,
        max(fw.k for fw in inputs),
        policy=first.policy,
        offset_mode=first._offsets.mode,
        kernels=first._kernels,
    )
    out._full = [buf for fw in inputs for buf in fw._snapshot_buffers()]
    out._n = sum(fw.n for fw in inputs)
    out._n_collapses = sum(fw.n_collapses for fw in inputs)
    out._sum_collapse_weights = sum(fw.sum_collapse_weights for fw in inputs)
    out._mode = first._mode
    trees = sum(1 for fw in inputs if fw.n_collapses)
    if combine_fanin is not None:
        roots = out._full
        groups = [
            roots[i : i + combine_fanin]
            for i in range(0, len(roots), combine_fanin)
        ]
        collapsed = [group for group in groups if len(group) > 1]
        for group in collapsed:
            out._do_collapse(group)
        trees += bool(collapsed)
    out._sum_collapse_weights += max(trees - 1, 0)
    out.b = max(2, len(out._full))
    if all(fw._min is not None for fw in inputs):
        out._min = min(fw._min for fw in inputs)
        out._max = max(fw._max for fw in inputs)
    return out


def _worker_main(
    conn,
    b: int,
    k: int,
    policy: str,
    offset_mode: str,
    kernels: Optional[bool] = None,
) -> None:
    """Worker-process loop: ingest chunks, answer snapshot requests.

    ``extend`` commands are fire-and-forget (pipe backpressure throttles
    the parent naturally); the first ingest failure is remembered and
    reported on the next ``snapshot``/``close`` round-trip instead of
    being lost.
    """
    fw = QuantileFramework(
        b, k, policy=policy, offset_mode=offset_mode, kernels=kernels
    )
    error: Optional[str] = None
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        cmd = msg[0]
        if cmd == "extend":
            if error is None:
                try:
                    fw.extend(msg[1])
                except Exception as exc:  # noqa: BLE001 - relayed to parent
                    error = f"{type(exc).__name__}: {exc}"
        elif cmd == "snapshot":
            if error is not None:
                conn.send(("error", error))
            else:
                try:
                    conn.send(("ok", serialize.dumps(fw)))
                except Exception as exc:  # noqa: BLE001 - relayed to parent
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif cmd == "close":
            conn.send(("ok", error))
            break
    conn.close()


class ParallelQuantileEngine:
    """P-way partitioned quantile computation (Section 4.9).

    Parameters
    ----------
    n_workers:
        The degree of parallelism P.
    b, k:
        Per-worker buffer configuration (every worker gets its own
        ``b * k`` elements, mirroring per-node memory on an MPP system).
        May be omitted when *eps* is given -- the per-worker plan is then
        sized with :func:`~repro.core.parameters.optimal_parameters` for
        ``(eps, n)`` (``n`` defaulting to the library's standard design
        capacity), the facade spelling.
    eps, n:
        Accuracy-first sizing (mutually exclusive with explicit ``b, k``):
        every worker is configured for an ``eps``-approximate summary of
        ``n`` elements.
    policy / offset_mode:
        Forwarded to every worker's framework.
    kernels:
        Per-engine kernel override forwarded to every worker framework
        and the final OUTPUT (``None`` follows the global switch).
    combine_fanin:
        When set (the >100-node regime of Section 4.9), worker root
        buffers are first merged in groups of at most this many buffers
        by intermediate COLLAPSE operations before the final OUTPUT,
        bounding the fan-in of the last node (see :func:`recombine`).
    backend:
        ``"sync"`` (sequential in-process workers, the default) or
        ``"process"`` (one OS process per worker; see the module
        docstring).  Both produce the identical buffer dataflow for the
        same dispatch sequence.

    Elements are routed round-robin by default (``dispatch``) or appended
    to an explicit worker via ``extend_worker`` for static range
    partitioning experiments.  The engine is a context manager; with the
    process backend, ``close()`` (or leaving the ``with`` block) shuts the
    worker processes down.
    """

    def __init__(
        self,
        n_workers: int,
        b: Optional[int] = None,
        k: Optional[int] = None,
        *,
        policy: str = "new",
        offset_mode: str = "alternate",
        combine_fanin: Optional[int] = None,
        backend: str = "sync",
        eps: Optional[float] = None,
        n: Optional[int] = None,
        kernels: Optional[bool] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {n_workers}")
        if (b is None) != (k is None):
            raise ConfigurationError("give b and k together, or neither")
        if b is None:
            if eps is None:
                raise ConfigurationError(
                    "give either explicit (b, k) or eps= for accuracy-first "
                    "sizing"
                )
            from .parameters import optimal_parameters
            from .sketch import DEFAULT_DESIGN_N

            plan = optimal_parameters(
                eps, DEFAULT_DESIGN_N if n is None else int(n), policy=policy
            )
            b, k = plan.b, plan.k
        elif eps is not None:
            raise ConfigurationError(
                "explicit (b, k) and eps= sizing are mutually exclusive"
            )
        if combine_fanin is not None and combine_fanin < 2:
            raise ConfigurationError("combine_fanin must be >= 2")
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if backend == "process" and not isinstance(policy, str):
            raise ConfigurationError(
                "backend='process' needs a named policy (the policy object "
                "must be reconstructible inside the worker process)"
            )
        self.backend = backend
        self.n_workers = n_workers
        self.b = b
        self.k = k
        self.combine_fanin = combine_fanin
        self._kernels = kernels
        self._rr = 0
        self._closed = False
        if backend == "process":
            import multiprocessing

            self.workers: List[QuantileFramework] = []
            self._n_dispatched = 0
            ctx = multiprocessing.get_context()
            self._procs = []
            self._conns = []
            for _ in range(n_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, b, k, policy, offset_mode, kernels),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        else:
            self.workers = [
                QuantileFramework(
                    b, k, policy=policy, offset_mode=offset_mode, kernels=kernels
                )
                for _ in range(n_workers)
            ]
            self._procs = []
            self._conns = []

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ParallelQuantileEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Shut worker processes down (no-op for the sync backend)."""
        if self._closed or self.backend != "process":
            self._closed = True
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(2.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)

    def _require_open(self) -> None:
        if self.backend == "process" and self._closed:
            raise ConfigurationError("engine is closed")

    # -- introspection -----------------------------------------------------

    @property
    def n(self) -> int:
        if self.backend == "process":
            return self._n_dispatched
        return sum(fw.n for fw in self.workers)

    @property
    def memory_elements(self) -> int:
        """Aggregate memory across all workers (P * b * k)."""
        return self.n_workers * self.b * self.k

    # -- ingest ------------------------------------------------------------

    def dispatch(self, data: "np.ndarray | Sequence[Any]") -> None:
        """Split *data* into contiguous blocks, one per worker, round-robin.

        Contiguous blocks model the dynamic stream partitioning of a real
        system (each worker sees a contiguous run of the input).
        """
        self._require_open()
        arr = np.asarray(data) if not isinstance(data, np.ndarray) else data
        if len(arr) == 0:
            return
        if self.backend == "process" and arr.dtype.kind not in "fiu":
            raise ConfigurationError(
                "backend='process' supports numeric streams only (worker "
                "summaries travel in the numeric wire format)"
            )
        pieces = np.array_split(arr, self.n_workers)
        for piece in pieces:
            if len(piece):
                self._feed(self._rr, piece)
                self._rr = (self._rr + 1) % self.n_workers

    def extend_worker(self, worker: int, data: "np.ndarray | Sequence[Any]") -> None:
        """Feed *data* to one specific worker (static partitioning)."""
        self._require_open()
        if self.backend == "process":
            arr = np.asarray(data)
            if arr.dtype.kind not in "fiu":
                raise ConfigurationError(
                    "backend='process' supports numeric streams only (worker "
                    "summaries travel in the numeric wire format)"
                )
            if len(arr):
                self._feed(worker, arr)
        else:
            self.workers[worker].extend(data)

    def _feed(self, worker: int, piece: np.ndarray) -> None:
        if self.backend == "process":
            try:
                self._conns[worker].send(("extend", piece))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerError(f"worker {worker} is gone: {exc}") from exc
            self._n_dispatched += len(piece)
        else:
            self.workers[worker].extend(piece)

    # -- collection --------------------------------------------------------

    def _snapshot(self) -> List[QuantileFramework]:
        """Fetch every process worker's summary without disturbing it."""
        for i, conn in enumerate(self._conns):
            try:
                conn.send(("snapshot",))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerError(f"worker {i} is gone: {exc}") from exc
        frameworks = []
        for i, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerError(f"worker {i} died: {exc}") from exc
            if status != "ok":
                raise WorkerError(f"worker {i} failed: {payload}")
            fw = serialize.loads(payload)
            fw._kernels = self._kernels
            frameworks.append(fw)
        return frameworks

    def _recombined(self) -> QuantileFramework:
        """The workers' summaries recombined under one OUTPUT.

        Sync backend: the live worker objects; process backend:
        deserialised snapshots.  Neither is changed by the read.
        """
        if self.backend == "process":
            self._require_open()
            workers = self._snapshot()
        else:
            workers = self.workers
        return recombine(workers, combine_fanin=self.combine_fanin)

    # -- queries -----------------------------------------------------------

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        """Approximate quantiles of everything dispatched so far."""
        return self._recombined().quantiles(phis)

    def query(self, phi: float) -> Any:
        return self.quantiles([phi])[0]

    def quantile(self, phi: float) -> Any:
        """Approximate ``phi``-quantile (uniform query-surface alias)."""
        return self.quantiles([phi])[0]

    def rank(self, value: Any) -> int:
        """Approximate combined rank of *value* across all workers."""
        return self._recombined().rank(value)

    def cdf(self, value: Any) -> Any:
        """Approximate combined CDF at a scalar or sequence of values."""
        return self._recombined().cdf(value)

    def describe(self) -> dict:
        """Summary dict: n, extremes, key quantiles, certified bound."""
        from .protocols import describe_dict

        return describe_dict(self._recombined())

    def error_bound(self) -> float:
        """Certified rank bound for the combined answer (Lemma 5).

        The bound of the recombined forest (:func:`recombine`): every
        worker's collapses and the pre-combine collapses count, and
        ``w_max`` is the heaviest buffer the final OUTPUT reads.
        """
        if self.n == 0:
            return 0.0
        return self._recombined().error_bound()
