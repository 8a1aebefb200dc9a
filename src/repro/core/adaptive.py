"""Unknown-N streams: an adaptive multi-stage sketch.

The SIGMOD'98 algorithm needs the dataset size N up front to size its
buffers (the paper's §7 lists lifting this as future work; the authors'
follow-up, MRL'99, solved it with non-uniform sampling).  This module
provides a deterministic bridge built entirely from the 1998 machinery:

* the stream is consumed in **stages** of geometrically growing capacity
  (``c_j = initial_capacity * 2^j``), each summarised by its own
  :class:`~repro.core.framework.QuantileFramework` sized for
  ``(stage_epsilon, c_j)``;
* when a stage fills, its surviving buffers are collapsed down to one
  (freeing all but ``k_j`` elements) and the next, larger stage opens;
* queries OUTPUT over the union of every stage's buffers
  (:func:`~repro.core.parallel.recombine`) -- the
  :func:`~repro.core.operations.weighted_select` primitive never needed
  equal buffer sizes, only COLLAPSE does, so cross-stage reads are exact.

**Guarantee.**  The union of the stage trees is a forest that satisfies
Lemma 5's hypotheses (weight-1 leaves, internal nodes with >= 2 children),
so the rank error of any answer is at most

    sum_j (W_j - C_j + 1)/2  +  w_max - 1

with the sums tracked live per stage -- :meth:`error_bound` certifies every
answer a posteriori, exactly like the fixed-N framework.  A priori: with
``stage_epsilon = epsilon / 4`` and doubling capacities, the total stage
capacity ever allocated is < 4n once n exceeds the first stage, giving an
``epsilon``-approximate answer for *any* stream length beyond the initial
capacity (and better than that in practice -- the bench measures ~epsilon/4).

**Cost.**  Stages never die, so memory grows by one k_j-sized buffer plus
one live framework as the stream doubles: O((1/eps) log^3(eps n)) total --
one log factor worse than the known-N optimum.  That is the honest price
of N-freedom within the 1998 framework; MRL'99's sampler removes it at the
cost of a probabilistic guarantee (see ``repro.core.sampling``).
"""

from __future__ import annotations

import io
import struct
from typing import Any, BinaryIO, List, Optional, Sequence

import numpy as np

from . import serialize
from .buffer import Buffer
from .errors import ConfigurationError, StorageError
from .framework import QuantileFramework
from .parameters import ParameterPlan, optimal_parameters
from .serialize import _Reader, _StreamReader

__all__ = ["AdaptiveQuantileSketch", "ADAPTIVE_MAGIC"]

#: wire tag of the exchange payload (docs/formats.md, "ADPSKT01")
ADAPTIVE_MAGIC = b"ADPSKT01"

# stage container: initial_capacity, capacity, active_n, n_closed; then
# per closed stage n, n_collapses, sum_collapse_weights, n_buffers; then
# per buffer weight, level, n_low_pad, n_high_pad, n_values
_HEADER = _STAGE_HEADER = struct.Struct("<QQQI")
_BUFFER_HEADER = struct.Struct("<QiIII")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

#: fraction of the error budget given to each stage; 1/4 makes the
#: geometric total provably <= epsilon (see module docstring)
_STAGE_FRACTION = 0.25


def _read_stage(r: _Reader) -> QuantileFramework:
    """Read one closed stage of the stage container at *r*."""
    n, n_collapses, sum_weights, count = _STAGE_HEADER.unpack(
        r.take(_STAGE_HEADER.size, "stage header")
    )
    buffers = []
    for _ in range(count):
        weight, level, n_low, n_high, n_values = _BUFFER_HEADER.unpack(
            r.take(_BUFFER_HEADER.size, "stage buffer header")
        )
        values = r.f64_array(n_values, "stage buffer values")
        if n_low + n_high > n_values:
            raise StorageError(
                "corrupt adaptive sketch: pad counts exceed buffer size"
            )
        buffers.append(Buffer(values, weight, level, n_low, n_high))
    fw = QuantileFramework(max(2, count), len(buffers[0]) if buffers else 1)
    fw._full, fw._mode = buffers, "numeric"
    fw._n, fw._n_collapses, fw._sum_collapse_weights = (
        n, n_collapses, sum_weights
    )
    return fw


class AdaptiveQuantileSketch:
    """One-pass quantiles with a certified bound and **no N required**.

    Parameters
    ----------
    epsilon:
        Target approximation.  Guaranteed a priori for any stream longer
        than *initial_capacity*; certified a posteriori (exactly) always.
    initial_capacity:
        Capacity of the first stage.  Streams shorter than this are
        answered (near-)exactly; each subsequent stage doubles.
    policy:
        Collapse policy for every stage (default: the paper's new policy).

    Examples
    --------
    >>> sk = AdaptiveQuantileSketch(epsilon=0.01)
    >>> sk.extend(values)          # no idea how many will arrive -- fine
    >>> sk.query(0.5)
    >>> sk.error_bound_fraction()  # certified, despite unknown N
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        *,
        initial_capacity: int = 4096,
        policy: str = "new",
        eps: Optional[float] = None,
        kernels: Optional[bool] = None,
    ) -> None:
        if (epsilon is None) == (eps is None):
            raise ConfigurationError(
                "give exactly one of epsilon (positional) or eps= (keyword)"
            )
        if epsilon is None:
            epsilon = eps
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        if initial_capacity < 4:
            raise ConfigurationError(
                f"initial_capacity must be >= 4, got {initial_capacity}"
            )
        self.epsilon = epsilon
        self.policy = policy
        self.initial_capacity = int(initial_capacity)
        self.stage_epsilon = epsilon * _STAGE_FRACTION
        self._kernels = kernels
        #: retired stages, each a finished framework holding one buffer
        self._closed: List[QuantileFramework] = []
        self._capacity = int(initial_capacity)
        self._active = self._new_stage(self._capacity)
        self._active_n = 0

    def _plan(self, capacity: int) -> ParameterPlan:
        return optimal_parameters(
            self.stage_epsilon, capacity, policy=self.policy
        )

    def _new_stage(self, capacity: int) -> QuantileFramework:
        plan = self._plan(capacity)
        return QuantileFramework(
            plan.b,
            plan.k,
            policy=self.policy,
            designed_n=capacity,
            kernels=self._kernels,
        )

    # -- ingest ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Elements consumed so far."""
        return sum(s.n for s in self._closed) + self._active.n

    def __len__(self) -> int:
        return self.n

    @property
    def memory_elements(self) -> int:
        """Current element footprint: closed-stage buffers + live stage."""
        frozen = sum(
            len(buf.values) for s in self._closed for buf in s._full
        )
        return frozen + self._active.memory_elements

    @property
    def n_stages(self) -> int:
        return len(self._closed) + 1

    def _roll_stage(self) -> None:
        rolled = self._active
        rolled.finish([0.5])
        # one surviving buffer frees all but k elements; the extra
        # collapse counts in the stage's certified statistics
        while len(rolled._full) > 1:
            rolled._do_collapse(rolled._full[:])
        # the stage container stores no per-stage extremes: drop them,
        # so a sketch answers the same before and after a round trip
        rolled._min = rolled._max = None
        self._closed.append(rolled)
        # keep the retired stage's observability counts: merge them into
        # sketch-level totals
        stats = rolled._obs_stats
        if stats is not None:
            from ..obs.hooks import stats_for

            stats_for(self).merge(stats)
            rolled._obs_stats = None
        self._capacity *= 2
        self._active = self._new_stage(self._capacity)
        self._active_n = 0

    def update(self, value: Any) -> None:
        """Add one element."""
        self.extend(np.asarray([value], dtype=np.float64))

    def extend(self, data: "np.ndarray | Sequence[float]") -> None:
        """Add many elements, rolling to larger stages as needed."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d stream, got shape {arr.shape}"
            )
        pos = 0
        while pos < len(arr):
            room = self._capacity - self._active_n
            if room <= 0:
                self._roll_stage()
                continue
            take = min(room, len(arr) - pos)
            self._active.extend(arr[pos : pos + take])
            self._active_n += take
            pos += take

    # -- queries -----------------------------------------------------------

    def _recombined(self) -> QuantileFramework:
        """Every stage recombined under one OUTPUT (read-only)."""
        from .parallel import recombine

        return recombine([*self._closed, self._active])

    def quantiles(self, phis: Sequence[float]) -> List[float]:
        """Approximate quantiles of everything seen so far."""
        return self._recombined().quantiles(phis)

    def query(self, phi: float) -> float:
        return self.quantiles([phi])[0]

    def quantile(self, phi: float) -> float:
        """Approximate ``phi``-quantile (uniform query-surface alias)."""
        return self.quantiles([phi])[0]

    def describe(self) -> dict:
        """Summary dict: n, extremes, key quantiles, certified bound."""
        from .protocols import describe_dict

        return describe_dict(self._recombined())

    def median(self) -> float:
        return self.query(0.5)

    def rank(self, value: float) -> int:
        """Approximate number of elements ``<=`` *value* (inverse query).

        Same counting argument as the fixed-N framework; the certified
        bound of :meth:`error_bound` covers this estimate too.
        """
        return self._recombined().rank(value)

    def cdf(self, value: Any) -> Any:
        """Approximate fraction of elements ``<=`` *value*.

        Accepts a scalar (returns one float) or a sequence (list of
        floats).
        """
        return self._recombined().cdf(value)

    # -- guarantees ------------------------------------------------------------

    def error_bound(self) -> float:
        """Certified rank bound (Lemma 5 over the union forest).

        Per-tree deficits ``(W_j - C_j + 1)/2`` add across stages; the
        ``w_max`` term appears once, for the heaviest buffer the final
        OUTPUT reads (:func:`~repro.core.parallel.recombine`).
        """
        return self._recombined().error_bound() if self.n else 0.0

    def error_bound_fraction(self) -> float:
        """Certified rank bound as a fraction of elements seen."""
        n = self.n
        return self.error_bound() / n if n else 0.0

    # -- serialisation -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the ``ADPSKT01`` exchange format: the magic,
        ``f64`` epsilon, then the stage container (docs/formats.md)."""
        out = io.BytesIO()
        out.write(ADAPTIVE_MAGIC + _F64.pack(self.epsilon))
        self.write_stages(out)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AdaptiveQuantileSketch":
        """Deserialise from bytes produced by :meth:`to_bytes`."""
        r = _Reader(raw)
        sk = cls._read(r)
        r.done("adaptive sketch")
        return sk

    @classmethod
    def read_from(cls, fh: BinaryIO) -> "AdaptiveQuantileSketch":
        """Read one serialised sketch from *fh* (self-delimiting)."""
        return cls._read(_StreamReader(fh))

    @classmethod
    def _read(cls, r: _Reader) -> "AdaptiveQuantileSketch":
        magic = bytes(r.take(8, "adaptive magic"))
        if magic != ADAPTIVE_MAGIC:
            raise StorageError(f"bad magic {magic!r}: not an adaptive sketch")
        return cls.read_stages(r, r.f64("epsilon"))

    def write_stages(self, out: BinaryIO) -> None:
        """Write the stage container: the roll schedule, each closed
        stage's surviving buffers and Lemma 5 statistics, and the live
        stage as a ``u32``-length-prefixed ``MRLSKT01`` payload.  It is
        the body of ``ADPSKT01`` and of an adaptive snapshot entry."""
        head = (self.initial_capacity, self._capacity, self._active_n)
        out.write(_HEADER.pack(*head, len(self._closed)))
        for stage in self._closed:
            stats = (stage.n, stage.n_collapses, stage.sum_collapse_weights)
            out.write(_STAGE_HEADER.pack(*stats, len(stage._full)))
            for buf in stage._full:
                values = np.ascontiguousarray(buf.values, dtype="<f8")
                head = (buf.weight, buf.level, buf.n_low_pad, buf.n_high_pad)
                out.write(_BUFFER_HEADER.pack(*head, values.size))
                out.write(values.tobytes())
        live = serialize.dumps(self._active)
        out.write(_U32.pack(len(live)) + live)

    @classmethod
    def read_stages(
        cls, r: _Reader, epsilon: float
    ) -> "AdaptiveQuantileSketch":
        """Rebuild a sketch from the stage container at *r* (*epsilon*
        comes from the enclosing record; the policy is the live
        stage's).  The result is the sketch that was written -- same
        buffers, roll schedule and certified bound -- so further ingest
        diverges nowhere.

        Total on hostile bytes: the schedule, every stage's plan and
        counts and a stored genuine element are checked, and anything
        else raises :class:`StorageError`, so a sketch that loads
        answers.  Every state ingest reaches passes these checks.
        """
        initial_capacity, capacity, active_n, n_closed = _HEADER.unpack(
            r.take(_HEADER.size, "adaptive header")
        )
        if not (
            0.0 < epsilon < 1.0
            and initial_capacity >= 4
            and n_closed < 64
            and capacity == initial_capacity << n_closed
        ):
            raise StorageError("corrupt adaptive sketch: stage schedule")
        try:
            closed = [_read_stage(r) for _ in range(n_closed)]
            live = serialize.loads(r.take(r.u32("live size"), "live stage"))
            sk = cls(
                epsilon,
                initial_capacity=initial_capacity,
                policy=live.policy.name,
            )
            sk._closed, sk._capacity = closed, capacity
            sk._active, sk._active_n = live, active_n
            sk._check_stages()
        except ConfigurationError as exc:
            raise StorageError(f"corrupt adaptive sketch: {exc}") from None
        return sk

    def _check_stages(self) -> None:
        """Raise unless every stage is one this sketch could have built."""
        for j, stage in enumerate(self._closed):
            n = self.initial_capacity << j
            k = self._plan(n).k if stage.n == n else 0
            weight = sum(buf.weight for buf in stage._full)
            if not k or weight != -(-n // k) or any(
                len(buf) != k for buf in stage._full
            ):
                raise StorageError(f"corrupt adaptive sketch: stage {j}")
        live, plan = self._active, self._plan(self._capacity)
        staged = len(live._remainder)
        placed = sum(buf.weight for buf in live._full) * live.k
        if not (
            (live.b, live.k) == (plan.b, plan.k)
            and staged < live.k
            and placed + staged == live.n == self._active_n <= self._capacity
        ):
            raise StorageError("corrupt adaptive sketch: live stage")
        # OUTPUT reads a genuine element; ingest always stores one
        if self.n and all(
            len(buf) == buf.n_low_pad + buf.n_high_pad
            for buf in self._recombined().full_buffers
        ):
            raise StorageError("corrupt adaptive sketch: only pads stored")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveQuantileSketch(eps={self.epsilon}, n={self.n}, "
            f"stages={self.n_stages}, memory={self.memory_elements})"
        )
