"""The three primitive operations of the MRL framework: NEW, COLLAPSE, OUTPUT.

Section 3 of the paper composes every algorithm in the framework from an
interleaved sequence of three operations:

``NEW``
    populate an empty buffer with the next ``k`` stream elements (weight 1,
    padding the final partial buffer with ``±inf`` sentinels);

``COLLAPSE``
    merge ``c >= 2`` full buffers into a single buffer of ``k`` equally
    spaced elements of the weighted merged sequence, with the *offset
    alternation* rule for even output weights that Lemma 1 relies on;

``OUTPUT``
    select the element at the weighted rank corresponding to the requested
    quantile(s) from the final set of full buffers.

Both COLLAPSE and OUTPUT reduce to one shared primitive implemented here,
:func:`weighted_select`: pick the elements at given 1-indexed positions of
the sequence obtained by sorting all buffer contents together with each
element duplicated ``weight`` times.  The duplicates are never materialised
-- the numeric path runs the sorted-run selection kernels of
:mod:`repro.core.kernels` (the argsort reference stands behind their one
global switch), the generic path uses the counting merge described in
Section 3.2 of the paper.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Sequence

import numpy as np

from . import kernels
from .buffer import MINUS_INF, PLUS_INF, Buffer
from .errors import ConfigurationError

__all__ = [
    "OffsetSelector",
    "weighted_select",
    "collapse",
    "output",
    "weighted_rank",
    "augmented_phi",
]


class OffsetSelector:
    """Chooses the COLLAPSE offset, alternating on even output weights.

    For an output buffer of weight ``w``:

    * odd ``w``  -> offset ``(w + 1) / 2`` (the midpoint);
    * even ``w`` -> alternately ``w / 2`` and ``(w + 2) / 2`` on successive
      even-weight invocations (Section 3.2).  Lemma 1's lower bound on the
      sum of offsets -- and therefore the paper's error guarantee -- depends
      on this alternation.

    The ``mode`` parameter exists for the ablation benchmarks: ``"low"`` or
    ``"high"`` pin the even-weight choice instead of alternating, which
    weakens the guarantee and measurably skews the output.
    """

    __slots__ = ("mode", "_next_even_is_high")

    _MODES = ("alternate", "low", "high")

    def __init__(self, mode: str = "alternate") -> None:
        if mode not in self._MODES:
            raise ConfigurationError(
                f"offset mode must be one of {self._MODES}, got {mode!r}"
            )
        self.mode = mode
        self._next_even_is_high = False

    def offset_for(self, weight: int) -> int:
        """Return the 1-indexed offset for a collapse of output *weight*."""
        if weight < 2:
            raise ConfigurationError(
                f"collapse output weight must be >= 2, got {weight}"
            )
        if weight % 2 == 1:
            return (weight + 1) // 2
        if self.mode == "low":
            return weight // 2
        if self.mode == "high":
            return (weight + 2) // 2
        high = self._next_even_is_high
        self._next_even_is_high = not high
        return (weight + 2) // 2 if high else weight // 2


def _weighted_select_generic(
    buffers: Sequence[Buffer], targets: Sequence[int]
) -> List[Any]:
    """Counting-merge weighted selection for arbitrary comparable values."""
    # Tag each stream with its buffer index so heapq never compares values
    # of equal keys across buffers (ties resolve on the integer tag).
    def stream(values, tag, weight):
        for value in values:
            yield value, tag, weight

    streams = [
        stream(b.values, i, b.weight) for i, b in enumerate(buffers)
    ]
    merged = heapq.merge(*streams, key=lambda item: (item[0], item[1]))
    selected: List[Any] = []
    remaining = iter(sorted(targets))
    target = next(remaining, None)
    cum = 0
    for value, _tag, weight in merged:
        if target is None:
            break
        cum += weight
        while target is not None and target <= cum:
            selected.append(value)
            target = next(remaining, None)
    if target is not None:
        raise ConfigurationError(
            f"selection position {target} exceeds weighted size {cum}"
        )
    return selected


def weighted_select(
    buffers: Sequence[Buffer],
    targets: Sequence[int],
) -> Sequence[Any]:
    """Select elements at 1-indexed *targets* of the weighted merged order.

    Conceptually, each element of each buffer is duplicated ``weight``
    times, all copies are sorted together, and the elements at the given
    positions are returned (in the order of the *sorted* targets).  The
    duplication is purely logical.
    """
    if not buffers:
        raise ConfigurationError("weighted_select needs at least one buffer")
    total = sum(b.weighted_count for b in buffers)
    targets = list(targets)
    if not targets:
        return []
    if min(targets) < 1 or max(targets) > total:
        raise ConfigurationError(
            f"selection positions must lie in [1, {total}], got "
            f"[{min(targets)}, {max(targets)}]"
        )
    if all(b.is_numeric for b in buffers):
        # buffer values are sorted by construction, so the sorted-run
        # kernels select directly (the argsort reference when disabled)
        return kernels.weighted_select_runs(
            [b.values for b in buffers],
            [b.weight for b in buffers],
            np.asarray(sorted(targets), dtype=np.int64),
        )
    return _weighted_select_generic(buffers, targets)


def _count_pads(values: Any) -> tuple[int, int]:
    """Count leading ``-inf`` and trailing ``+inf`` pads in sorted *values*."""
    if isinstance(values, np.ndarray):
        return int(np.isneginf(values).sum()), int(np.isposinf(values).sum())
    n_low = 0
    for v in values:
        if v is MINUS_INF:
            n_low += 1
        else:
            break
    n_high = 0
    for v in reversed(values):
        if v is PLUS_INF:
            n_high += 1
        else:
            break
    return n_low, n_high


def collapse(
    buffers: Sequence[Buffer],
    offset: "int | OffsetSelector",
    *,
    level: int | None = None,
) -> Buffer:
    """COLLAPSE ``c >= 2`` full buffers into one (Section 3.2).

    The output holds the ``k`` elements at positions
    ``j * w(Y) + offset(Y)`` for ``j = 0 .. k-1`` of the weighted merged
    sequence, where ``w(Y)`` is the sum of the input weights.  *offset* may
    be given directly (the framework pre-computes it so it can also be
    recorded in the collapse tree) or as an :class:`OffsetSelector` to
    consult.  The returned buffer's pad counts are recomputed from its
    contents so that padding sentinels keep propagating correctly through
    further collapses.
    """
    if len(buffers) < 2:
        raise ConfigurationError(
            f"COLLAPSE requires at least 2 buffers, got {len(buffers)}"
        )
    k = len(buffers[0].values)
    if any(len(b.values) != k for b in buffers):
        raise ConfigurationError("COLLAPSE inputs must share a capacity k")
    weight = 0
    low_w = 0
    high_w = 0
    numeric = True
    weights = []
    for b in buffers:
        w = b.weight
        weight += w
        weights.append(w)
        if b.n_low_pad:
            low_w += b.n_low_pad * w
        if b.n_high_pad:
            high_w += b.n_high_pad * w
        if numeric and not isinstance(b.values, np.ndarray):
            numeric = False
    if isinstance(offset, OffsetSelector):
        offset = offset.offset_for(weight)
    if not 1 <= offset <= weight + 1:
        raise ConfigurationError(
            f"offset {offset} out of range for output weight {weight}"
        )
    if numeric:
        # Numeric fast path: kernel selection over the sorted runs and O(1)
        # pad arithmetic (valid because ingest validation keeps real stream
        # values finite, so the only +/-inf stored are padding sentinels).
        total = weight * k
        if (k - 1) * weight + offset > total:
            raise ConfigurationError(
                f"selection positions must lie in [1, {total}], got "
                f"[{offset}, {(k - 1) * weight + offset}]"
            )
        out_values: Any = kernels.collapse_select_runs(
            [b.values for b in buffers], weights, weight, offset, k
        )
        n_low, n_high = kernels.collapse_pad_counts(
            low_w, high_w, total, weight, offset, k
        )
        return Buffer(
            values=out_values,
            weight=weight,
            level=buffers[0].level + 1 if level is None else level,
            n_low_pad=n_low,
            n_high_pad=n_high,
        )
    targets = [j * weight + offset for j in range(k)]
    values = weighted_select(buffers, targets)
    if isinstance(values, np.ndarray):
        out_values = values
    else:
        out_values = list(values)
    n_low, n_high = _count_pads(out_values)
    return Buffer(
        values=out_values,
        weight=weight,
        level=buffers[0].level + 1 if level is None else level,
        n_low_pad=n_low,
        n_high_pad=n_high,
    )


def output(
    buffers: Sequence[Buffer],
    phis: Sequence[float],
    n_real: int,
) -> List[Any]:
    """OUTPUT: read the approximate quantiles off the final full buffers.

    Parameters
    ----------
    buffers:
        The remaining full buffers (the children of the tree root).  The
        paper requires ``c >= 2``; we additionally permit ``c == 1`` so that
        very small inputs (a single leaf) still answer queries.
    phis:
        Quantile fractions in ``[0, 1]``.  Per Section 4.7, any number of
        quantiles can be read off simultaneously at no extra cost.
    n_real:
        The number of *genuine* input elements (excluding padding).  The
        selection position is the paper's ``ceil(phi' * k * W)`` expressed
        in exact integer arithmetic: ``ceil(phi * N)`` plus the weighted
        count of ``-inf`` pads below the data.  A COLLAPSE that selects a
        pad stores it at the output weight, so the stored pads can
        outweigh the real ones and crowd genuine elements out; a
        position past the last stored genuine element is read at that
        element instead of at a pad.
    """
    if not buffers:
        raise ConfigurationError("OUTPUT requires at least one full buffer")
    if n_real < 1:
        raise ConfigurationError("OUTPUT requires at least one real element")
    low_pad_weighted = sum(b.n_low_pad * b.weight for b in buffers)
    last_real = sum(
        (len(b.values) - b.n_high_pad) * b.weight for b in buffers
    )
    targets = []
    for phi in phis:
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError(f"quantile fraction {phi} not in [0, 1]")
        rank = min(max(int(np.ceil(phi * n_real)), 1), n_real)
        targets.append(min(rank + low_pad_weighted, last_real))
    order = np.argsort(targets, kind="stable")
    selected = weighted_select(buffers, [targets[i] for i in order])
    results: List[Any] = [None] * len(targets)
    for out_pos, orig_pos in enumerate(order):
        results[orig_pos] = selected[out_pos]
    return results


def augmented_phi(phi: float, beta: float) -> float:
    """Map a quantile of the original dataset to the augmented one.

    Section 3.1: if the augmented dataset (original plus an equal number of
    ``-inf`` / ``+inf`` pads) has ``beta * N`` elements, the ``phi``-quantile
    of the original corresponds to the ``phi'``-quantile of the augmented
    dataset with ``phi' = (2 phi + beta - 1) / (2 beta)``.

    The runtime code uses exact integer ranks instead (see :func:`output`);
    this helper exists for parity with the paper and for the analysis tests.
    """
    if beta < 1.0:
        raise ConfigurationError(f"beta must be >= 1, got {beta}")
    return (2.0 * phi + beta - 1.0) / (2.0 * beta)


def weighted_rank(buffers: Sequence[Buffer], value: Any) -> tuple[int, int]:
    """Weighted rank interval of *value* against the summary's contents.

    Returns ``(n_below, n_below_or_equal)`` counting weighted copies of
    genuine (non-padding) stored elements.  This is the inverse-quantile
    primitive: by the same definitely-small/definitely-large argument as
    Lemma 5, the true rank of *value* in the original dataset lies within
    the summary's certified error bound of this interval.
    """
    if not buffers:
        raise ConfigurationError("weighted_rank needs at least one buffer")
    if all(b.is_numeric for b in buffers):
        return kernels.weighted_rank_runs(
            [b.values for b in buffers],
            [b.weight for b in buffers],
            [b.n_low_pad for b in buffers],
            [b.n_high_pad for b in buffers],
            value,
        )
    below = 0
    below_eq = 0
    for buf in buffers:
        if buf.is_numeric:
            lo = int(np.searchsorted(buf.values, value, side="left"))
            hi = int(np.searchsorted(buf.values, value, side="right"))
        else:
            lo = 0
            for v in buf.values:
                if v < value:
                    lo += 1
                else:
                    break
            hi = lo
            for v in buf.values[lo:]:
                if not value < v and v is not PLUS_INF:
                    hi += 1
                else:
                    break
        # -inf pads always sort below `value`; exclude them from the count
        lo_real = max(lo - buf.n_low_pad, 0)
        hi_real = max(min(hi, len(buf.values) - buf.n_high_pad) - buf.n_low_pad, 0)
        below += buf.weight * lo_real
        below_eq += buf.weight * hi_real
    return below, below_eq
