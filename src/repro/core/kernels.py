"""Vectorised hot-path kernels for the MRL framework's numeric fast path.

COLLAPSE and OUTPUT are one weighted selection over the contents of ``c``
buffers, and **every** :class:`~repro.core.buffer.Buffer` is *already
sorted* by construction (leaves are sorted on creation, COLLAPSE outputs
are selections from a sorted merge).  The primitives that run:

``weighted_select_runs`` / ``collapse_select_runs``
    weighted positional selection straight off sorted runs.  With one
    weight ``w`` for every run (every leaf collapse) position ``t`` is
    element ``(t - 1) // w`` of the plain merge, and the COLLAPSE grid
    ``j * W + offset`` is a strided view of it; mixed weights use one
    argsort plus a cumulative-weight search.

``weighted_select_argsort``
    the reference: a global stable argsort over the concatenated values,
    kept callable forever as the oracle the kernels are tested against.

``collapse_pad_counts`` / ``weighted_rank_runs``
    O(1) pad counts of a COLLAPSE output and the per-run binary searches
    behind ``rank``/``cdf``.

``sort_rows``
    every NEW buffer of a batch in one ``np.sort(axis=1)``.

``frugal2u_update``
    the bank-wide Frugal-2U step in vector rounds across sketches, with
    :func:`frugal2u_update_scalar` as its per-element reference.

One global switch (``REPRO_KERNELS=0`` in the environment, or
:func:`set_enabled`) routes every caller through the references instead;
the results are bit-identical either way, which the test suite asserts.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs import hooks as _obs

__all__ = [
    "is_enabled",
    "set_enabled",
    "weighted_select_runs",
    "weighted_select_argsort",
    "collapse_pad_counts",
    "sort_rows",
    "splitmix64_u01",
    "splitmix64_u01_scalar",
    "stream_seed",
    "frugal2u_update",
    "frugal2u_update_scalar",
]

_enabled = os.environ.get("REPRO_KERNELS", "1").lower() not in (
    "0",
    "false",
    "off",
)


def is_enabled() -> bool:
    """Whether the vectorised kernels are active (vs the argsort fallback)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Globally enable/disable the kernels (used by tests and benchmarks)."""
    global _enabled
    _enabled = bool(flag)


# -- weighted selection ------------------------------------------------------


def weighted_select_argsort(
    runs: Sequence[np.ndarray],
    weights: Sequence[int],
    targets: np.ndarray,
) -> np.ndarray:
    """Reference weighted selection: global stable argsort + cumsum.

    This is the pre-kernel implementation, kept verbatim as the fallback
    and as the oracle for the equivalence property tests.
    """
    vals = np.concatenate(runs)
    wts = np.concatenate(
        [np.full(len(r), w, dtype=np.int64) for r, w in zip(runs, weights)]
    )
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(wts[order])
    idx = np.searchsorted(cum, np.asarray(targets, dtype=np.int64), side="left")
    return vals[order][idx]


def weighted_select_runs(
    runs: Sequence[np.ndarray],
    weights: Sequence[int],
    targets: np.ndarray,
) -> np.ndarray:
    """Select the elements at weighted positions *targets* of sorted *runs*.

    ``targets`` are 1-indexed positions into the sequence obtained by
    repeating each element of run ``i`` ``weights[i]`` times and sorting
    everything together; the repeats are never materialised.  Results are
    identical to :func:`weighted_select_argsort` for any input; the runs
    being sorted only makes it faster (numpy's stable sorts gallop through
    pre-sorted runs), it is not required for correctness of this entry
    point.
    """
    if not _enabled:
        if _obs.ENABLED:
            _obs.on_kernel("weighted_select", "argsort")
        return weighted_select_argsort(runs, weights, targets)
    if _obs.ENABLED:
        _obs.on_kernel("weighted_select", "runs")
    targets = np.asarray(targets, dtype=np.int64)
    w0 = weights[0]
    uniform = True
    for w in weights:
        if w != w0:
            uniform = False
            break
    if uniform:
        # Uniform weight: weighted position t is plain-merge index
        # (t-1) // w -- no weight vector, cumsum or search needed.
        if len(runs) == 1:
            merged = runs[0]
        else:
            merged = np.sort(np.concatenate(runs), kind="stable")
        return merged[(targets - 1) // int(w0)]
    warr = np.asarray(weights, dtype=np.int64)
    vals = np.concatenate(runs)
    # Any order of a run of tied values selects the same value at every
    # target: the tie's cumulative weight span does not depend on it.
    # -0.0 and 0.0 tie but differ in bits, so only they need stability.
    order = np.argsort(vals, kind="stable" if (vals == 0.0).any() else None)
    k = len(runs[0])
    if all(len(r) == k for r in runs):
        # Equal-length runs: element order[i] of the concatenation came
        # from run order[i] // k, giving its weight without materialising
        # a per-element weight vector.
        cum = np.cumsum(warr[order // k])
    else:
        lengths = np.fromiter((len(r) for r in runs), dtype=np.int64)
        cum = np.cumsum(np.repeat(warr, lengths)[order])
    idx = np.searchsorted(cum, targets, side="left")
    return vals[order[idx]]


def collapse_select_runs(
    runs: Sequence[np.ndarray],
    weights: Sequence[int],
    out_weight: int,
    offset: int,
    k: int,
) -> np.ndarray:
    """COLLAPSE selection: positions ``j * out_weight + offset``, j < k.

    The equally-spaced target grid lets the dominant uniform-weight case
    (every leaf collapse) reduce to a strided view of the plain merge:
    position ``j*W + offset`` is merge index ``j*c + (offset-1)//w``, so
    no target vector, cumsum or binary search is ever built.
    """
    if not _enabled:
        if _obs.ENABLED:
            _obs.on_kernel("collapse_select", "argsort")
        targets = np.arange(k, dtype=np.int64) * out_weight + offset
        return weighted_select_argsort(runs, weights, targets)
    w0 = weights[0]
    uniform = True
    for w in weights:
        if w != w0:
            uniform = False
            break
    if uniform:
        if _obs.ENABLED:
            _obs.on_kernel("collapse_select", "uniform_stride")
        if len(runs) == 1:
            merged = runs[0]
        else:
            merged = np.sort(np.concatenate(runs), kind="stable")
        start = (offset - 1) // w0
        return merged[start :: len(runs)][:k].copy()
    if _obs.ENABLED:
        _obs.on_kernel("collapse_select", "mixed_weights")
    targets = np.arange(k, dtype=np.int64) * out_weight + offset
    return weighted_select_runs(runs, weights, targets)


def weighted_rank_runs(
    runs: Sequence[np.ndarray],
    weights: Sequence[int],
    low_pads: Sequence[int],
    high_pads: Sequence[int],
    value: float,
) -> Tuple[int, int]:
    """Weighted ``(n_below, n_below_or_equal)`` of *value* over sorted runs.

    Counts weighted copies of genuine (non-padding) elements only, using
    one binary-search pair per run -- the inverse-quantile primitive
    behind ``rank``/``cdf`` queries.
    """
    below = 0
    below_eq = 0
    for values, weight, n_low, n_high in zip(
        runs, weights, low_pads, high_pads
    ):
        lo = int(np.searchsorted(values, value, side="left"))
        hi = int(np.searchsorted(values, value, side="right"))
        lo_real = max(lo - n_low, 0)
        hi_real = max(min(hi, len(values) - n_high) - n_low, 0)
        below += weight * lo_real
        below_eq += weight * hi_real
    return below, below_eq


# -- padding arithmetic ------------------------------------------------------


def collapse_pad_counts(
    low_pad_weight: int,
    high_pad_weight: int,
    total_weight: int,
    out_weight: int,
    offset: int,
    k: int,
) -> Tuple[int, int]:
    """Pad counts of a COLLAPSE output, in O(1) arithmetic.

    The merged weighted sequence of the inputs starts with exactly
    *low_pad_weight* positions of ``-inf`` and ends with *high_pad_weight*
    positions of ``+inf`` (sentinels sort to the extremes; real stream
    values are finite by the framework's ingest validation).  COLLAPSE
    selects positions ``j * out_weight + offset`` for ``j = 0..k-1``, so
    the output's pad counts are the number of those targets landing in
    each sentinel span -- no scan of the output values required.
    """
    if low_pad_weight <= 0 and high_pad_weight <= 0:
        return 0, 0
    # j * out_weight + offset <= low_pad_weight
    n_low = 0
    if low_pad_weight >= offset:
        n_low = min(k, (low_pad_weight - offset) // out_weight + 1)
    # j * out_weight + offset > total_weight - high_pad_weight
    n_high = 0
    first_real_w = total_weight - high_pad_weight
    if first_real_w < offset:
        n_high = k
    else:
        j_min = (first_real_w - offset) // out_weight + 1
        n_high = max(0, k - j_min)
    return int(n_low), int(n_high)


# -- batched NEW -------------------------------------------------------------


def sort_rows(arr: np.ndarray, k: int) -> np.ndarray:
    """Sort the leading ``(len(arr) // k) * k`` elements of *arr* as rows.

    Returns a freshly sorted ``(n_full, k)`` matrix (one NEW buffer per
    row) without mutating *arr*.  One ``np.sort(axis=1)`` call replaces a
    Python loop of per-buffer sorts -- the batched half of the NEW fast
    path.
    """
    n_full = len(arr) // k
    return np.sort(arr[: n_full * k].reshape(n_full, k), axis=1)


# -- deterministic counter-based randomness ----------------------------------
#
# The probabilistic engines (Frugal-2U updates, KLL compaction parity) must
# be *replay-deterministic*: the service journals raw ingest batches and
# recovery replays them, possibly with different batch boundaries, and the
# recovered state must be bit-identical to the pre-crash state.  A stateful
# RNG breaks that (its state would depend on batching); instead every random
# draw is a pure hash of ``(stream seed, per-sketch element index)`` --
# splitmix64's output function, which is exactly a counter-mode generator.

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_STREAM_SALT = 0xD1342543DE82EF95


def _finalize_scalar(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    z ^= z >> 31
    return z


def stream_seed(seed: int, stream: int) -> int:
    """Derive the per-stream base for :func:`splitmix64_u01` draws.

    *stream* separates logically independent random sequences sharing one
    user seed (e.g. one sequence per tracked quantile fraction).
    """
    return _finalize_scalar((seed + (stream + 1) * _STREAM_SALT) & _MASK64)


def splitmix64_u01_scalar(base: int, index: int) -> float:
    """The ``index``-th uniform [0, 1) draw of stream *base* (scalar path)."""
    z = _finalize_scalar((base + index * _SPLITMIX_GAMMA) & _MASK64)
    return (z >> 11) * 2.0**-53


def splitmix64_u01(base: int, indices: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64_u01_scalar` over an int64/uint64 array.

    Bit-identical to the scalar spelling for every index -- the property
    suite asserts it, because the scalar and vector Frugal paths must
    consume identical randomness.
    """
    with np.errstate(over="ignore"):
        z = indices.astype(np.uint64) * np.uint64(_SPLITMIX_GAMMA)
        z += np.uint64(base)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


# -- bank-wide Frugal-2U update ----------------------------------------------
#
# State layout (shared with core.frugal.FrugalBank): one flat float64 row
# per tracked fraction -- ``m[p, i]`` / ``step[p, i]`` / ``sign[p, i]`` hold
# the Frugal-2U estimate state of fraction ``qs[p]`` for sketch ``i`` --
# plus per-sketch counters ``n_seen`` and exact extremes.  A whole ingest
# chunk, already partitioned into one run per sketch, is applied in
# *rounds*: round ``r`` takes the ``r``-th element of every still-active
# run, so each round is a handful of branchless numpy passes over up to
# n_sketches states instead of a Python loop per element.  With 100k
# uniformly-hit metrics a 1M-element chunk is ~10 wide rounds.

# Below this many runs the fixed per-round numpy call overhead dominates
# and the scalar per-element loop wins.
_FRUGAL_ROUNDS_MIN_RUNS = 32


def _frugal2u_apply(
    q: float,
    cur_m: np.ndarray,
    cur_s: np.ndarray,
    cur_g: np.ndarray,
    x: np.ndarray,
    rand: np.ndarray,
    allow: Optional[np.ndarray] = None,
) -> "Tuple[np.ndarray, np.ndarray, np.ndarray, int]":
    """One vectorised Frugal-2U step for fraction *q* over gathered state.

    Returns the updated ``(m, step, sign)`` plus the number of sketches
    whose step actually adjusted (the obs counter).  *allow* masks lanes
    out of the update entirely (used for first-element initialisation).
    The operation order mirrors :func:`frugal2u_update_scalar` exactly --
    same IEEE ops in the same sequence -- so both paths produce
    bit-identical state.
    """
    up = (x > cur_m) & (rand > 1.0 - q)
    down = (x < cur_m) & (rand > q)
    if allow is not None:
        up &= allow
        down &= allow
    # ascent: step drifts by +/-1, the estimate moves by ceil(step) (>= 1)
    cur_s = np.where(up, cur_s + np.where(cur_g > 0, 1.0, -1.0), cur_s)
    add = np.where(cur_s > 0.0, np.ceil(cur_s), 1.0)
    cur_m = np.where(up, cur_m + add, cur_m)
    over = up & (cur_m > x)
    cur_s = np.where(over, cur_s + (x - cur_m), cur_s)
    cur_m = np.where(over, x, cur_m)
    reset = up & (cur_g < 0) & (cur_s > 1.0)
    cur_s = np.where(reset, 1.0, cur_s)
    # descent: the mirror image
    cur_s = np.where(down, cur_s + np.where(cur_g < 0, 1.0, -1.0), cur_s)
    sub = np.where(cur_s > 0.0, np.ceil(cur_s), 1.0)
    cur_m = np.where(down, cur_m - sub, cur_m)
    under = down & (cur_m < x)
    cur_s = np.where(under, cur_s + (cur_m - x), cur_s)
    cur_m = np.where(under, x, cur_m)
    reset2 = down & (cur_g > 0) & (cur_s > 1.0)
    cur_s = np.where(reset2, 1.0, cur_s)
    cur_g = np.where(up, np.int8(1), np.where(down, np.int8(-1), cur_g))
    adjusted = 0
    if _obs.ENABLED:
        adjusted = int(np.count_nonzero(up) + np.count_nonzero(down))
    return cur_m, cur_s, cur_g, adjusted


def frugal2u_update_scalar(
    qs: np.ndarray,
    m: np.ndarray,
    step: np.ndarray,
    sign: np.ndarray,
    n_seen: np.ndarray,
    minv: np.ndarray,
    maxv: np.ndarray,
    values: np.ndarray,
    run_ids: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    bases: np.ndarray,
) -> int:
    """Reference Frugal-2U: per-element Python loop over each run.

    Kept callable forever as the oracle the vectorised rounds path is
    property-tested against, and as the fast path for few long runs
    (per-round numpy overhead beats per-element Python only when many
    sketches are active per round).
    """
    phis = [float(q) for q in qs]
    nphis = len(phis)
    adjusted = 0
    count_adjust = _obs.ENABLED
    for j in range(len(run_ids)):
        i = int(run_ids[j])
        s0, s1 = int(starts[j]), int(stops[j])
        if s1 <= s0:
            continue
        run = values[s0:s1]
        base_idx = int(n_seen[i])
        pos = 0
        if base_idx == 0:
            x0 = float(run[0])
            for p in range(nphis):
                m[p, i] = x0
            minv[i] = x0
            maxv[i] = x0
            pos = 1
        else:
            rmin = float(np.min(run))
            rmax = float(np.max(run))
            if rmin < minv[i]:
                minv[i] = rmin
            if rmax > maxv[i]:
                maxv[i] = rmax
        if pos and len(run) > 1:
            rmin = float(np.min(run[1:]))
            rmax = float(np.max(run[1:]))
            if rmin < minv[i]:
                minv[i] = rmin
            if rmax > maxv[i]:
                maxv[i] = rmax
        for r in range(pos, len(run)):
            x = float(run[r])
            idx = base_idx + r
            for p in range(nphis):
                q = phis[p]
                rand = splitmix64_u01_scalar(int(bases[p]), idx)
                cur_m = float(m[p, i])
                cur_s = float(step[p, i])
                cur_g = int(sign[p, i])
                if x > cur_m and rand > 1.0 - q:
                    cur_s = cur_s + (1.0 if cur_g > 0 else -1.0)
                    cur_m = cur_m + (math.ceil(cur_s) if cur_s > 0.0 else 1.0)
                    if cur_m > x:
                        cur_s = cur_s + (x - cur_m)
                        cur_m = x
                    if cur_g < 0 and cur_s > 1.0:
                        cur_s = 1.0
                    cur_g = 1
                    if count_adjust:
                        adjusted += 1
                elif x < cur_m and rand > q:
                    cur_s = cur_s + (1.0 if cur_g < 0 else -1.0)
                    cur_m = cur_m - (math.ceil(cur_s) if cur_s > 0.0 else 1.0)
                    if cur_m < x:
                        cur_s = cur_s + (cur_m - x)
                        cur_m = x
                    if cur_g > 0 and cur_s > 1.0:
                        cur_s = 1.0
                    cur_g = -1
                    if count_adjust:
                        adjusted += 1
                else:
                    continue
                m[p, i] = cur_m
                step[p, i] = cur_s
                sign[p, i] = cur_g
        n_seen[i] = base_idx + len(run)
    return adjusted


def _frugal2u_rounds(
    qs: np.ndarray,
    m: np.ndarray,
    step: np.ndarray,
    sign: np.ndarray,
    n_seen: np.ndarray,
    minv: np.ndarray,
    maxv: np.ndarray,
    values: np.ndarray,
    run_ids: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    bases: np.ndarray,
) -> int:
    """Vectorised rounds path: round ``r`` updates every active sketch at once.

    State is gathered from the bank arrays *once* per chunk.  Runs are
    sorted by length, so the lanes still active in round ``r`` are a
    contiguous suffix of the gathered arrays and every round operates on
    plain slices -- no per-round fancy indexing.  The chunk's values are
    scattered into a ``(max_len, n_runs)`` round-major matrix up front so
    round ``r``'s inputs are one contiguous row slice as well.
    """
    lengths = stops - starts
    order = np.argsort(lengths, kind="stable")
    run_ids = run_ids[order]
    starts = starts[order]
    lengths = lengths[order]
    n_runs = len(run_ids)
    max_len = int(lengths[-1])
    nphis = len(qs)
    # gather state once
    mg = m[:, run_ids]
    sg = step[:, run_ids]
    gg = sign[:, run_ids]
    n0 = n_seen[run_ids]
    # concatenate runs in sorted order; per-run extremes in one reduceat pair
    total = int(lengths.sum())
    prefix = np.cumsum(lengths) - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, lengths)
    src = np.repeat(starts, lengths) + within
    v_cat = values[src]
    minv[run_ids] = np.minimum(minv[run_ids], np.minimum.reduceat(v_cat, prefix))
    maxv[run_ids] = np.maximum(maxv[run_ids], np.maximum.reduceat(v_cat, prefix))
    # round-major value matrix: X[r, lane] = lane's r-th element
    x_mat = np.empty((max_len, n_runs), dtype=np.float64)
    x_mat.reshape(-1)[within * n_runs + np.repeat(np.arange(n_runs), lengths)] = v_cat
    # first-element initialisation: lanes with no history adopt their
    # first value as the starting estimate (and skip that update)
    fresh = n0 == 0
    if fresh.any():
        mg[:, fresh] = x_mat[0, fresh]
    adjusted = 0
    lo = 0
    for r in range(max_len):
        # runs are sorted by length: drop exhausted lanes from the front
        while lengths[lo] <= r:
            lo += 1
        x = x_mat[r, lo:]
        idx = n0[lo:] + r
        allow = (idx != 0) if r == 0 else None
        for p in range(nphis):
            rand = splitmix64_u01(int(bases[p]), idx)
            cur_m, cur_s, cur_g, adj = _frugal2u_apply(
                float(qs[p]), mg[p, lo:], sg[p, lo:], gg[p, lo:], x, rand, allow
            )
            mg[p, lo:] = cur_m
            sg[p, lo:] = cur_s
            gg[p, lo:] = cur_g
            adjusted += adj
    # scatter state back (run ids are distinct within one call)
    m[:, run_ids] = mg
    step[:, run_ids] = sg
    sign[:, run_ids] = gg
    n_seen[run_ids] = n0 + lengths
    return adjusted


def frugal2u_update(
    qs: np.ndarray,
    m: np.ndarray,
    step: np.ndarray,
    sign: np.ndarray,
    n_seen: np.ndarray,
    minv: np.ndarray,
    maxv: np.ndarray,
    values: np.ndarray,
    run_ids: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    bases: np.ndarray,
) -> int:
    """Apply one partitioned chunk of Frugal-2U updates to bank state.

    ``values[starts[j]:stops[j]]`` is the (arrival-order) run destined for
    sketch ``run_ids[j]``; run ids must be distinct within one call.  The
    per-element randomness is a pure function of ``(bases[p], element
    index within the sketch)``, so the result is bit-identical no matter
    how the stream was batched or partitioned -- the crash-recovery and
    bank-vs-direct property tests rest on this.  Returns the number of
    step adjustments applied (0 when obs is disabled).  With the kernels
    disabled the scalar reference runs; it produces bit-identical state.
    """
    n_runs = len(run_ids)
    if n_runs == 0 or len(values) == 0:
        return 0
    use_rounds = _enabled and n_runs >= _FRUGAL_ROUNDS_MIN_RUNS
    if _obs.ENABLED:
        _obs.on_kernel("frugal2u", "rounds" if use_rounds else "scalar")
    if use_rounds:
        return _frugal2u_rounds(
            qs, m, step, sign, n_seen, minv, maxv,
            values, run_ids, starts, stops, bases,
        )
    return frugal2u_update_scalar(
        qs, m, step, sign, n_seen, minv, maxv,
        values, run_ids, starts, stops, bases,
    )
