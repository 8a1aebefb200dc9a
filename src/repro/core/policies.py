"""Buffer-collapsing policies (Section 3.4 of the paper).

A policy decides *when* to COLLAPSE and *which* full buffers to feed it;
everything else (NEW, OUTPUT, the merge mechanics) is shared framework
machinery.  The paper presents three policies, all reproduced here:

* :class:`MunroPatersonPolicy` -- NEW while an empty buffer exists,
  otherwise collapse two buffers of equal weight;
* :class:`AlsabtiRankaSinghPolicy` -- fill ``b/2`` buffers, collapse them
  all at once, repeat ``b/2`` times;
* :class:`NewPolicy` -- the paper's contribution: level-tagged buffers,
  always collapsing the full buffers at the lowest level.

The driver (:class:`repro.core.framework.QuantileFramework`) interrogates a
policy through three hooks:

``level_for_new(full, b)``
    which level to stamp on the buffer about to be filled;
``pre_new_collapse(full, b)``
    a group of buffers that must be collapsed *before* another buffer can
    be placed (``None`` when placement can proceed);
``post_new_collapse(full, b)``
    a group to collapse *after* a placement (used by Alsabti-Ranka-Singh,
    whose rounds collapse eagerly even while empty buffers remain).

Each policy is also responsible for remaining well-defined on inputs the
original description did not anticipate (e.g. Munro-Paterson with no
equal-weight pair available, which arises whenever ``N`` is not exactly
``k * 2^(b-1)``); the fallbacks are documented on each class.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .buffer import Buffer
from .errors import ConfigurationError

__all__ = [
    "CollapsePolicy",
    "MunroPatersonPolicy",
    "AlsabtiRankaSinghPolicy",
    "NewPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class CollapsePolicy:
    """Base class for collapse policies.  Subclasses override the hooks.

    A policy is a pure function of the buffer set it is shown and holds
    no per-stream state, so one instance serves every framework:
    :func:`make_policy` hands out a shared one per policy.
    """

    __slots__ = ()

    #: short identifier used by :func:`make_policy` and the benchmarks
    name: str = "abstract"

    def level_for_new(self, full: Sequence[Buffer], b: int) -> int:
        """Level to assign to the next NEW buffer (default: 0)."""
        return 0

    def pre_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        """Buffers to collapse before another NEW can happen, or ``None``."""
        raise NotImplementedError

    def post_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        """Buffers to collapse right after a NEW, or ``None`` (default)."""
        return None


class MunroPatersonPolicy(CollapsePolicy):
    """Munro & Paterson (1980), as framed by Section 3.4.

    *"If there is an empty buffer, invoke NEW; otherwise, invoke COLLAPSE
    on two buffers having the same weight."*

    The original analysis assumes exactly ``2^(b-1)`` leaves, which makes an
    equal-weight pair always available when memory is exhausted.  For
    arbitrary stream lengths a state with all-distinct weights can occur
    (e.g. full buffers of weights ``{4, 2, 1}`` with ``b = 3``); we then
    collapse the two lightest buffers, which keeps the algorithm total while
    preserving the spirit of pairing the cheapest merges first.
    """

    __slots__ = ()
    name = "munro-paterson"

    def pre_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        if len(full) < b:
            return None
        by_weight: dict[int, List[Buffer]] = {}
        for buf in full:
            by_weight.setdefault(buf.weight, []).append(buf)
        equal_pairs = [w for w, bufs in by_weight.items() if len(bufs) >= 2]
        if equal_pairs:
            lightest = min(equal_pairs)
            return by_weight[lightest][:2]
        ordered = sorted(full, key=lambda buf: buf.weight)
        return ordered[:2]


class AlsabtiRankaSinghPolicy(CollapsePolicy):
    """Alsabti, Ranka & Singh (VLDB 1997), as framed by Section 3.4.

    *"Fill b/2 empty buffers by invoking NEW and then invoke COLLAPSE on
    them.  Repeat this b/2 times and invoke OUTPUT on the resulting
    buffers."*

    Weight-1 buffers are the current round's leaves; as soon as ``b/2`` of
    them exist they are collapsed into a round output of weight ``b/2``.
    A stream longer than the design capacity ``k * b^2 / 4`` is tolerated:
    once every slot holds a round output, further round outputs are merged
    pairwise (lightest first), which degrades accuracy but never deadlocks.
    """

    __slots__ = ()
    name = "alsabti-ranka-singh"

    @staticmethod
    def _leaves(full: Sequence[Buffer]) -> List[Buffer]:
        return [buf for buf in full if buf.weight == 1]

    @staticmethod
    def _tail_leaves(full: Sequence[Buffer], stop: int) -> int:
        """Count trailing weight-1 buffers, giving up past *stop*.

        The framework appends both NEW leaves and collapse outputs at the
        end of the buffer list, so the current round's leaves always form a
        contiguous tail; counting backwards with an early exit replaces a
        full O(b) scan on every NEW (the ARS hot-path bottleneck).
        """
        count = 0
        for buf in reversed(full):
            if buf.weight != 1:
                break
            count += 1
            if count > stop:
                break
        return count

    def pre_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        if len(full) < b:
            return None
        leaves = self._leaves(full)
        if len(leaves) >= 2:
            return leaves
        ordered = sorted(full, key=lambda buf: buf.weight)
        return ordered[:2]

    def post_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        if b < 4:
            # Degenerate configuration: rounds of one leaf make no sense;
            # behave like Munro-Paterson's forced merge when out of space.
            return None
        round_size = b // 2
        if self._tail_leaves(full, round_size) == round_size:
            return list(full[-round_size:])
        return None


class NewPolicy(CollapsePolicy):
    """The paper's new level-based collapsing policy (Section 3.4).

    *"Let l be the smallest among the levels of currently full buffers.
    If there is exactly one empty buffer, invoke NEW and assign it level l.
    If there are at least two empty buffers, invoke NEW on each and assign
    level 0 to each one.  If there are no empty buffers, invoke COLLAPSE on
    the set of buffers with level l.  Assign the output buffer level l+1."*
    """

    __slots__ = ()
    name = "new"

    def level_for_new(self, full: Sequence[Buffer], b: int) -> int:
        n_empty = b - len(full)
        if n_empty >= 2 or not full:
            return 0
        return min(buf.level for buf in full)

    def pre_new_collapse(
        self, full: Sequence[Buffer], b: int
    ) -> Optional[List[Buffer]]:
        if len(full) < b:
            return None
        lowest = min(buf.level for buf in full)
        group = [buf for buf in full if buf.level == lowest]
        if len(group) >= 2:
            return group
        # A single buffer at the lowest level cannot be collapsed alone;
        # widen the group to the two lowest levels.  This only happens on
        # undersized configurations (b chosen too small for the stream).
        ordered = sorted(full, key=lambda buf: (buf.level, buf.weight))
        return ordered[:2]


POLICY_NAMES = ("new", "munro-paterson", "alsabti-ranka-singh")

_NEW = NewPolicy()
_MP = MunroPatersonPolicy()
_ARS = AlsabtiRankaSinghPolicy()
_POLICIES = {
    "new": _NEW,
    "munro-paterson": _MP,
    "mp": _MP,
    "alsabti-ranka-singh": _ARS,
    "ars": _ARS,
}


def make_policy(name_or_policy: "str | CollapsePolicy") -> CollapsePolicy:
    """Resolve a policy instance from a name (or pass an instance through).

    Accepted names: ``"new"``, ``"munro-paterson"`` (alias ``"mp"``) and
    ``"alsabti-ranka-singh"`` (alias ``"ars"``).  A name resolves to the
    one shared instance of its policy (policies are stateless).
    """
    if isinstance(name_or_policy, CollapsePolicy):
        return name_or_policy
    key = str(name_or_policy).lower().strip()
    if key not in _POLICIES:
        raise ConfigurationError(
            f"unknown collapse policy {name_or_policy!r}; "
            f"expected one of {sorted(set(_POLICIES))}"
        )
    return _POLICIES[key]
