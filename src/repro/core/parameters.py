"""Closed-form tree statistics and optimal ``(b, k)`` selection.

Sections 4.3-4.5 of the paper derive, for each collapsing policy, the tree
quantities ``L`` (leaves), ``C`` (collapses), ``W`` (sum of collapse
weights) and ``w_max`` (heaviest child of the root) as functions of the
buffer count ``b`` (and, for the new policy, the tree height ``h``).
Plugging them into Lemma 5 turns the approximation requirement into an
arithmetic constraint, and minimising ``b * k`` under

* ``(W - C - 1)/2 + w_max <= epsilon * N``   (accuracy), and
* ``k * L >= N``                              (coverage)

yields the numbers of Table 1.  This module implements those closed forms
and optimisers exactly as the paper prescribes:

* Munro-Paterson: largest ``b`` with ``(b-2) * 2^(b-2) <= eps*N``, then the
  smallest ``k`` with ``k * 2^(b-1) >= N`` (Section 4.3);
* Alsabti-Ranka-Singh: largest even ``b`` with
  ``b^2/8 + b/4 - 1/2 <= eps*N``, then ``k = ceil(4N / b^2)`` (Section 4.4);
* New algorithm: try every ``b`` in a small range, take the largest
  feasible height ``h`` and the smallest covering ``k``, keep the ``(b, k)``
  minimising ``b * k`` (Section 4.5).

Every optimiser also considers the trivial *no-collapse* fallback
``(b=2, k=ceil(N/2))`` -- two buffers cover the whole input with zero
collapses, so any ``(epsilon, N)`` is feasible, however tiny ``epsilon * N``
may be.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .errors import ConfigurationError

__all__ = [
    "ClosedFormStats",
    "ParameterPlan",
    "munro_paterson_stats",
    "alsabti_ranka_singh_stats",
    "new_algorithm_stats",
    "optimal_parameters",
    "best_over_policies",
    "NEW_POLICY_MAX_B",
]

#: Section 4.5: "optimal values for b and k can be computed by trying out
#: different values of b in the range 1 and 30".  We scan a little further
#: for safety at extreme ``epsilon * N``.
NEW_POLICY_MAX_B = 40

_MAX_HEIGHT = 64  # the accuracy constraint explodes well before this

#: plans remembered by :func:`optimal_parameters`.  A plan is a pure
#: function of ``(epsilon, N, policy)``, and a server creating thousands
#: of metrics uses a handful of configurations, so each is planned once.
PLAN_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ClosedFormStats:
    """Worst-case tree quantities for a policy configuration."""

    n_leaves: int  #: L
    n_collapses: int  #: C
    sum_collapse_weights: int  #: W
    w_max: int  #: weight of the heaviest child of the root

    @property
    def error_bound(self) -> float:
        """Lemma 5: worst-case rank error ``(W - C - 1)/2 + w_max``."""
        if self.n_collapses == 0:
            return 0.5
        return (
            self.sum_collapse_weights - self.n_collapses - 1
        ) / 2.0 + self.w_max


@dataclass(frozen=True)
class ParameterPlan:
    """A fully specified configuration for a target ``(epsilon, N)``."""

    policy: str
    epsilon: float
    n: int
    b: int
    k: int
    height: Optional[int] = None  # only meaningful for the new policy
    error_bound: float = 0.0  # guaranteed worst-case rank error (elements)

    @property
    def memory(self) -> int:
        """Total element footprint ``b * k``."""
        return self.b * self.k

    def __str__(self) -> str:
        h = f", h={self.height}" if self.height is not None else ""
        return (
            f"{self.policy}: b={self.b}, k={self.k}{h}, "
            f"bk={self.memory} (eps={self.epsilon}, N={self.n})"
        )


def _validate(epsilon: float, n: int) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if n < 1:
        raise ConfigurationError(f"dataset size N must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# Closed-form tree statistics (the symbols of Figure 5, per policy)
# ---------------------------------------------------------------------------


def munro_paterson_stats(b: int) -> ClosedFormStats:
    """Section 4.3: the Munro-Paterson tree with ``2^(b-1)`` leaves."""
    if b < 2:
        raise ConfigurationError(f"Munro-Paterson needs b >= 2, got {b}")
    leaves = 2 ** (b - 1)
    n_collapses = leaves - 2
    sum_weights = (b - 2) * leaves
    w_max = 2 ** (b - 2)
    return ClosedFormStats(leaves, n_collapses, sum_weights, w_max)


def alsabti_ranka_singh_stats(b: int) -> ClosedFormStats:
    """Section 4.4: the two-level Alsabti-Ranka-Singh tree (``b`` even)."""
    if b < 2 or b % 2:
        raise ConfigurationError(f"Alsabti-Ranka-Singh needs even b >= 2, got {b}")
    half = b // 2
    leaves = half * half
    n_collapses = half
    sum_weights = half * half
    w_max = half
    return ClosedFormStats(leaves, n_collapses, sum_weights, w_max)


def new_algorithm_stats(b: int, h: int) -> ClosedFormStats:
    """Section 4.5: the new policy's tree of height ``h >= 3``.

    ``L = C(b+h-2, h-1)``, ``C = C(b+h-3, h-2) - 1``,
    ``W = (h-2) * C(b+h-2, h-1) - C(b+h-3, h-3)`` and
    ``w_max = C(b+h-3, h-2)``.
    """
    if b < 2:
        raise ConfigurationError(f"the new policy needs b >= 2, got {b}")
    if h < 3:
        raise ConfigurationError(f"closed forms require height h >= 3, got {h}")
    leaves = math.comb(b + h - 2, h - 1)
    n_collapses = math.comb(b + h - 3, h - 2) - 1
    sum_weights = (h - 2) * leaves - math.comb(b + h - 3, h - 3)
    w_max = math.comb(b + h - 3, h - 2)
    return ClosedFormStats(leaves, n_collapses, sum_weights, w_max)


# ---------------------------------------------------------------------------
# Optimisers (minimise b*k subject to accuracy + coverage)
# ---------------------------------------------------------------------------


def _no_collapse_plan(policy: str, epsilon: float, n: int) -> ParameterPlan:
    """The universal fallback: two buffers, no collapse, exact answers."""
    return ParameterPlan(
        policy=policy,
        epsilon=epsilon,
        n=n,
        b=2,
        k=max(1, (n + 1) // 2),
        height=None,
        error_bound=0.5,
    )


def _optimal_munro_paterson(epsilon: float, n: int) -> ParameterPlan:
    budget = epsilon * n
    best_b = None
    for b in range(3, 80):
        if (b - 2) * 2 ** (b - 2) + 0.5 <= budget:
            best_b = b
        else:
            break
    fallback = _no_collapse_plan("munro-paterson", epsilon, n)
    if best_b is None:
        return fallback
    k = max(1, math.ceil(n / 2 ** (best_b - 1)))
    stats = munro_paterson_stats(best_b)
    plan = ParameterPlan(
        policy="munro-paterson",
        epsilon=epsilon,
        n=n,
        b=best_b,
        k=k,
        error_bound=stats.error_bound,
    )
    return plan if plan.memory <= fallback.memory else fallback


def _optimal_alsabti_ranka_singh(epsilon: float, n: int) -> ParameterPlan:
    budget = epsilon * n
    # b^2/8 + b/4 - 1/2 <= budget  =>  b <= -1 + sqrt(1 + 8*(2*budget + 1)) / ...
    # solve directly by scanning downwards from the real root.
    b_real = (-1 + math.sqrt(1 + 8 * (2 * budget + 1))) * 1.0
    b = int(b_real) + 2
    b -= b % 2  # even
    while b >= 2 and b * b / 8.0 + b / 4.0 - 0.5 > budget:
        b -= 2
    fallback = _no_collapse_plan("alsabti-ranka-singh", epsilon, n)
    if b < 2:
        return fallback
    k = max(1, math.ceil(4 * n / (b * b)))
    stats = alsabti_ranka_singh_stats(b)
    plan = ParameterPlan(
        policy="alsabti-ranka-singh",
        epsilon=epsilon,
        n=n,
        b=b,
        k=k,
        error_bound=stats.error_bound,
    )
    return plan if plan.memory <= fallback.memory else fallback


def _optimal_new(epsilon: float, n: int) -> ParameterPlan:
    budget = 2.0 * epsilon * n
    best: Optional[ParameterPlan] = None
    for b in range(2, NEW_POLICY_MAX_B + 1):
        feasible_h = None
        for h in range(3, _MAX_HEIGHT):
            # Section 4.5's first constraint, equivalent to
            # (W - C - 1)/2 + w_max <= eps*N:
            #   (h-2)C(b+h-2,h-1) - C(b+h-3,h-3) + C(b+h-3,h-2) <= 2*eps*N
            paper_lhs = (
                (h - 2) * math.comb(b + h - 2, h - 1)
                - math.comb(b + h - 3, h - 3)
                + math.comb(b + h - 3, h - 2)
            )
            if paper_lhs <= budget:
                feasible_h = h
            else:
                break
        if feasible_h is None:
            continue
        stats = new_algorithm_stats(b, feasible_h)
        k = max(1, math.ceil(n / stats.n_leaves))
        plan = ParameterPlan(
            policy="new",
            epsilon=epsilon,
            n=n,
            b=b,
            k=k,
            height=feasible_h,
            error_bound=stats.error_bound,
        )
        if best is None or plan.memory < best.memory:
            best = plan
    fallback = _no_collapse_plan("new", epsilon, n)
    if best is None or fallback.memory < best.memory:
        return fallback
    return best


_OPTIMISERS = {
    "new": _optimal_new,
    "munro-paterson": _optimal_munro_paterson,
    "mp": _optimal_munro_paterson,
    "alsabti-ranka-singh": _optimal_alsabti_ranka_singh,
    "ars": _optimal_alsabti_ranka_singh,
}

_CANONICAL_POLICY = {"mp": "munro-paterson", "ars": "alsabti-ranka-singh"}


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def _cached_plan(epsilon: float, n: int, policy: str) -> ParameterPlan:
    # typed: an np.float64 epsilon gets its own entry, so every caller
    # receives exactly the plan the optimiser builds from its arguments
    return _OPTIMISERS[policy](epsilon, n)


def optimal_parameters(
    epsilon: float, n: int, *, policy: str = "new"
) -> ParameterPlan:
    """Minimise ``b * k`` for an ``epsilon``-approximate summary of ``n`` items.

    Reproduces the per-policy procedures of Sections 4.3-4.5 (and therefore
    the ``b``/``k``/``bk`` entries of Table 1).  Plans are memoized on
    ``(epsilon, n, policy)`` with aliases folded, so repeated calls return
    the same frozen :class:`ParameterPlan`; invalid inputs raise every time.
    """
    _validate(epsilon, n)
    key = policy.lower().strip()
    if key not in _OPTIMISERS:
        raise ConfigurationError(
            f"unknown policy {policy!r}; expected one of "
            f"{sorted(set(_OPTIMISERS))}"
        )
    return _cached_plan(epsilon, n, _CANONICAL_POLICY.get(key, key))


def best_over_policies(
    epsilon: float, n: int, policies: Iterable[str] = ("new", "mp", "ars")
) -> ParameterPlan:
    """The cheapest plan across *policies* (the new policy always wins)."""
    plans = [optimal_parameters(epsilon, n, policy=p) for p in policies]
    return min(plans, key=lambda p: p.memory)


def parameter_table(
    epsilons: Iterable[float],
    ns: Iterable[int],
    *,
    policy: str = "new",
) -> Dict[Tuple[float, int], ParameterPlan]:
    """Compute a Table-1-style grid of plans keyed by ``(epsilon, N)``."""
    return {
        (eps, n): optimal_parameters(eps, n, policy=policy)
        for eps in epsilons
        for n in ns
    }
