"""Sampling in front of the deterministic algorithm (Section 5).

For very large ``N`` the paper couples the deterministic framework with
random sampling: split the error budget ``eps = eps1 + eps2``, draw a
sample big enough (Lemma 7, via Hoeffding's inequality) that sample ranks
within ``eps1`` translate to population ranks within ``eps``, then run the
deterministic algorithm on the sample with accuracy ``eps1``.  The sample
size -- and therefore the memory -- is *independent of N*; the price is a
probabilistic guarantee (confidence ``1 - delta``).

This module provides:

* :func:`hoeffding_sample_size` -- Lemma 7 (with the Section 5.3 union
  bound for ``p`` simultaneous quantiles);
* :func:`optimize_alpha` -- the Section 5.1 grid search over
  ``alpha = eps1/eps`` in ``[0.2, 0.8]`` (step 0.001) minimising total
  memory; reproduces the structure of Table 2;
* :func:`sampling_threshold` -- the Section 5.2 cross-over: the dataset
  size above which sampling beats the direct algorithm (Figure 8);
* :class:`SampledQuantileFramework` -- the runnable combination, using
  online Bernoulli sampling so no per-index state is kept.

Reproduction note (documented in EXPERIMENTS.md): the sample sizes printed
in the paper's Table 2 are consistent with ``S = ln(2/delta) / (2 eps^2)``
-- the *full* error budget in the exponent -- rather than the
``eps2 = (1-alpha) eps`` that Lemma 7 as stated requires.  We default to
the faithful Lemma 7 sizing and expose the table's convention as
``rule="table2"`` so both columns can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EmptySummaryError
from .framework import QuantileFramework
from .parameters import ParameterPlan, optimal_parameters

__all__ = [
    "hoeffding_sample_size",
    "SamplingPlan",
    "optimize_alpha",
    "sampling_threshold",
    "choose_strategy",
    "SampledQuantileFramework",
]


def hoeffding_sample_size(
    eps2: float,
    delta: float,
    *,
    n_quantiles: int = 1,
    rule: str = "lemma7",
    epsilon: Optional[float] = None,
) -> int:
    """Sample size guaranteeing rank transfer from sample to population.

    Lemma 7: ``S >= log(2/delta) / (2 eps2^2)`` samples ensure, with
    probability at least ``1 - delta``, that elements within ``eps1`` of a
    quantile in the sample are within ``eps = eps1 + eps2`` of it in the
    population.  For ``p`` simultaneous quantiles Section 5.3 replaces
    ``delta`` by ``delta / p`` (union bound).

    ``rule="table2"`` reproduces the paper's printed Table 2 instead,
    which sizes the sample with the *full* budget ``epsilon`` (see module
    docstring); it requires the ``epsilon`` argument.
    """
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if n_quantiles < 1:
        raise ConfigurationError("n_quantiles must be >= 1")
    if rule == "lemma7":
        if not 0 < eps2 < 1:
            raise ConfigurationError(f"eps2 must be in (0, 1), got {eps2}")
        width = eps2
    elif rule == "table2":
        if epsilon is None or not 0 < epsilon < 1:
            raise ConfigurationError("rule='table2' needs epsilon in (0, 1)")
        width = epsilon
    else:
        raise ConfigurationError(f"unknown sampling rule {rule!r}")
    return math.ceil(
        math.log(2.0 * n_quantiles / delta) / (2.0 * width * width)
    )


@dataclass(frozen=True)
class SamplingPlan:
    """A fully specified sampling + deterministic configuration."""

    epsilon: float
    delta: float
    alpha: float  #: fraction of the budget given to the deterministic stage
    eps1: float  #: accuracy stipulated of the deterministic algorithm
    eps2: float  #: rank-transfer slack covered by the sample size
    sample_size: int  #: S
    inner: ParameterPlan  #: the deterministic (b, k) plan sized for (eps1, S)
    n_quantiles: int = 1
    rule: str = "lemma7"

    @property
    def b(self) -> int:
        return self.inner.b

    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def memory(self) -> int:
        """Total element footprint ``b * k`` (independent of N)."""
        return self.inner.memory

    def __str__(self) -> str:
        return (
            f"sampling(eps={self.epsilon}, delta={self.delta}): "
            f"alpha*eps={self.eps1:.4f}, S={self.sample_size}, "
            f"b={self.b}, k={self.k}, bk={self.memory}"
        )


def optimize_alpha(
    epsilon: float,
    delta: float,
    *,
    n_quantiles: int = 1,
    policy: str = "new",
    rule: str = "lemma7",
    alpha_grid: Optional[Sequence[float]] = None,
) -> SamplingPlan:
    """Section 5.1: grid-search ``alpha`` in ``[0.2, 0.8]`` to minimise memory.

    As ``alpha -> 1`` the sample explodes (``eps2 -> 0``); as ``alpha -> 0``
    the deterministic stage must be nearly exact.  Somewhere in between the
    total ``b * k`` is minimal; the paper scans in increments of 0.001.
    """
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if alpha_grid is None:
        alpha_grid = np.arange(0.2, 0.8 + 1e-9, 0.001)
    best: Optional[SamplingPlan] = None
    for alpha in alpha_grid:
        alpha = float(alpha)
        eps1 = alpha * epsilon
        eps2 = (1.0 - alpha) * epsilon
        sample = hoeffding_sample_size(
            eps2,
            delta,
            n_quantiles=n_quantiles,
            rule=rule,
            epsilon=epsilon,
        )
        inner = optimal_parameters(eps1, sample, policy=policy)
        plan = SamplingPlan(
            epsilon=epsilon,
            delta=delta,
            alpha=alpha,
            eps1=eps1,
            eps2=eps2,
            sample_size=sample,
            inner=inner,
            n_quantiles=n_quantiles,
            rule=rule,
        )
        if best is None or plan.memory < best.memory:
            best = plan
    assert best is not None
    return best


def sampling_threshold(
    epsilon: float,
    delta: float,
    *,
    policy: str = "new",
    n_quantiles: int = 1,
    rule: str = "lemma7",
    n_max: int = 10**15,
) -> int:
    """Section 5.2 / Figure 8: the N above which sampling uses less memory.

    Sampling memory is independent of N while the direct algorithm's grows,
    so there is a threshold dataset size at which the curves cross.  Found
    by doubling + binary search on the direct algorithm's memory.
    """
    target = optimize_alpha(
        epsilon, delta, n_quantiles=n_quantiles, policy=policy, rule=rule
    ).memory

    def direct_memory(n: int) -> int:
        return optimal_parameters(epsilon, n, policy=policy).memory

    lo = 1
    hi = 2
    while hi <= n_max and direct_memory(hi) <= target:
        lo, hi = hi, hi * 2
    if hi > n_max:
        return n_max
    # invariant: direct_memory(lo) <= target < direct_memory(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if direct_memory(mid) <= target:
            lo = mid
        else:
            hi = mid
    return hi


def choose_strategy(
    epsilon: float,
    n: int,
    delta: Optional[float] = None,
    *,
    policy: str = "new",
    n_quantiles: int = 1,
    rule: str = "lemma7",
) -> "ParameterPlan | SamplingPlan":
    """Pick direct vs sampling for ``(epsilon, N)`` as Section 5.2 advises.

    With ``delta=None`` sampling is ruled out (deterministic guarantee
    required) and the direct plan is returned.  Otherwise the cheaper of
    the two configurations wins; this reproduces the fourth sub-table of
    Table 1, where small N run the direct algorithm and large N sample.
    """
    direct = optimal_parameters(epsilon, n, policy=policy)
    if delta is None:
        return direct
    sampled = optimize_alpha(
        epsilon, delta, n_quantiles=n_quantiles, policy=policy, rule=rule
    )
    if sampled.sample_size >= n or direct.memory <= sampled.memory:
        return direct
    return sampled


class SampledQuantileFramework:
    """Bernoulli sampling feeding the deterministic framework (Section 5).

    Each arriving element is independently kept with probability
    ``S / N`` (``N`` must be known, as everywhere in the paper) and fed to
    an inner :class:`~repro.core.framework.QuantileFramework` sized for
    ``(eps1, S)``.  Every quantile answered is, with probability at least
    ``1 - delta``, an ``epsilon``-approximate quantile of the *population*.

    Bernoulli (rather than index-based) sampling keeps the memory overhead
    at O(1): no reservoir, no stored index set.  The realised sample size
    concentrates sharply around ``S``; the inner framework tolerates the
    fluctuation because its guarantee degrades continuously (and
    :meth:`error_bound` reports the certified a-posteriori bound).
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        n: int = 0,
        delta: float = 0.0001,
        *,
        n_quantiles: int = 1,
        policy: str = "new",
        rule: str = "lemma7",
        seed: Optional[int] = None,
        plan: Optional[SamplingPlan] = None,
        eps: Optional[float] = None,
    ) -> None:
        if epsilon is not None and eps is not None:
            raise ConfigurationError(
                "give exactly one of epsilon (positional) or eps= (keyword)"
            )
        if epsilon is None:
            epsilon = eps
        if epsilon is None and plan is None:
            raise ConfigurationError(
                "give exactly one of epsilon (positional) or eps= (keyword)"
            )
        if n < 1:
            raise ConfigurationError(f"population size N must be >= 1, got {n}")
        self.plan = plan or optimize_alpha(
            epsilon, delta, n_quantiles=n_quantiles, policy=policy, rule=rule
        )
        self.population_n = n
        # Oversample slightly so a realised shortfall does not eat into the
        # eps2 slack; the inner framework's bound degrades gracefully anyway.
        self.keep_probability = min(1.0, self.plan.sample_size / n)
        self._rng = np.random.default_rng(seed)
        self.inner = QuantileFramework(self.plan.b, self.plan.k, policy=policy)
        self._n_seen = 0

    @property
    def n_seen(self) -> int:
        """Population elements observed so far."""
        return self._n_seen

    @property
    def n_sampled(self) -> int:
        """Elements actually retained in the sample."""
        return self.inner.n

    @property
    def memory_elements(self) -> int:
        return self.inner.memory_elements

    def update(self, value: Any) -> None:
        """Observe one population element (kept with probability S/N)."""
        self._n_seen += 1
        if self._rng.random() < self.keep_probability:
            self.inner.update(value)

    def extend(self, data: "Iterable[Any] | np.ndarray") -> None:
        """Observe many population elements (vectorised coin flips)."""
        if not isinstance(data, (np.ndarray, list, tuple)):
            # Materialise one-shot iterables (generators, map objects, ...)
            # exactly once, as framework.extend does -- np.asarray would
            # otherwise produce a useless 0-d object array.
            data = list(data)
        arr = np.asarray(data)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d stream, got shape {arr.shape}"
            )
        self._n_seen += len(arr)
        if len(arr) == 0:
            return
        mask = self._rng.random(len(arr)) < self.keep_probability
        kept = arr[mask]
        if len(kept):
            self.inner.extend(kept)

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        """Sample quantiles -- ``epsilon``-approximate population quantiles
        with probability at least ``1 - delta``."""
        if self.inner.n == 0:
            raise EmptySummaryError(
                "the sample is empty (population too small or unlucky coins)"
            )
        return self.inner.quantiles(phis)

    def query(self, phi: float) -> Any:
        return self.quantiles([phi])[0]

    def quantile(self, phi: float) -> Any:
        """Approximate ``phi``-quantile (uniform query-surface alias)."""
        return self.quantiles([phi])[0]

    @property
    def n(self) -> int:
        """Population elements observed (uniform query surface)."""
        return self._n_seen

    def rank(self, value: Any) -> int:
        """Approximate population rank: sample rank rescaled by N/S."""
        if self.inner.n == 0:
            return 0
        return round(self.inner.rank(value) / self.inner.n * self._n_seen)

    def cdf(self, value: Any) -> Any:
        """Approximate population CDF at a scalar or sequence of values."""
        if isinstance(value, (list, tuple, np.ndarray)):
            n = self._n_seen
            return [self.rank(v) / n if n else 0.0 for v in value]
        n = self._n_seen
        return self.rank(value) / n if n else 0.0

    def describe(self) -> dict:
        """Summary dict: n, sample extremes, key quantiles, sample bound."""
        from .protocols import describe_dict

        return describe_dict(self)

    def error_bound(self) -> float:
        """Certified rank bound *within the sample* (Lemma 5 on the run)."""
        return self.inner.error_bound()
