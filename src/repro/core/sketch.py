"""High-level public API: :class:`QuantileSketch`.

This is the interface most users want: say how accurate the answer must be
(``epsilon``), how much data is coming (``n``), optionally accept a
probabilistic guarantee (``delta``) to unlock sampling, and let the library
choose the cheapest configuration (Sections 4.5 and 5.2 of the paper).

    >>> sk = QuantileSketch(epsilon=0.01, n=1_000_000)
    >>> sk.extend(values)                      # any number of chunks
    >>> sk.median()
    >>> sk.quantiles([0.25, 0.5, 0.75])        # no extra cost (Section 4.7)
    >>> sk.error_bound_fraction()              # certified rank error / n

Sketches over the same configuration can be :meth:`merge`-d, which is the
building block of the distributed mode (Section 4.9).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .framework import QuantileFramework
from .parameters import ParameterPlan, optimal_parameters
from .sampling import SampledQuantileFramework, SamplingPlan, choose_strategy

__all__ = ["QuantileSketch", "approximate_quantiles"]

#: Default design capacity when the caller does not know ``n`` in advance.
#: The SIGMOD'98 algorithm needs N to size its buffers; sizing for 2^30
#: costs little extra memory (the dependence is log^2 N) and the
#: a-posteriori bound stays exact regardless.
DEFAULT_DESIGN_N = 2**30


class QuantileSketch:
    """One-pass, bounded-memory, guaranteed-accuracy quantile summary.

    Parameters
    ----------
    epsilon:
        Approximation guarantee: every answered ``phi``-quantile has rank
        within ``epsilon * n`` of the true ``phi``-quantile.
    n:
        Expected dataset size.  When omitted, the sketch is sized for
        ``DEFAULT_DESIGN_N`` elements (the guarantee then reads "epsilon
        with respect to 2^30"); feeding more than the design size keeps
        working with a gracefully degrading, still-certified bound.
    delta:
        When given, the guarantee may become probabilistic (confidence
        ``1 - delta``) in exchange for memory independent of ``n``; the
        sketch picks sampling only when it is actually cheaper
        (Section 5.2).
    policy:
        Collapse policy (default the paper's new algorithm).
    n_quantiles:
        How many quantiles will be asked simultaneously under the
        *probabilistic* guarantee (Section 5.3 union bound).  Irrelevant
        for the deterministic path, which answers any number for free.
    seed:
        Random seed for the sampling path (ignored otherwise).
    eps:
        Keyword alias for *epsilon* (the facade spelling); give exactly
        one of the two.
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        n: Optional[int] = None,
        *,
        delta: Optional[float] = None,
        policy: str = "new",
        offset_mode: str = "alternate",
        n_quantiles: int = 1,
        seed: Optional[int] = None,
        record_tree: bool = False,
        eps: Optional[float] = None,
    ) -> None:
        if (epsilon is None) == (eps is None):
            raise ConfigurationError(
                "give exactly one of epsilon (positional) or eps= (keyword)"
            )
        if epsilon is None:
            epsilon = eps
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        design_n = DEFAULT_DESIGN_N if n is None else int(n)
        if design_n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.epsilon = epsilon
        self.delta = delta
        self.design_n = design_n
        plan = choose_strategy(
            epsilon, design_n, delta, policy=policy, n_quantiles=n_quantiles
        )
        self.plan: "ParameterPlan | SamplingPlan" = plan
        if isinstance(plan, SamplingPlan):
            self._impl: Any = SampledQuantileFramework(
                epsilon,
                design_n,
                delta if delta is not None else 0.0001,
                n_quantiles=n_quantiles,
                policy=policy,
                seed=seed,
                plan=plan,
            )
            self.uses_sampling = True
        else:
            self._impl = QuantileFramework(
                plan.b,
                plan.k,
                policy=policy,
                offset_mode=offset_mode,
                designed_n=design_n,
                record_tree=record_tree,
            )
            self.uses_sampling = False

    # -- ingest ------------------------------------------------------------

    def update(self, value: Any) -> None:
        """Add one element."""
        self._impl.update(value)

    def extend(self, data: "np.ndarray | Sequence[Any]") -> None:
        """Add many elements (numpy arrays take the vectorised path)."""
        self._impl.extend(data)

    # -- queries -----------------------------------------------------------

    def query(self, phi: float) -> Any:
        """The approximate ``phi``-quantile of everything added so far."""
        return self._impl.query(phi)

    def quantile(self, phi: float) -> Any:
        """The approximate ``phi``-quantile (uniform query-surface alias)."""
        return self._impl.query(phi)

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        """Many quantiles from the same summary (Section 4.7)."""
        return self._impl.quantiles(phis)

    def describe(self) -> dict:
        """Summary dict: n, extremes, key quantiles, certified bound."""
        from .protocols import describe_dict

        return describe_dict(self)

    def median(self) -> Any:
        """The approximate median (``phi = 0.5``)."""
        return self.query(0.5)

    def rank(self, value: Any) -> int:
        """Approximate number of elements ``<=`` *value* (inverse query).

        On the sampling path the sample rank is rescaled to the
        population, inheriting the probabilistic guarantee.
        """
        if self.uses_sampling:
            inner = self._impl.inner
            sample_rank = inner.rank(value)
            if inner.n == 0:
                return 0
            return round(sample_rank / inner.n * self._impl.n_seen)
        return self._impl.rank(value)

    def cdf(self, value: Any) -> Any:
        """Approximate fraction of elements ``<=`` *value*.

        Accepts a scalar (returns one float) or a sequence of values
        (returns a list of floats).
        """
        if isinstance(value, (list, tuple, np.ndarray)):
            n = len(self)
            return [self.rank(v) / n if n else 0.0 for v in value]
        n = len(self)
        return self.rank(value) / n if n else 0.0

    def min(self) -> Any:
        """The exact minimum (deterministic path) or sample minimum."""
        inner = self._impl.inner if self.uses_sampling else self._impl
        return inner.min()

    def max(self) -> Any:
        """The exact maximum (deterministic path) or sample maximum."""
        inner = self._impl.inner if self.uses_sampling else self._impl
        return inner.max()

    def equidepth_boundaries(self, p: int) -> List[Any]:
        """The ``i/p``-quantiles, ``i = 1 .. p-1`` -- equi-depth histogram
        bucket boundaries (Section 1.1)."""
        if p < 2:
            raise ConfigurationError(f"need at least 2 buckets, got {p}")
        return self.quantiles([i / p for i in range(1, p)])

    # -- guarantees ----------------------------------------------------------

    def error_bound(self) -> float:
        """Certified rank-error bound (elements) for answers issued now."""
        return self._impl.error_bound()

    def error_bound_fraction(self) -> float:
        """Certified rank-error bound as a fraction of elements seen."""
        n = len(self)
        return self.error_bound() / n if n else 0.0

    # -- merging (distributed building block) ---------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Absorb *other* into this sketch (both must be deterministic and
        share ``(b, k)``); returns ``self``.

        The merged sketch summarises the concatenation of both inputs.  The
        combined collapse forest satisfies Lemma 5's requirements, so
        :meth:`error_bound` remains certified after merging.
        """
        if self.uses_sampling or other.uses_sampling:
            raise ConfigurationError(
                "merging sampling sketches is not supported: sample rates "
                "are tied to each sketch's own population size"
            )
        self._impl.absorb(other._impl)
        return self

    # -- dunder ----------------------------------------------------------------

    def __len__(self) -> int:
        if self.uses_sampling:
            return self._impl.n_seen
        return self._impl.n

    @property
    def n(self) -> int:
        """Genuine elements ingested so far (uniform query surface)."""
        return len(self)

    @property
    def memory_elements(self) -> int:
        """The ``b * k`` element footprint."""
        return self._impl.memory_elements

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "sampling" if self.uses_sampling else "direct"
        return (
            f"QuantileSketch(eps={self.epsilon}, n={self.design_n}, "
            f"mode={mode}, memory={self.memory_elements})"
        )


def approximate_quantiles(
    data: "np.ndarray | Sequence[Any]",
    phis: Sequence[float],
    epsilon: float,
    *,
    policy: str = "new",
) -> List[Any]:
    """One-shot convenience: ``epsilon``-approximate quantiles of *data*.

    Sizes the summary exactly for ``len(data)`` and answers all *phis* in a
    single pass with ``b * k`` memory -- the library's "hello world".
    """
    arr = data if isinstance(data, np.ndarray) else list(data)
    n = len(arr)
    if n == 0:
        raise ConfigurationError("data must be non-empty")
    plan = optimal_parameters(epsilon, n, policy=policy)
    fw = QuantileFramework(plan.b, plan.k, policy=policy, designed_n=n)
    fw.extend(arr)
    return fw.quantiles(list(phis))
