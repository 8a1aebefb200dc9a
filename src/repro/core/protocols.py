"""The uniform query surface every sketch-like object implements.

:class:`SketchProtocol` is the structural contract -- any object with the
``quantile(phi)`` / ``quantiles(phis)`` / ``cdf(values)`` / ``describe()``
quartet plus ``n`` and ``error_bound()`` satisfies it (checked with
``isinstance`` thanks to ``runtime_checkable``).  The conformance test in
``tests/test_protocol_conformance.py`` parametrizes over every concrete
implementation in the package.

:func:`describe_dict` is the shared ``describe()`` body: one OUTPUT pass
answering the stream extremes (exact where the implementation tracks
them) and a fixed set of interior quantiles, plus the certified
a-posteriori rank bound in absolute and fractional form.

:data:`ENGINE_IDS` is the one table of sketch engines and their ``u8``
wire ids, shared by every format that records an engine: the service
frames, journal and snapshot, and the window ring format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Protocol, Sequence, runtime_checkable

__all__ = [
    "SketchProtocol",
    "ClientProtocol",
    "DESCRIBE_PHIS",
    "ENGINE_IDS",
    "ENGINE_BY_ID",
    "describe_dict",
]

#: interior quantile fractions reported by ``describe()``
DESCRIBE_PHIS = (0.25, 0.5, 0.75, 0.9, 0.99)

#: sketch engine name -> u8 wire id, and back
ENGINE_IDS = {"paper": 0, "kll": 1, "frugal": 2}
ENGINE_BY_ID = {v: k for k, v in ENGINE_IDS.items()}


@runtime_checkable
class SketchProtocol(Protocol):
    """Structural type of the uniform sketch query surface."""

    @property
    def n(self) -> int:
        """Genuine elements ingested so far."""
        ...

    def quantile(self, phi: float) -> Any:
        """Approximate ``phi``-quantile."""
        ...

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        """Approximate quantiles for every fraction in *phis*."""
        ...

    def cdf(self, value: Any) -> Any:
        """Approximate CDF at a scalar (float) or sequence (list of floats)."""
        ...

    def describe(self) -> Dict[str, Any]:
        """Summary dict: n, extremes, key quantiles, certified bound."""
        ...

    def error_bound(self) -> float:
        """Certified a-posteriori rank-error bound (Lemma 5 family)."""
        ...


@runtime_checkable
class ClientProtocol(Protocol):
    """Structural type of a quantile-service client.

    Both :class:`repro.service.client.QuantileClient` (one node) and
    :class:`repro.cluster.client.ClusterClient` (replicated fan-in)
    satisfy it, which is what lets :func:`repro.connect` return either
    behind one surface.  ``create`` accepts the same ``window=`` /
    ``slide=`` / ``decay=`` kwargs as the local facade.
    """

    def create(self, name: str, **kwargs: Any) -> Any:
        """Declare a metric (idempotent for an identical config)."""
        ...

    def ingest(self, name: str, values: Any) -> Any:
        """Feed a batch of float64 values into *name*."""
        ...

    def quantile(self, name: str, phi: float) -> Any:
        """Approximate ``phi``-quantile of *name*."""
        ...

    def quantiles(self, name: str, phis: Sequence[float]) -> List[Any]:
        """Approximate quantiles of *name* for every fraction."""
        ...

    def cdf(self, name: str, value: Any) -> Any:
        """Approximate CDF of *name* at a scalar or sequence."""
        ...

    def describe(self, name: str) -> Dict[str, Any]:
        """Summary dict for *name*."""
        ...

    def list_metrics(self) -> Any:
        """Names of the declared metrics."""
        ...

    def close(self) -> None:
        """Release the connection(s)."""
        ...


def describe_dict(sketch: Any) -> Dict[str, Any]:
    """The shared ``describe()`` body used by every implementation.

    One ``quantiles`` call answers the extremes and all interior
    fractions together (Section 4.7: extra quantiles are free), so
    ``describe`` costs a single OUTPUT pass.
    """
    n = int(sketch.n)
    phis = [0.0, *DESCRIBE_PHIS, 1.0]
    values = sketch.quantiles(phis)
    bound = float(sketch.error_bound())
    return {
        "n": n,
        "min": values[0],
        "max": values[-1],
        "quantiles": {
            phi: values[i + 1] for i, phi in enumerate(DESCRIBE_PHIS)
        },
        "error_bound": bound,
        "error_bound_fraction": (bound / n) if n else 0.0,
    }
