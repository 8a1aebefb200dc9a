"""repro: a full reproduction of Manku, Rajagopalan & Lindsay (SIGMOD 1998),
"Approximate Medians and other Quantiles in One Pass and with Limited Memory".

Public facade
-------------

Four names cover the common cases, with one consistent spelling
(``eps=``, ``policy=``, ``kernels=``) everywhere::

    import repro

    sk = repro.Sketch(eps=0.01)              # unknown-N adaptive sketch
    sk = repro.Sketch(eps=0.01, n=10**6)     # fixed-N, Table 1 sizing
    bank = repro.Bank(eps=0.01, n_sketches=8)  # many summaries, one scan
    client = repro.connect("localhost")      # the sharded service
    edges = repro.hist(values, bins=10)      # equi-depth boundaries

    win = repro.Sketch(eps=0.01, window="5m", slide="1m")  # last 5 min
    dec = repro.Sketch(eps=0.01, decay="1h")   # exponential half-life
    cc = repro.connect(cluster="./cluster")    # multi-node routing

Every sketch-like object answers the same query quartet --
``quantile(phi)``, ``quantiles(phis)``, ``cdf(values)``, ``describe()``
-- formalised as :class:`repro.core.SketchProtocol`.

Instrumentation lives in :mod:`repro.obs` (``repro.obs.enable()``,
Prometheus exposition, per-COLLAPSE trace events carrying the live
certified error bound).

Package layout
--------------

* :mod:`repro.core` -- the paper's contribution: the uniform b/k-buffer
  framework, the three collapse policies, optimal parameter selection,
  the sampling front-end and the parallel mode;
* :mod:`repro.windows` -- time-aware wrappers: sliding/tumbling
  :class:`~repro.windows.WindowedSketch` and exponential-decay
  :class:`~repro.windows.ExpDecaySketch` over any engine;
* :mod:`repro.obs` -- zero-dependency observability (metrics, traces,
  exposition);
* :mod:`repro.service` -- the sharded, durable quantile-sketch server;
* :mod:`repro.streams` -- workload generators and disk-resident streams;
* :mod:`repro.baselines` -- prior one-pass algorithms plus exact ground
  truth;
* :mod:`repro.histogram` / :mod:`repro.partitioning` /
  :mod:`repro.engine` / :mod:`repro.analysis` -- applications and
  measurement.

Every export resolves on first attribute access, so ``import repro``
loads no submodule until one is used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._lazy import attach

__version__ = "1.1.0"

__all__ = [
    "Sketch",
    "Bank",
    "connect",
    "hist",
    "obs",
    "__version__",
]

__getattr__, __dir__ = attach(
    __name__,
    submodules=["obs"],
    submod_attrs={"api": ["Sketch", "Bank", "connect", "hist"]},
)

if TYPE_CHECKING:
    from . import obs
    from .api import Bank, Sketch, connect, hist
