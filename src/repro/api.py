"""The unified public facade: ``repro.Sketch``, ``repro.Bank``,
``repro.connect()``, ``repro.hist()``.

One consistent spelling over the whole library:

- accuracy is ``eps=`` everywhere;
- collapse scheduling is ``policy=`` everywhere.

The vectorised kernels have one global switch
(:func:`repro.core.kernels.set_enabled` or ``REPRO_KERNELS=0``); results
are bit-identical either way.

The facade wraps -- it does not replace -- the concrete classes:
:class:`~repro.core.sketch.QuantileSketch`,
:class:`~repro.core.adaptive.AdaptiveQuantileSketch`,
:class:`~repro.core.bank.SketchBank`,
:class:`~repro.core.parallel.ParallelQuantileEngine` and
:class:`~repro.service.client.QuantileClient` all remain importable and
all satisfy the same :class:`~repro.core.protocols.SketchProtocol`
query quartet (``quantile`` / ``quantiles`` / ``cdf`` / ``describe``).

    >>> import repro
    >>> sk = repro.Sketch(eps=0.01)          # adaptive: no N needed
    >>> sk.extend(values)
    >>> sk.quantile(0.5)
    >>> sk.describe()["error_bound_fraction"]

    >>> fixed = repro.Sketch(eps=0.01, n=10**6)   # fixed-N, Table 1 sizing
    >>> bank = repro.Bank(eps=0.01, n_sketches=8) # many summaries, one scan
    >>> with repro.connect("localhost") as c:     # the sharded service
    ...     c.quantile("latency", 0.99)
    >>> repro.hist(values, bins=10, eps=0.005)    # equi-depth boundaries

Time-aware sketches use the same spellings everywhere -- ``window=`` /
``slide=`` / ``decay=`` take seconds or duration strings (``"5m"``),
and mean the same thing on :func:`Sketch`, :func:`hist` and
``connect().create``:

    >>> win = repro.Sketch(eps=0.01, window="5m", slide="1m")
    >>> dec = repro.Sketch(eps=0.01, decay="1h")      # half-life
    >>> with repro.connect("localhost") as c:
    ...     c.create("latency", eps=0.01, window="5m", slide="1m")

``connect(cluster=...)`` points the same call surface at a multi-node
cluster (a ``cluster.json`` manifest path or its directory) and returns
a :class:`~repro.cluster.client.ClusterClient` instead; both clients
satisfy :class:`~repro.core.protocols.ClientProtocol`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["Sketch", "Bank", "connect", "hist"]


def Sketch(
    eps: float = 0.01,
    n: Optional[int] = None,
    *,
    policy: str = "new",
    adaptive: Optional[bool] = None,
    engine: str = "paper",
    window: "str | float | None" = None,
    slide: "str | float | None" = None,
    decay: "str | float | None" = None,
    **kwargs: Any,
) -> Any:
    """Build a quantile sketch; the facade's one-stop constructor.

    Parameters
    ----------
    eps:
        Rank-accuracy guarantee (every answered ``phi``-quantile has rank
        within ``eps * n`` of the true one).
    n:
        Expected dataset size.  When given, the fixed-N machinery is
        sized optimally for ``(eps, n)`` (Table 1 of the paper); when
        omitted, an :class:`~repro.core.adaptive.AdaptiveQuantileSketch`
        handles unknown-length streams with a certified bound.
    policy:
        Collapse policy: ``"new"`` (default), ``"munro-paterson"`` or
        ``"alsabti-ranka-singh"``.
    adaptive:
        Force the choice instead of inferring it from *n*: ``True``
        always returns the adaptive sketch, ``False`` always the fixed-N
        one (sized for the library default capacity when *n* is omitted).
    engine:
        Sketch engine (see the docs/api.md selection table):
        ``"paper"`` (default) -- the MRL framework, deterministic
        Lemma 5 bound; ``"kll"`` -- compactor KLL, ~same accuracy in
        less memory with a probabilistic certified bound (takes
        ``delta=``, ``k=``, ``seed=``); ``"frugal"`` -- Frugal-2U,
        1-2 words per tracked fraction, no certified bound (takes
        ``phis=``, ``seed=``).  ``eps``/``n``/``policy`` apply to the
        engines that have those knobs.
    window, slide, decay:
        Make the sketch time-aware (seconds, or duration strings like
        ``"5m"``).  ``window=`` returns a
        :class:`~repro.windows.WindowedSketch` over the chosen engine --
        tumbling, or sliding when ``slide`` divides the window evenly;
        ``decay=`` returns a :class:`~repro.windows.ExpDecaySketch`
        with that half-life.  The two are mutually exclusive, and
        ``slide`` requires ``window``.  Both answer the same query
        quartet; batches are stamped with the injected ``clock=``
        (default wall time) or explicitly via ``extend_at(values, t)``.
    kwargs:
        Forwarded to the concrete constructor (``delta=``, ``seed=``,
        ``offset_mode=``, ``initial_capacity=``, ...).

    Returns the concrete sketch object -- everything it answers is the
    uniform :class:`~repro.core.protocols.SketchProtocol` quartet.
    """
    if window is not None or decay is not None:
        from .core.errors import ConfigurationError
        from .windows import ExpDecaySketch, WindowedSketch, window_config

        if adaptive is not None:
            raise ConfigurationError(
                "adaptive= does not apply to windowed or decayed "
                "sketches (buckets size themselves per engine)"
            )
        window_s, slide_s, decay_s = window_config(window, slide, decay)
        if decay_s:
            return ExpDecaySketch(
                eps, half_life=decay_s, engine=engine, policy=policy,
                n=n, **kwargs,
            )
        return WindowedSketch(
            eps, window=window_s, slide=slide_s or None, engine=engine,
            policy=policy, n=n, **kwargs,
        )
    if slide is not None:
        from .windows import window_config

        window_config(window, slide, decay)  # raises: slide needs window
    if engine == "kll":
        from .core.kll import KLLSketch

        return KLLSketch(eps=eps, **kwargs)
    if engine == "frugal":
        from .core.frugal import FrugalSketch

        return FrugalSketch(**kwargs)
    if engine != "paper":
        from .core.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown sketch engine {engine!r}; "
            "choose 'paper', 'kll' or 'frugal'"
        )
    if adaptive is None:
        adaptive = n is None
    if adaptive:
        from .core.adaptive import AdaptiveQuantileSketch

        return AdaptiveQuantileSketch(eps=eps, policy=policy, **kwargs)
    from .core.sketch import QuantileSketch

    return QuantileSketch(eps=eps, n=n, policy=policy, **kwargs)


def Bank(
    eps: float = 0.01,
    n: Optional[int] = None,
    *,
    policy: str = "new",
    engine: str = "paper",
    **kwargs: Any,
) -> Any:
    """Build a bank: many independent summaries filled by one vectorised
    scan (GROUP BY / multi-column / per-user metrics).

    ``engine="paper"`` (default) returns a
    :class:`~repro.core.bank.SketchBank` -- certified Lemma 5 bounds,
    ~``b*k`` elements per summary.  Accepts the facade kwargs (``eps=``,
    ``policy=``) plus everything ``SketchBank`` takes
    (``n_sketches=``, ``max_sketches=``, ``offset_mode=``).

    ``engine="frugal"`` returns a
    :class:`~repro.core.frugal.FrugalBank` -- flat-array Frugal-2U
    state, tens of bytes per summary, one branchless kernel pass per
    ingest chunk (takes ``phis=``, ``n_sketches=``, ``max_sketches=``,
    ``seed=``); this is the 100k+-metric configuration, see
    BENCH_engines.json.  ``eps``/``policy`` do not apply.

    KLL has no vectorised bank (its compaction is per-summary); use
    ``Sketch(engine="kll")`` per summary, or the paper bank.
    """
    if engine == "frugal":
        from .core.frugal import FrugalBank

        return FrugalBank(**kwargs)
    if engine != "paper":
        from .core.errors import ConfigurationError

        raise ConfigurationError(
            f"no bank for engine {engine!r}: choose 'paper' (certified) "
            "or 'frugal' (high-cardinality); KLL is per-sketch only"
        )
    from .core.bank import SketchBank

    return SketchBank(eps=eps, n=n, policy=policy, **kwargs)


def connect(
    host: str = "localhost",
    port: int = 7337,
    *,
    cluster: Optional[str] = None,
    **kwargs: Any,
) -> Any:
    """Open a client to a running service: one server, or a cluster.

    By default returns a
    :class:`~repro.service.client.QuantileClient` for the single server
    at ``host:port``.  With ``cluster=`` (a ``cluster.json`` manifest
    path, or the directory holding one) returns a
    :class:`~repro.cluster.client.ClusterClient` instead --
    consistent-hash routed, replicated, with certified §4.9 fan-in --
    and ``host``/``port`` are ignored.  Both satisfy
    :class:`~repro.core.protocols.ClientProtocol`: the same query
    quartet per named metric (``quantile(name, phi)``,
    ``quantiles(name, phis)``, ``cdf(name, value)``,
    ``describe(name)``), the same ``create``/``ingest`` spellings
    (including ``window=``/``slide=``/``decay=``).  Use as a context
    manager::

        with repro.connect("localhost") as c:
            c.create("latency", eps=0.01, window="5m")
            c.ingest("latency", values)
            c.quantile("latency", 0.99)

        with repro.connect(cluster="./cluster") as c:
            c.quantile("latency", 0.99)
    """
    if cluster is not None:
        from .cluster.client import ClusterClient

        return ClusterClient(cluster, **kwargs)
    from .service.client import QuantileClient

    return QuantileClient(host, port, **kwargs)


def hist(
    data: "Sequence[float] | Any",
    bins: int = 10,
    *,
    eps: float = 0.005,
    policy: str = "new",
    engine: str = "paper",
    window: "str | float | None" = None,
    slide: "str | float | None" = None,
    decay: "str | float | None" = None,
    **kwargs: Any,
) -> List[Any]:
    """Equi-depth histogram boundaries of *data* in one bounded-memory pass.

    Returns the ``i/bins``-quantiles for ``i = 1 .. bins-1`` (Section 1.1
    of the paper: the b-optimal equi-depth histogram).  A convenience
    wrapper over :func:`~repro.core.sketch.approximate_quantiles` --
    or, with ``engine="kll"``/``"frugal"``, over that engine's sketch
    (see :func:`Sketch` for the trade-offs).

    Accepts the same facade kwargs as :func:`Sketch`:
    ``window=``/``slide=``/``decay=`` compute the boundaries over a
    time-aware sketch of *data* (useful with ``extra`` kwargs like
    ``clock=`` when *data* carries event times elsewhere; the batch is
    stamped once at ingest).
    """
    from .core.errors import ConfigurationError

    if bins < 2:
        raise ConfigurationError(f"need at least 2 bins, got {bins}")
    phis = [i / bins for i in range(1, bins)]
    if engine != "paper" or window is not None or decay is not None:
        import numpy as np

        time_kwargs: Any = dict(window=window, slide=slide, decay=decay)
        if engine == "frugal":
            # track exactly the requested boundary fractions
            sk = Sketch(
                engine=engine, phis=tuple(phis), **time_kwargs, **kwargs
            )
        else:
            sk = Sketch(
                eps=eps, policy=policy, engine=engine, **time_kwargs,
                **kwargs,
            )
        sk.extend(np.asarray(data, dtype=np.float64))
        return sk.quantiles(phis)
    if slide is not None:
        from .windows import window_config

        window_config(window, slide, decay)  # raises: slide needs window
    from .core.sketch import approximate_quantiles

    return approximate_quantiles(
        data, phis, eps, policy=policy, **kwargs
    )
