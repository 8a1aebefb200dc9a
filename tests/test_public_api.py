"""Snapshot of the public API surface: the facade and its spellings.

CI runs this to catch accidental changes to ``repro.__all__``, the
facade signatures, and the removal of the pre-facade import paths.
"""

from __future__ import annotations

import importlib
import inspect
import warnings

import numpy as np
import pytest

import repro


# -- the facade surface -------------------------------------------------------


def test_public_all_snapshot():
    assert repro.__all__ == [
        "Sketch",
        "Bank",
        "connect",
        "hist",
        "obs",
        "__version__",
    ]


def test_sketch_signature():
    params = inspect.signature(repro.Sketch).parameters
    assert list(params) == [
        "eps", "n", "policy", "kernels", "adaptive", "engine",
        "window", "slide", "decay", "kwargs",
    ]
    assert params["eps"].default == 0.01
    assert params["n"].default is None
    assert params["policy"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["policy"].default == "new"
    assert params["kernels"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["adaptive"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["engine"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["engine"].default == "paper"
    for name in ("window", "slide", "decay"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert params[name].default is None


def test_bank_signature():
    params = inspect.signature(repro.Bank).parameters
    assert list(params) == [
        "eps", "n", "policy", "kernels", "engine", "kwargs",
    ]
    assert params["engine"].default == "paper"


def test_connect_signature():
    params = inspect.signature(repro.connect).parameters
    assert list(params) == ["host", "port", "cluster", "kwargs"]
    assert params["port"].default == 7337
    assert params["cluster"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["cluster"].default is None


def test_hist_signature():
    params = inspect.signature(repro.hist).parameters
    assert list(params) == [
        "data", "bins", "eps", "policy", "kernels", "engine",
        "window", "slide", "decay", "kwargs",
    ]
    assert params["engine"].default == "paper"
    assert params["eps"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["kernels"].kind is inspect.Parameter.KEYWORD_ONLY


def test_time_kwargs_agree_across_surfaces():
    """window=/slide=/decay= are spelled identically on every surface
    that accepts them (the facade constructors and the service client)."""
    from repro.service.client import QuantileClient

    for fn in (repro.Sketch, repro.hist):
        params = inspect.signature(fn).parameters
        for name in ("window", "slide", "decay"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is None
    client_params = inspect.signature(QuantileClient.create).parameters
    for name in ("window", "slide", "decay"):
        assert client_params[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert client_params[name].default is None
    # the accuracy knob is eps= on the client too
    assert client_params["eps"].default == 0.01
    assert "epsilon" not in client_params


def test_client_epsilon_alias_removed():
    from repro.service import QuantileClient, ServerThread

    with ServerThread() as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            with pytest.raises(TypeError):
                client.create("m", epsilon=0.01)
            assert client.list_metrics() == []


def test_sketch_dispatch():
    from repro.core.adaptive import AdaptiveQuantileSketch
    from repro.core.sketch import QuantileSketch

    assert isinstance(repro.Sketch(eps=0.02), AdaptiveQuantileSketch)
    assert isinstance(repro.Sketch(eps=0.02, n=10_000), QuantileSketch)
    assert isinstance(
        repro.Sketch(eps=0.02, n=10_000, adaptive=True),
        AdaptiveQuantileSketch,
    )


def test_hist_returns_equidepth_boundaries():
    data = np.arange(10_000, dtype=np.float64)
    edges = repro.hist(data, bins=4, eps=0.01)
    assert len(edges) == 3
    for target, edge in zip((2500, 5000, 7500), edges):
        assert abs(float(edge) - target) <= 0.01 * 10_000


def test_obs_is_exported():
    assert repro.obs.is_enabled() in (True, False)
    assert callable(repro.obs.enable)
    assert callable(repro.obs.render_prometheus)


# -- removed pre-facade import paths -----------------------------------------

# Each pre-facade top-level name and the module it is imported from now
# (the migration table in docs/api.md).
LEGACY_NAMES = {
    "QuantileSketch": "repro.core",
    "AdaptiveQuantileSketch": "repro.core",
    "QuantileFramework": "repro.core",
    "ParallelQuantileEngine": "repro.core",
    "approximate_quantiles": "repro.core",
    "optimal_parameters": "repro.core",
    "MultiColumnSketcher": "repro.multicolumn",
    "exact_quantile_two_pass": "repro.twopass",
    "verify_guarantee": "repro.validation",
}


@pytest.mark.parametrize("name", LEGACY_NAMES)
def test_legacy_name_still_importable(name):
    """The name lives on at its canonical module, not at the top level."""
    module = importlib.import_module(LEGACY_NAMES[name])
    assert getattr(module, name) is not None
    with pytest.raises(AttributeError):
        getattr(repro, name)
    assert name not in dir(repro)


@pytest.mark.parametrize("name", LEGACY_NAMES)
def test_legacy_name_warns_exactly_once(name):
    """The one-shot deprecation shim is gone: every top-level access
    raises AttributeError, and the canonical import warns not at all."""
    for _ in range(2):  # no warned-once state: the second access fails too
        with pytest.raises(AttributeError):
            getattr(repro, name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        getattr(importlib.import_module(LEGACY_NAMES[name]), name)
    assert not [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.NoSuchThing


def test_dir_lists_facade():
    listing = dir(repro)
    for name in repro.__all__:
        assert name in listing
