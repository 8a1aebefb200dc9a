"""Lazy package exports (PEP 562), in the scientific-python SPEC 1 idiom.

A package ``__init__`` keeps its literal ``__all__`` and a
``TYPE_CHECKING`` block of real imports for type checkers, and hands the
runtime mapping to :func:`attach`::

    __getattr__, __dir__ = attach(
        __name__,
        submodules=["kernels"],
        submod_attrs={"buffer": ["Buffer", "MINUS_INF", "PLUS_INF"]},
    )

An exported name is imported on its first attribute access and then
cached in the package namespace, so ``import repro.service.server``
loads the server and what it imports, not every sibling module the
package re-exports.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["attach"]


def attach(
    package: str,
    submodules: Sequence[str] = (),
    submod_attrs: "Dict[str, Sequence[str]] | None" = None,
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for *package*.

    *submodules* are exported as modules; *submod_attrs* maps a
    submodule (relative to *package*) to the names it exports.
    """
    submod_attrs = submod_attrs or {}
    origin = {
        attr: sub for sub, attrs in submod_attrs.items() for attr in attrs
    }
    modules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return list(sys.modules[package].__all__)

    # a submodule that exports a name of its own (repro.analysis.describe)
    shadowed = {
        sub for sub, attrs in submod_attrs.items() if sub in attrs
    }
    if shadowed:
        sys.modules[package].__class__ = _shadow_guard(package, shadowed)
    return __getattr__, __dir__


def _shadow_guard(package: str, shadowed: "set[str]") -> type:
    """A module class that keeps ``pkg.name`` the exported object when
    ``import pkg.name`` binds the same-named submodule over it."""

    class _Package(types.ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            if (
                name in shadowed
                and isinstance(value, types.ModuleType)
                and value.__name__ == f"{package}.{name}"
            ):
                value = getattr(value, name)
            super().__setattr__(name, value)

    return _Package
