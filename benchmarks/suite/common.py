"""Paths shared by the suite's entry points, and the import guard.

The suite measures the package in *this* checkout: every entry point
puts ``<root>/src`` first on ``sys.path`` and refuses to run against a
copy of :mod:`repro` installed anywhere else.
"""

from __future__ import annotations

import os
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC = os.path.join(ROOT, "src")
#: run data dirs, span dumps and server logs (git-ignored)
OUT_DIR = os.path.join(SUITE_DIR, "out")


def import_repro() -> None:
    """Import :mod:`repro` from ``<root>/src``; exit non-zero otherwise."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"error: cannot import repro from {SRC}: {exc}")
    where = os.path.abspath(repro.__file__)
    if not where.startswith(SRC + os.sep):
        sys.exit(f"error: repro was imported from {where}, not from {SRC}")
