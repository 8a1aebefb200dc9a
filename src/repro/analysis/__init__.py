"""Measurement utilities: observed epsilon (Section 6), memory, tables,
and a one-pass ``describe()`` distribution report."""

from typing import TYPE_CHECKING

from .._lazy import attach

__all__ = [
    "describe",
    "Description",
    "observed_rank_error",
    "observed_epsilon",
    "evaluate",
    "QuantileEvaluation",
    "MemoryReport",
    "report_memory",
    "format_table",
    "format_memory",
    "ascii_series",
]

__getattr__, __dir__ = attach(
    __name__,
    submod_attrs={
        "describe": ["Description", "describe"],
        "memory": ["MemoryReport", "report_memory"],
        "rank_error": [
            "QuantileEvaluation",
            "evaluate",
            "observed_epsilon",
            "observed_rank_error",
        ],
        "tables": ["ascii_series", "format_memory", "format_table"],
    },
)

if TYPE_CHECKING:
    from .describe import Description, describe
    from .memory import MemoryReport, report_memory
    from .rank_error import (
        QuantileEvaluation,
        evaluate,
        observed_epsilon,
        observed_rank_error,
    )
    from .tables import ascii_series, format_memory, format_table
