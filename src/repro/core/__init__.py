"""Core of the reproduction: the MRL one-pass quantile framework.

Public surface:

* :class:`QuantileSketch` / :func:`approximate_quantiles` -- what most
  callers want;
* :class:`QuantileFramework` -- the explicit ``(b, k, policy)`` machinery;
* :mod:`~repro.core.parameters` -- optimal configuration selection
  (Table 1);
* :mod:`~repro.core.sampling` -- the Section 5 sampling front-end
  (Table 2, Figure 8);
* :class:`ParallelQuantileEngine` -- the Section 4.9 partitioned mode;
* :class:`TreeRecorder` -- collapse-tree capture (Figures 2-4, Lemma 5).
"""

from typing import TYPE_CHECKING

from .._lazy import attach

__all__ = [
    "kernels",
    "Buffer",
    "MINUS_INF",
    "PLUS_INF",
    "OffsetSelector",
    "augmented_phi",
    "collapse",
    "output",
    "weighted_select",
    "QuantileFramework",
    "QuantileSketch",
    "SketchBank",
    "AdaptiveQuantileSketch",
    "KLLSketch",
    "FrugalSketch",
    "FrugalBank",
    "EngineSpec",
    "ENGINES",
    "ENGINE_NAMES",
    "engine_of",
    "loads_any",
    "load_any_from",
    "dumps_any",
    "approximate_quantiles",
    "dump",
    "dumps",
    "load",
    "loads",
    "ParallelQuantileEngine",
    "recombine",
    "SketchProtocol",
    "DESCRIBE_PHIS",
    "describe_dict",
    "CollapsePolicy",
    "MunroPatersonPolicy",
    "AlsabtiRankaSinghPolicy",
    "NewPolicy",
    "make_policy",
    "ClosedFormStats",
    "ParameterPlan",
    "optimal_parameters",
    "best_over_policies",
    "parameter_table",
    "munro_paterson_stats",
    "alsabti_ranka_singh_stats",
    "new_algorithm_stats",
    "SamplingPlan",
    "SampledQuantileFramework",
    "hoeffding_sample_size",
    "optimize_alpha",
    "sampling_threshold",
    "choose_strategy",
    "TreeNode",
    "TreeRecorder",
    "TreeStats",
    "ReproError",
    "ConfigurationError",
    "EngineMismatchError",
    "StreamExhaustedError",
    "CapacityExceededError",
    "EmptySummaryError",
    "WorkerError",
    "StorageError",
    "QueryError",
    "SQLSyntaxError",
]

__getattr__, __dir__ = attach(
    __name__,
    submodules=["kernels"],
    submod_attrs={
        "buffer": ["MINUS_INF", "PLUS_INF", "Buffer"],
        "engines": [
            "ENGINES",
            "ENGINE_NAMES",
            "EngineSpec",
            "dumps_any",
            "engine_of",
            "load_any_from",
            "loads_any",
        ],
        "errors": [
            "CapacityExceededError",
            "ConfigurationError",
            "EmptySummaryError",
            "EngineMismatchError",
            "QueryError",
            "ReproError",
            "SQLSyntaxError",
            "StorageError",
            "StreamExhaustedError",
            "WorkerError",
        ],
        "frugal": ["FrugalBank", "FrugalSketch"],
        "kll": ["KLLSketch"],
        "framework": ["QuantileFramework"],
        "operations": [
            "OffsetSelector",
            "augmented_phi",
            "collapse",
            "output",
            "weighted_select",
        ],
        "parallel": ["ParallelQuantileEngine", "recombine"],
        "protocols": ["DESCRIBE_PHIS", "SketchProtocol", "describe_dict"],
        "parameters": [
            "ClosedFormStats",
            "ParameterPlan",
            "alsabti_ranka_singh_stats",
            "best_over_policies",
            "munro_paterson_stats",
            "new_algorithm_stats",
            "optimal_parameters",
            "parameter_table",
        ],
        "policies": [
            "AlsabtiRankaSinghPolicy",
            "CollapsePolicy",
            "MunroPatersonPolicy",
            "NewPolicy",
            "make_policy",
        ],
        "sampling": [
            "SampledQuantileFramework",
            "SamplingPlan",
            "choose_strategy",
            "hoeffding_sample_size",
            "optimize_alpha",
            "sampling_threshold",
        ],
        "adaptive": ["AdaptiveQuantileSketch"],
        "bank": ["SketchBank"],
        "serialize": ["dump", "dumps", "load", "loads"],
        "sketch": ["QuantileSketch", "approximate_quantiles"],
        "tree": ["TreeNode", "TreeRecorder", "TreeStats"],
    },
)

if TYPE_CHECKING:
    from . import kernels
    from .buffer import MINUS_INF, PLUS_INF, Buffer
    from .engines import (
        ENGINES,
        ENGINE_NAMES,
        EngineSpec,
        dumps_any,
        engine_of,
        load_any_from,
        loads_any,
    )
    from .errors import (
        CapacityExceededError,
        ConfigurationError,
        EmptySummaryError,
        EngineMismatchError,
        QueryError,
        ReproError,
        SQLSyntaxError,
        StorageError,
        StreamExhaustedError,
        WorkerError,
    )
    from .frugal import FrugalBank, FrugalSketch
    from .kll import KLLSketch
    from .framework import QuantileFramework
    from .operations import (
        OffsetSelector,
        augmented_phi,
        collapse,
        output,
        weighted_select,
    )
    from .parallel import ParallelQuantileEngine, recombine
    from .protocols import DESCRIBE_PHIS, SketchProtocol, describe_dict
    from .parameters import (
        ClosedFormStats,
        ParameterPlan,
        alsabti_ranka_singh_stats,
        best_over_policies,
        munro_paterson_stats,
        new_algorithm_stats,
        optimal_parameters,
        parameter_table,
    )
    from .policies import (
        AlsabtiRankaSinghPolicy,
        CollapsePolicy,
        MunroPatersonPolicy,
        NewPolicy,
        make_policy,
    )
    from .sampling import (
        SampledQuantileFramework,
        SamplingPlan,
        choose_strategy,
        hoeffding_sample_size,
        optimize_alpha,
        sampling_threshold,
    )
    from .adaptive import AdaptiveQuantileSketch
    from .bank import SketchBank
    from .serialize import dump, dumps, load, loads
    from .sketch import QuantileSketch, approximate_quantiles
    from .tree import TreeNode, TreeRecorder, TreeStats
