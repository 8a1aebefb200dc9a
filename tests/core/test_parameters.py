"""Tests for closed-form tree statistics and (b, k) optimisation.

The hard targets here are the actual Table 1 entries of the paper: the
optimisers must reproduce them *exactly* (they are pure arithmetic).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.parameters import (
    _OPTIMISERS,
    _cached_plan,
    alsabti_ranka_singh_stats,
    best_over_policies,
    munro_paterson_stats,
    new_algorithm_stats,
    optimal_parameters,
    parameter_table,
)

EPSILONS = [0.1, 0.05, 0.01, 0.005, 0.001]
NS = [10**5, 10**6, 10**7, 10**8, 10**9]

# (b, k) entries transcribed from Table 1 of the paper.
TABLE1_MP = {
    (0.100, 10**5): (11, 98),
    (0.100, 10**6): (14, 123),
    (0.100, 10**7): (17, 153),
    (0.100, 10**8): (21, 96),
    (0.100, 10**9): (24, 120),
    (0.050, 10**8): (20, 191),
    (0.050, 10**9): (23, 239),
    (0.010, 10**5): (9, 391),
    (0.010, 10**6): (11, 977),
    (0.010, 10**9): (21, 954),
    (0.005, 10**5): (8, 782),
    (0.001, 10**5): (6, 3125),
    (0.001, 10**7): (11, 9766),
    (0.001, 10**9): (17, 15259),
}

TABLE1_ARS = {
    (0.100, 10**5): (280, 6),
    (0.100, 10**9): (28282, 6),
    (0.050, 10**5): (198, 11),
    (0.050, 10**9): (19998, 11),
    (0.010, 10**5): (88, 52),
    (0.010, 10**7): (892, 51),
    (0.005, 10**6): (198, 103),
    (0.001, 10**5): (26, 592),
    (0.001, 10**9): (2826, 501),
}

TABLE1_NEW = {
    (0.100, 10**5): (5, 55),
    (0.100, 10**6): (7, 54),
    (0.100, 10**7): (10, 60),
    (0.100, 10**8): (15, 51),
    (0.100, 10**9): (12, 77),
    (0.050, 10**5): (6, 78),
    (0.050, 10**6): (6, 117),
    (0.050, 10**7): (8, 129),
    (0.050, 10**8): (7, 211),
    (0.050, 10**9): (8, 235),
    (0.010, 10**5): (7, 217),
    (0.010, 10**6): (12, 229),
    (0.010, 10**7): (9, 412),
    (0.010, 10**8): (10, 596),
    (0.010, 10**9): (10, 765),
    (0.005, 10**5): (3, 953),
    (0.005, 10**6): (8, 583),
    (0.005, 10**7): (8, 875),
    (0.005, 10**8): (8, 1290),
    (0.005, 10**9): (7, 2106),
    (0.001, 10**5): (3, 2778),
    (0.001, 10**6): (5, 3031),
    (0.001, 10**7): (5, 5495),
    (0.001, 10**8): (9, 4114),
    (0.001, 10**9): (10, 5954),
}


class TestClosedForms:
    def test_munro_paterson_figure2_shape(self):
        # b=6: 2^5 = 32 leaves, 30 collapses, W = 4*32, w_max = 16
        stats = munro_paterson_stats(6)
        assert stats.n_leaves == 32
        assert stats.n_collapses == 30
        assert stats.sum_collapse_weights == 128
        assert stats.w_max == 16

    def test_munro_paterson_error_simplification(self):
        # Section 4.3: error = (b-2) 2^(b-2) + 1/2
        for b in range(2, 12):
            stats = munro_paterson_stats(b)
            if stats.n_collapses:
                assert stats.error_bound == (b - 2) * 2 ** (b - 2) + 0.5

    def test_ars_figure3_shape(self):
        # b=10: 25 leaves (5 rounds of 5), 5 collapses of weight 5
        stats = alsabti_ranka_singh_stats(10)
        assert stats.n_leaves == 25
        assert stats.n_collapses == 5
        assert stats.sum_collapse_weights == 25
        assert stats.w_max == 5

    def test_ars_error_simplification(self):
        # Section 4.4: error = b^2/8 + b/4 - 1/2
        for b in range(4, 30, 2):
            stats = alsabti_ranka_singh_stats(b)
            assert stats.error_bound == b * b / 8 + b / 4 - 0.5

    def test_ars_rejects_odd_b(self):
        with pytest.raises(ConfigurationError):
            alsabti_ranka_singh_stats(7)

    def test_new_combinatorial_forms(self):
        # Spot-check the binomials for b=5, h=13 (the eps=.1, N=1e5 winner)
        stats = new_algorithm_stats(5, 13)
        assert stats.n_leaves == math.comb(16, 12)  # 1820
        assert stats.n_collapses == math.comb(15, 11) - 1
        assert stats.w_max == math.comb(15, 11)

    def test_new_error_equals_paper_constraint_halved(self):
        for b in range(2, 10):
            for h in range(3, 10):
                stats = new_algorithm_stats(b, h)
                paper_lhs = (
                    (h - 2) * math.comb(b + h - 2, h - 1)
                    - math.comb(b + h - 3, h - 3)
                    + math.comb(b + h - 3, h - 2)
                )
                assert stats.error_bound == pytest.approx(paper_lhs / 2.0)

    def test_new_rejects_short_trees(self):
        with pytest.raises(ConfigurationError):
            new_algorithm_stats(5, 2)


class TestOptimisers:
    @pytest.mark.parametrize("key,expected", sorted(TABLE1_MP.items()))
    def test_table1_munro_paterson(self, key, expected):
        eps, n = key
        plan = optimal_parameters(eps, n, policy="mp")
        assert (plan.b, plan.k) == expected

    @pytest.mark.parametrize("key,expected", sorted(TABLE1_ARS.items()))
    def test_table1_alsabti_ranka_singh(self, key, expected):
        eps, n = key
        plan = optimal_parameters(eps, n, policy="ars")
        assert (plan.b, plan.k) == expected

    @pytest.mark.parametrize("key,expected", sorted(TABLE1_NEW.items()))
    def test_table1_new_algorithm(self, key, expected):
        eps, n = key
        plan = optimal_parameters(eps, n, policy="new")
        assert (plan.b, plan.k) == expected

    def test_new_beats_others_everywhere(self):
        # Section 4.6: "the new algorithm is always better in terms of space"
        for eps in EPSILONS:
            for n in NS:
                new = optimal_parameters(eps, n, policy="new").memory
                mp = optimal_parameters(eps, n, policy="mp").memory
                ars = optimal_parameters(eps, n, policy="ars").memory
                assert new <= mp
                assert new <= ars

    def test_plans_satisfy_both_constraints(self):
        for eps in EPSILONS:
            for n in (10**5, 10**7):
                for policy in ("new", "mp", "ars"):
                    plan = optimal_parameters(eps, n, policy=policy)
                    assert plan.error_bound <= eps * n + 0.5
                    # coverage: enough leaf capacity for the whole stream
                    if policy == "mp" and plan.b > 2:
                        assert plan.k * 2 ** (plan.b - 1) >= n
                    elif policy == "ars" and plan.b > 2:
                        assert plan.k * plan.b**2 // 4 >= n
                    elif policy == "new" and plan.height is not None:
                        leaves = math.comb(
                            plan.b + plan.height - 2, plan.height - 1
                        )
                        assert plan.k * leaves >= n

    def test_tiny_epsilon_falls_back_to_no_collapse(self):
        plan = optimal_parameters(1e-6, 100, policy="new")
        assert plan.b == 2
        assert plan.k == 50
        assert plan.error_bound == 0.5

    def test_best_over_policies_picks_new(self):
        plan = best_over_policies(0.01, 10**6)
        assert plan.policy == "new"

    def test_parameter_table_grid(self):
        grid = parameter_table([0.1, 0.01], [10**5, 10**6], policy="new")
        assert len(grid) == 4
        assert grid[(0.1, 10**5)].b == 5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_parameters(0.0, 100)
        with pytest.raises(ConfigurationError):
            optimal_parameters(1.5, 100)
        with pytest.raises(ConfigurationError):
            optimal_parameters(0.1, 0)
        with pytest.raises(ConfigurationError):
            optimal_parameters(0.1, 100, policy="nope")

    def test_memory_grows_as_epsilon_shrinks(self):
        memories = [
            optimal_parameters(eps, 10**7, policy="new").memory
            for eps in EPSILONS
        ]
        assert memories == sorted(memories)

    def test_memory_grows_with_n(self):
        memories = [
            optimal_parameters(0.01, n, policy="new").memory for n in NS
        ]
        assert memories == sorted(memories)


class TestMemoizedPlanner:
    """``optimal_parameters`` is memoized; every plan must equal the raw
    optimiser's, and a rejected input must never reach the cache."""

    @pytest.mark.parametrize("policy", ["new", "mp", "ars"])
    def test_table1_grid_equals_raw_optimiser(self, policy):
        for eps in EPSILONS:
            for n in NS:
                plan = optimal_parameters(eps, n, policy=policy)
                assert plan == _OPTIMISERS[policy](eps, n)

    @settings(max_examples=150, deadline=None)
    @given(
        eps=st.floats(min_value=1e-5, max_value=0.999),
        n=st.integers(min_value=1, max_value=10**10),
        policy=st.sampled_from(sorted(_OPTIMISERS)),
    )
    def test_sweep_equals_raw_optimiser(self, eps, n, policy):
        plan = optimal_parameters(eps, n, policy=policy)
        assert plan == _OPTIMISERS[policy](eps, n)
        assert optimal_parameters(eps, n, policy=policy) is plan

    @pytest.mark.parametrize(
        "spelling,canonical",
        [
            ("mp", "munro-paterson"),
            ("MP", "munro-paterson"),
            (" Munro-Paterson ", "munro-paterson"),
            ("ars", "alsabti-ranka-singh"),
            ("\tARS\n", "alsabti-ranka-singh"),
            ("Alsabti-Ranka-Singh", "alsabti-ranka-singh"),
            ("NEW ", "new"),
        ],
    )
    def test_aliases_share_the_canonical_plan(self, spelling, canonical):
        plan = optimal_parameters(0.01, 10**6, policy=spelling)
        assert plan == _OPTIMISERS[canonical](0.01, 10**6)
        assert plan.policy == canonical
        assert plan is optimal_parameters(0.01, 10**6, policy=canonical)

    def test_numpy_epsilon_gets_its_exact_plan(self):
        eps = np.float64(0.005)
        plan = optimal_parameters(eps, 10**7)
        raw = _OPTIMISERS["new"](eps, 10**7)
        assert plan == raw
        # cached per argument type: the plan carries the caller's epsilon
        assert repr(plan) == repr(raw)
        assert repr(optimal_parameters(0.005, 10**7)) == repr(
            _OPTIMISERS["new"](0.005, 10**7)
        )

    def test_repeated_call_returns_the_shared_frozen_plan(self):
        first = optimal_parameters(0.02, 123_457, policy="new")
        assert optimal_parameters(0.02, 123_457, policy="new") is first
        with pytest.raises(AttributeError):
            first.b = 1  # frozen: sharing one instance is safe

    @pytest.mark.parametrize(
        "eps,n,policy",
        [
            (0.0, 100, "new"),
            (1.0, 100, "new"),
            (1.5, 100, "mp"),
            (-0.1, 100, "ars"),
            (float("nan"), 100, "new"),
            (0.1, 0, "new"),
            (0.1, -5, "mp"),
            (0.1, 100, "nope"),
            (0.1, 100, "m p"),
        ],
    )
    def test_invalid_inputs_raise_on_every_call(self, eps, n, policy):
        misses = _cached_plan.cache_info().misses
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                optimal_parameters(eps, n, policy=policy)
        assert _cached_plan.cache_info().misses == misses
