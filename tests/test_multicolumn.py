"""Tests for the single-pass multi-column sketcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, EmptySummaryError
from repro.engine import Table
from repro.multicolumn import MultiColumnSketcher


@pytest.fixture
def columns(rng):
    n = 40_000
    return {
        "uniform": rng.uniform(0, 100, n),
        "normal": rng.normal(50, 10, n),
        "skewed": rng.lognormal(1, 1, n),
    }


class TestConstruction:
    def test_needs_columns(self):
        with pytest.raises(ConfigurationError):
            MultiColumnSketcher([], 0.01)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            MultiColumnSketcher(["a", "a"], 0.01)

    def test_unknown_column_lookup(self):
        sketcher = MultiColumnSketcher(["a"], 0.01, n=100)
        with pytest.raises(ConfigurationError):
            sketcher.sketch("b")


class TestSinglePass:
    def test_all_columns_accurate(self, columns):
        n = len(columns["uniform"])
        sketcher = MultiColumnSketcher(
            list(columns), epsilon=0.005, n=n
        )
        for start in range(0, n, 4096):
            sketcher.consume(
                {k: v[start : start + 4096] for k, v in columns.items()}
            )
        assert sketcher.n_rows == n
        for name, values in columns.items():
            ordered = np.sort(values)
            for phi in (0.1, 0.5, 0.9):
                got = sketcher.quantiles(name, [phi])[0]
                rank = int(np.searchsorted(ordered, got, side="left")) + 1
                target = int(np.ceil(phi * n))
                assert abs(rank - target) <= 0.005 * n + 1, name

    def test_all_quantiles_shape(self, columns):
        n = len(columns["uniform"])
        sketcher = MultiColumnSketcher(list(columns), 0.01, n=n)
        sketcher.consume(columns)
        result = sketcher.all_quantiles([0.25, 0.5, 0.75])
        assert set(result) == set(columns)
        for values in result.values():
            assert values == sorted(values)

    def test_histograms_per_column(self, columns):
        n = len(columns["uniform"])
        sketcher = MultiColumnSketcher(list(columns), 0.005, n=n)
        sketcher.consume(columns)
        hist = sketcher.histogram("skewed", 10)
        assert hist.n_buckets == 10
        assert hist.low == pytest.approx(float(columns["skewed"].min()))
        assert hist.high == pytest.approx(float(columns["skewed"].max()))
        # median bucket boundary close to the true median in rank terms
        ordered = np.sort(columns["skewed"])
        boundary = hist.boundaries[4]  # the 0.5 boundary
        rank = int(np.searchsorted(ordered, boundary)) + 1
        assert abs(rank - n // 2) <= 0.005 * n + 1

    def test_engine_chunks_accepted(self, columns):
        n = len(columns["uniform"])
        table = Table.from_dict("t", dict(columns))
        sketcher = MultiColumnSketcher(["uniform", "normal"], 0.01, n=n)
        for chunk in table.scan(chunk_size=8192):
            sketcher.consume(chunk)
        assert sketcher.n_rows == n

    def test_memory_sums_over_columns(self, columns):
        n = len(columns["uniform"])
        one = MultiColumnSketcher(["uniform"], 0.01, n=n)
        three = MultiColumnSketcher(list(columns), 0.01, n=n)
        assert three.memory_elements == 3 * one.memory_elements


class TestMatrixConsume:
    def test_2d_ndarray_matches_mapping(self, columns):
        n = len(columns["uniform"])
        names = list(columns)
        matrix = np.column_stack([columns[name] for name in names])
        via_map = MultiColumnSketcher(names, 0.01, n=n)
        via_mat = MultiColumnSketcher(names, 0.01, n=n)
        for start in range(0, n, 4096):
            via_map.consume(
                {k: v[start : start + 4096] for k, v in columns.items()}
            )
            via_mat.consume(matrix[start : start + 4096])
        phis = [0.1, 0.25, 0.5, 0.75, 0.9]
        # bit-identical, not just approximately equal
        assert via_mat.all_quantiles(phis) == via_map.all_quantiles(phis)
        assert via_mat.n_rows == via_map.n_rows == n
        assert via_mat.error_bounds() == via_map.error_bounds()

    def test_matches_independent_sketches(self, columns):
        from repro.core.sketch import QuantileSketch

        n = len(columns["uniform"])
        names = list(columns)
        sketcher = MultiColumnSketcher(names, 0.01, n=n)
        refs = {name: QuantileSketch(0.01, n=n) for name in names}
        for start in range(0, n, 8192):
            sketcher.consume(
                {k: v[start : start + 8192] for k, v in columns.items()}
            )
            for name in names:
                refs[name].extend(columns[name][start : start + 8192])
        phis = [0.05, 0.5, 0.95]
        got = sketcher.all_quantiles(phis)
        for name in names:
            assert got[name] == [float(v) for v in refs[name].quantiles(phis)]
            assert (
                sketcher.sketch(name).error_bound()
                == refs[name].error_bound()
            )

    def test_wrong_column_count_rejected(self):
        sketcher = MultiColumnSketcher(["a", "b"], 0.1, n=100)
        with pytest.raises(ConfigurationError):
            sketcher.consume(np.zeros((5, 3)))

    def test_1d_ndarray_rejected(self):
        sketcher = MultiColumnSketcher(["a"], 0.1, n=100)
        with pytest.raises(ConfigurationError):
            sketcher.consume(np.zeros(5))

    def test_empty_matrix_noop(self):
        sketcher = MultiColumnSketcher(["a", "b"], 0.1, n=100)
        sketcher.consume(np.zeros((0, 2)))
        assert sketcher.n_rows == 0

    def test_histograms_for_all_columns(self, columns):
        n = len(columns["uniform"])
        sketcher = MultiColumnSketcher(list(columns), 0.01, n=n)
        sketcher.consume(columns)
        hists = sketcher.histograms(8)
        assert set(hists) == set(columns)
        single = sketcher.histogram("normal", 8)
        assert hists["normal"].boundaries == single.boundaries


class TestSamplingFallback:
    def test_delta_path_keeps_per_column_sketches(self, rng):
        n = 10**7  # large design size makes sampling the cheaper plan
        sketcher = MultiColumnSketcher(
            ["a", "b"], 0.05, n=n, delta=0.01
        )
        assert not hasattr(sketcher, "_bank")
        assert all(
            sketcher.sketch(c).uses_sampling for c in ("a", "b")
        )
        # ingest still works per column (answers are probabilistic and
        # seeded elsewhere; here we only pin the fallback wiring)
        data = {"a": rng.normal(size=4000), "b": rng.uniform(size=4000)}
        sketcher.consume(data)
        assert sketcher.n_rows == 4000
        assert len(sketcher.sketch("a")) == 4000


class TestValidation:
    def test_missing_column_in_chunk(self):
        sketcher = MultiColumnSketcher(["a", "b"], 0.1, n=100)
        with pytest.raises(ConfigurationError, match="missing"):
            sketcher.consume({"a": np.arange(5.0)})

    def test_ragged_chunk(self):
        sketcher = MultiColumnSketcher(["a", "b"], 0.1, n=100)
        with pytest.raises(ConfigurationError, match="ragged"):
            sketcher.consume(
                {"a": np.arange(5.0), "b": np.arange(4.0)}
            )

    def test_non_mapping_rejected(self):
        sketcher = MultiColumnSketcher(["a"], 0.1, n=100)
        with pytest.raises(ConfigurationError):
            sketcher.consume([1.0, 2.0])

    def test_empty_chunk_noop(self):
        sketcher = MultiColumnSketcher(["a"], 0.1, n=100)
        sketcher.consume({"a": np.array([])})
        assert sketcher.n_rows == 0

    def test_histogram_before_data(self):
        sketcher = MultiColumnSketcher(["a"], 0.1, n=100)
        with pytest.raises(EmptySummaryError):
            sketcher.histogram("a", 4)
