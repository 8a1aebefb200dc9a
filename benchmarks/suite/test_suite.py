"""Self-test of the benchmark suite: ``python -m pytest benchmarks/suite -q``.

Checks the exact-rank oracle against a brute-force sort, that ``--smoke``
runs of every workload emit every metric BENCHMARK.json names with its
unit, that all names are well formed, that the seed changes the inputs
but not the metric set, and that the suite refuses to run without the
package source beside it.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
from common import ROOT, SRC, SUITE_DIR

RUN = os.path.join(SUITE_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=170, cwd=cwd,
    )


def _smoke(workload: str, seed: int, trace: int) -> dict:
    proc = _run(
        RUN, "--smoke", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    return {
        (w["name"], trace): _smoke(w["name"], 0, trace)
        for w in _benchmark()["workloads"]
        for trace in (0, 1)
    }


def test_oracle_matches_brute_force_sort():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.analysis.rank_error import observed_rank_error

    rng = np.random.default_rng(7)
    # rounding makes ties, so values occupy rank intervals
    pool = oracle.SlicedPool(np.round(rng.lognormal(size=1024), 1), 16)
    counts = rng.integers(0, 4, size=pool.n_slices)
    stream = np.concatenate(
        [np.tile(pool.slices[s], c) for s, c in enumerate(counts)]
    )
    ordered = np.sort(stream)
    tables = (pool.table(counts), oracle.RankTable.of(stream))
    probes = np.concatenate(
        [pool.pool[:64], [ordered[0] - 1, ordered[-1] + 1, 0.55, 3.33]]
    )
    for table in tables:
        assert table.n == stream.size
        for v in probes:
            lo = int(np.searchsorted(ordered, v, side="left")) + 1
            hi = int(np.searchsorted(ordered, v, side="right"))
            assert table.rank_interval(v) == (lo, hi)
            for phi in (0.0, 0.01, 0.5, 0.9, 0.99, 1.0):
                assert table.rank_error(phi, v) == observed_rank_error(
                    ordered, phi, v
                )


def test_benchmark_names_are_well_formed():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def test_default_seconds_match_benchmark():
    text = open(RUN, encoding="utf-8").read()
    match = re.search(r"^DEFAULT_SECONDS = (\d+)$", text, re.M)
    assert int(match.group(1)) == _benchmark()["run_seconds"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(smoke_runs, trace, key):
    want = {m["name"]: m["unit"] for m in _benchmark()[key]}
    for workload in (w["name"] for w in _benchmark()["workloads"]):
        line = smoke_runs[(workload, trace)]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        got = {n: m["unit"] for n, m in line["metrics"].items()}
        assert got == want, workload
        for name, metric in line["metrics"].items():
            assert NAME.match(name)
            assert math.isfinite(metric["value"]), (workload, name)


def test_seed_changes_inputs_not_metric_set(smoke_runs):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Scale

    scale = Scale.of(1, smoke=True)
    for cls in WORKLOADS.values():
        a, b, again = cls(0, scale), cls(1, scale), cls(0, scale)
        assert not np.array_equal(a.pool.pool, b.pool.pool)
        assert np.array_equal(a.pool.pool, again.pool.pool)
    other = _smoke("firehose", 1, 0)
    assert set(other["metrics"]) == set(smoke_runs[("firehose", 0)]["metrics"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(
        "benchmarks/suite/run.py", "--workload", "firehose", "--seed", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
