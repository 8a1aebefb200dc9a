"""``repro serve --workers N``: a local R=1 cluster behind one command.

The option checks run without a server (the coordinator is replaced by
a recorder); the end-to-end test drives a real ``python -m repro serve
--workers 2`` process through start, manifest probe, ingest, SIGTERM,
durable restart and the topology pin.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.cluster
from repro.cli import main as cli_main
from repro.cluster import ClusterClient
from repro.cluster.errors import ClusterConfigError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
NAMES = [f"w/m{i}" for i in range(4)]


class _RecordingCoordinator:
    """Stands in for ClusterCoordinator: keeps its kwargs, never spawns."""

    seen: dict = {}

    def __init__(self, **kwargs):
        _RecordingCoordinator.seen = kwargs

    def start(self):
        raise ClusterConfigError("recorded, not started")


@pytest.fixture
def recorder(monkeypatch):
    monkeypatch.setattr(
        repro.cluster, "ClusterCoordinator", _RecordingCoordinator
    )
    _RecordingCoordinator.seen = {}
    return _RecordingCoordinator


class TestServeWorkersOptions:
    def test_runs_a_local_r1_cluster_with_every_service_option(
        self, recorder, capsys
    ):
        code = cli_main(
            [
                "serve", "--workers", "3", "--port", "7500",
                "--shards", "2", "--snapshot-interval", "0",
                "--fsync", "--batch-window", "0.002",
                "--watch-interval", "0.25",
            ]
        )
        assert code == 1  # the recorder refuses to start
        assert "recorded, not started" in capsys.readouterr().err
        assert recorder.seen == {
            "nodes": 3,
            "replication": 1,
            "host": "127.0.0.1",
            "base_port": 7500,
            "data_dir": None,
            "health_interval_s": 1.0,
            "watch_interval_s": 0.25,
            "n_shards": 2,
            "snapshot_interval_s": None,
            "fsync": True,
            "batch_window_s": 0.002,
        }

    def test_watch_interval_zero_disables_the_scheduler(self, recorder):
        cli_main(["serve", "--workers", "2", "--watch-interval", "0"])
        assert recorder.seen["watch_interval_s"] is None

    @pytest.mark.parametrize(
        "extra", [["--chaos"], ["--clock-file", "clock.txt"]]
    )
    def test_single_process_options_are_refused(
        self, recorder, capsys, extra
    ):
        assert cli_main(["serve", "--workers", "2", *extra]) == 1
        err = capsys.readouterr().err
        assert extra[0] in err and "--workers 1" in err
        assert recorder.seen == {}  # refused before any coordinator


def _serve_argv(data_dir: str, workers: int) -> list:
    return [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--workers", str(workers),
        "--data-dir", data_dir,
        "--shards", "1", "--snapshot-interval", "0",
    ]


_SUBPROCESS_KW = dict(
    text=True,
    env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    cwd=str(REPO_ROOT),
)


def _serve(data_dir: str, workers: int) -> subprocess.Popen:
    return subprocess.Popen(
        _serve_argv(data_dir, workers),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        **_SUBPROCESS_KW,
    )


def _await_listening(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if "listening" in line:
                return line
            if not line and proc.poll() is not None:
                break
    proc.kill()
    _, err = proc.communicate(timeout=10)
    raise AssertionError(f"serve --workers never came up: {err}")


def _stop(proc: subprocess.Popen) -> int:
    """SIGTERM, wait for the graceful drain, close the pipes."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:  # pragma: no cover - drain overran
        proc.kill()
        proc.communicate(timeout=10)
    return proc.returncode


def test_serve_workers_end_to_end(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    rng = np.random.default_rng(9)
    batches = [
        (NAMES[i % len(NAMES)], rng.normal(size=300)) for i in range(12)
    ]
    counts = {
        name: sum(v.size for b, v in batches if b == name) for name in NAMES
    }

    proc = _serve(data_dir, 2)
    try:
        line = _await_listening(proc)
        assert "2 nodes" in line and "replication=1" in line
        # a v1 manifest plus one durability dir per node
        assert sorted(os.listdir(data_dir)) == [
            "cluster.json",
            "node-0",
            "node-1",
        ]
        with open(os.path.join(data_dir, "cluster.json")) as fh:
            assert json.load(fh)["version"] == 1

        assert (
            cli_main(["cluster", "status", "--manifest", data_dir, "--json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["replication"] == 1
        assert [row["alive"] for row in doc["nodes"]] == [True, True]
        assert [row["manifest_status"] for row in doc["nodes"]] == [
            "up",
            "up",
        ]

        with ClusterClient(data_dir) as client:
            for name in NAMES:
                client.create(name, kind="fixed", eps=0.02, n=100_000)
            for name, values in batches:
                client.ingest(name, values)
            for name, want in counts.items():
                _, _, n = client.query(name, [0.5])
                assert n == want
    finally:
        code = _stop(proc)
    assert code == 0

    # the same data dir comes back with every count recovered
    proc = _serve(data_dir, 2)
    try:
        _await_listening(proc)
        with ClusterClient(data_dir) as client:
            for name, want in counts.items():
                _, _, n = client.query(name, [0.5])
                assert n == want
    finally:
        code = _stop(proc)
    assert code == 0

    # a different worker count would re-route metrics: refused
    refused = subprocess.run(
        _serve_argv(data_dir, 3),
        capture_output=True,
        timeout=60,
        **_SUBPROCESS_KW,
    )
    assert refused.returncode != 0
    assert "2-node" in refused.stderr
