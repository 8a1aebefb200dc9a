"""The STATS observability extension: protocol detail byte, the obs
section of the response, and the client's uniform query surface."""

from __future__ import annotations

import os
import re
import resource

import numpy as np
import pytest

from repro.obs import hooks
from repro.service import protocol
from repro.service.client import QuantileClient
from repro.service.protocol import Opcode, Request
from repro.service.server import ServerThread


@pytest.fixture(autouse=True)
def _isolated_obs():
    hooks.reset()
    yield
    hooks.reset()


# -- wire format --------------------------------------------------------------


def test_stats_request_without_detail_is_pre_detail_format():
    payload = protocol.encode_request(Request(opcode=Opcode.STATS))
    assert payload == bytes([Opcode.STATS])  # byte-identical to v2
    req = protocol.decode_request(payload)
    assert req.detail == 0


def test_stats_request_detail_roundtrip():
    payload = protocol.encode_request(
        Request(opcode=Opcode.STATS, detail=1)
    )
    assert payload == bytes([Opcode.STATS, 1])
    req = protocol.decode_request(payload)
    assert req.detail == 1


def test_old_server_style_payload_still_decodes():
    # an old client frame (no trailing byte) must parse as detail=0
    req = protocol.decode_request(bytes([Opcode.STATS]))
    assert req.opcode == Opcode.STATS and req.detail == 0


# -- end to end ---------------------------------------------------------------


@pytest.fixture
def server_and_client():
    with ServerThread(n_shards=2) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            yield server, client


def test_stats_obs_section(server_and_client):
    _server, client = server_and_client
    client.create("obs/fixed", kind="fixed", eps=0.02, n=50_000)
    rng = np.random.default_rng(0)
    for _ in range(10):
        client.ingest("obs/fixed", rng.normal(size=5000))
    client.drain()
    client.quantile("obs/fixed", 0.5)

    stats = client.stats()
    obs = stats["obs"]
    assert obs["enabled"] is True

    (metric,) = [m for m in obs["metrics"] if m["name"] == "obs/fixed"]
    assert metric["n"] == 50_000
    assert metric["certified_bound"] > 0.0
    assert metric["certified_bound_fraction"] == pytest.approx(
        metric["certified_bound"] / 50_000
    )
    assert metric["collapses_by_level"]  # levels observed
    assert sum(metric["collapses_by_level"].values()) > 0

    # per-shard collapse-by-level aggregation reaches the shard table
    shard = stats["shards"][metric["shard"]]
    assert shard["collapses_by_level"] == metric["collapses_by_level"]

    # every opcode used above was self-metered
    ops = stats["obs"]["op_latency_ms"]
    for op in ("CREATE", "INGEST", "QUERY", "DRAIN", "STATS"):
        if op == "STATS":
            continue  # metered after its own response is built
        assert op in ops
        assert ops[op]["n"] >= 1
        assert "p50" in ops[op] and "p99" in ops[op]
        assert ops[op]["certified_rank_bound_fraction"] >= 0.0

    # obs counters flow through from the core hooks
    assert stats["obs"]["counters"]["core.elements_ingested"] >= 50_000


def test_stats_detail_adds_prometheus(server_and_client):
    _server, client = server_and_client
    client.create("p", kind="adaptive", eps=0.02)
    client.ingest("p", np.arange(10_000, dtype=np.float64))
    client.drain()

    plain = client.stats()
    assert "prometheus" not in plain

    detailed = client.stats(detail=1)
    prom = detailed["prometheus"]
    assert "# TYPE repro_core_collapse counter" in prom
    assert "repro_core_elements_ingested" in prom


def test_memory_gauges_in_stats_and_prometheus(tmp_path):
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=2,
        snapshot_interval_s=None,
    ) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            client.create("m/kll", engine="kll", eps=0.02)
            client.create("m/paper", eps=0.02, n=100_000)
            client.ingest("m/kll", np.arange(4000, dtype=np.float64))
            client.ingest("m/paper", np.arange(4000, dtype=np.float64))
            _seq, path = client.snapshot()
            snapshot_bytes = os.path.getsize(path)
            stats = client.stats(detail=1)

    gauges = stats["obs"]["gauges"]
    # the server thread shares this process, so its peak RSS is ours
    # (ru_maxrss only grows; it was read before the call below)
    peak = gauges["service.process.peak_rss_bytes"]
    assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert gauges["service.snapshot.last_bytes"] == snapshot_bytes
    # the exactly-once window holds the five tokened mutations above
    window_bytes = stats["resilience"]["dedup_window_bytes"]
    assert stats["resilience"]["dedup_window_tokens"] == 5
    assert 0 < window_bytes < 8192  # its initial ring, not its capacity
    assert gauges["service.dedup.window_bytes"] == window_bytes

    prom = stats["prometheus"]
    assert "# TYPE repro_service_process_peak_rss_bytes gauge" in prom
    assert f"repro_service_process_peak_rss_bytes {float(peak)!r}" in prom
    assert "# TYPE repro_service_snapshot_last_bytes gauge" in prom
    assert f"repro_service_snapshot_last_bytes {float(snapshot_bytes)!r}" in prom
    assert "# TYPE repro_service_dedup_window_bytes gauge" in prom
    assert f"repro_service_dedup_window_bytes {float(window_bytes)!r}" in prom


def test_client_quantiles_and_describe(server_and_client):
    _server, client = server_and_client
    client.create("q", kind="fixed", eps=0.01, n=20_000)
    client.ingest("q", np.arange(20_000, dtype=np.float64))
    client.drain()

    values = client.quantiles("q", [0.25, 0.5, 0.75])
    assert values == client.query("q", [0.25, 0.5, 0.75])[0]

    report = client.describe("q")
    assert report["n"] == 20_000
    assert report["min"] == 0.0
    assert report["max"] == 19_999.0
    assert abs(report["quantiles"][0.5] - 10_000) <= 0.01 * 20_000
    assert report["error_bound_fraction"] == pytest.approx(
        report["error_bound"] / 20_000
    )


def test_render_stats_text_shows_acceptance_fields(server_and_client):
    from repro.obs import render_stats_text

    _server, client = server_and_client
    client.create("r", kind="adaptive", eps=0.02)
    client.ingest("r", np.random.default_rng(2).normal(size=30_000))
    client.drain()
    client.quantile("r", 0.99)

    text = render_stats_text(client.stats())
    assert "shards" in text
    assert "cert. εN" in text
    assert "op latency (self-metered, ms)" in text
    assert "L1:" in text  # collapse counts by level
    assert "INGEST" in text and "QUERY" in text


def test_observability_opt_out():
    with ServerThread(n_shards=1, observability=False) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            client.create("s", kind="adaptive", eps=0.05)
            client.ingest("s", np.arange(5000, dtype=np.float64))
            client.drain()
            stats = client.stats()
            assert stats["obs"]["enabled"] is False
            # op latency is still self-metered (it costs one sketch
            # update per request, independent of the core hooks)
            assert "INGEST" in stats["obs"]["op_latency_ms"]
            # but no core hook state was recorded
            (metric,) = stats["obs"]["metrics"]
            assert "collapses_by_level" not in metric


# -- one registry behind STATS and Prometheus ---------------------------------


def _prom_samples(prom, family):
    """``{labels: value}`` for every sample of *family* on the page."""
    pattern = r"^%s(\{[^}]*\})? (\S+)$" % re.escape(family)
    return {
        labels or "": float(value)
        for labels, value in re.findall(pattern, prom, re.M)
    }


def test_prometheus_renders_the_stats_registry():
    with ServerThread(n_shards=2) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            for i in range(6):
                client.create(f"one/{i}", kind="adaptive", eps=0.02)
                client.ingest(f"one/{i}", np.arange(1000.0 * (i + 1)))
            client.drain()
            client.quantile("one/0", 0.5)
            stats = client.stats(detail=1)
    prom = stats["prometheus"]
    elements = _prom_samples(prom, "repro_service_ingest_elements")
    assert sorted(elements) == ['{shard="0"}', '{shard="1"}']
    assert sum(elements.values()) == stats["ingest"]["elements"] == 21_000
    for shard in stats["shards"]:
        key = '{shard="%d"}' % shard["shard"]
        assert elements[key] == shard["ingest_elements"]
    assert _prom_samples(prom, "repro_service_queries") == {"": 1.0}
    assert 'repro_service_op_latency_ms{op="INGEST",quantile="0.5"}' in prom
    assert 'repro_service_op_latency_ms_count{op="QUERY"} 1' in prom
    # distributions that are not durations carry no time unit
    assert 'repro_service_ingest_batch_size{quantile="0.9"}' in prom
    assert "batch_size_ms" not in prom and "frames_per_read_ms" not in prom
    # one percentile set: the sketch instruments' p50/p90/p99
    for pcts in (
        stats["queries"]["latency_ms"],
        stats["ingest"]["batch_size"],
        stats["coalescing"]["frames_per_read"],
    ):
        assert {"p50", "p90", "p99", "n"} <= set(pcts)
        assert "p95" not in pcts
    assert stats["ingest"]["batch_size"]["n"] == 6
    assert stats["obs"]["counters"]["service.ingest.batches"] == 6


def test_service_families_without_observability():
    # another registry holds the gate: the server must not see its
    # core.* families, and must still record its own service.* ones
    other = hooks.enable()
    with ServerThread(n_shards=1, observability=False) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            client.create("s", kind="adaptive", eps=0.05)
            client.ingest("s", np.arange(5000, dtype=np.float64))
            client.drain()
            stats = client.stats(detail=1)
    prom = stats["prometheus"]
    assert _prom_samples(prom, "repro_service_ingest_elements") == {
        '{shard="0"}': 5000.0
    }
    assert "repro_service_connections_total 1" in prom
    assert "repro_core_" not in prom
    counters = stats["obs"]["counters"]
    assert counters["service.ingest.elements"] == 5000
    assert not [name for name in counters if name.startswith("core.")]
    assert stats["obs"]["enabled"] is False
    assert other.total("core.elements_ingested") >= 5000


def test_each_server_starts_from_zero():
    with ServerThread(n_shards=1) as first:
        with QuantileClient("127.0.0.1", first.port) as client:
            client.create("z", kind="adaptive", eps=0.05)
            client.ingest("z", np.arange(1000, dtype=np.float64))
            client.drain()
            assert client.stats()["ingest"]["elements"] == 1000
    with ServerThread(n_shards=1) as second:
        with QuantileClient("127.0.0.1", second.port) as client:
            stats = client.stats()
    assert stats["ingest"]["elements"] == 0
    assert stats["queries"]["count"] == 0
    assert stats["obs"]["counters"].get("core.elements_ingested", 0) == 0
