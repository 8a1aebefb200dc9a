#!/usr/bin/env python
"""CI smoke: a real server's peak memory follows sketch state, not traffic.

Four phases, each against a fresh ``python -m repro serve --data-dir``
subprocess.  The first two fail on the growth of the server's peak
resident set (``VmHWM`` in ``/proc/<pid>/status``) past its post-CREATE
value; the third on what an idle server holds at all; the fourth on
what each small metric costs.

**Receive chunks.**  The server decodes INGEST values as zero-copy views
into whole socket reads (up to 256 KiB, or one frame that spans
reads).  An engine that kept such a
view would pin the chunk for as long as the metric lives, so a server
with many cold metrics would grow by about one chunk per metric that
ever saw a batch.  The phase creates one paper metric and 64 KLL
metrics, then runs 64 rounds, each a pipelined 1 MiB batch to the
paper metric plus the first 64-value batch of one KLL metric, with a
flush and a drain after each round.  Limit: +24 MiB.

**Per-request bookkeeping.**  Every INGEST carries an idempotency
token the server remembers (up to 65 536 of them) and counts toward
its recent ingest rate.  Both ledgers are flat arrays, so a full token
window costs a couple of MiB; one Python object per batch would cost
about 20.  The phase sends 65 536 pipelined one-value INGESTs to one
metric.  Limit: +10 MiB.

**Idle server.**  A server that has only started listening should
cost little more than the interpreter and numpy it needs.  The phase
compares its ``VmHWM`` with that of ``python -c "import numpy"`` on the
same host, which keeps the limit independent of the machine: the gap
is about 6 MiB, and an event-loop stack with its TLS and executor
modules (``asyncio``, ``ssl``, ``concurrent.futures``) adds about 6
more.  Limit: +9 MiB.

**Per-metric footprint.**  The paper's budget is the sketch's data; a
metric should not cost much more than that in bookkeeping.  The phase
CREATEs 2 000 metrics of each engine (paper, KLL, Frugal-2U), sends one
64-value batch to each and drains, then divides the growth of
``VmHWM`` over the listening server's by the 6 000 metrics.  Measured
on a 2-vCPU x86_64 VM (Python 3.11): 1.74-1.75 KiB per metric before
equal configs and the collapse policies were shared, the obs per-level
counters made lazy, the sketch objects slotted and the banks' partition
scratch allocated per call; 1.25-1.26 KiB after.  Limit: 1.5 KiB.

Every phase but the idle one also fails if a metric's count is wrong.  Linux
only (reads ``/proc``).  Exit code 0 on success.

Usage::

    PYTHONPATH=src python scripts/memory_smoke.py [--port 7458]

The second phase listens on ``port + 1``, the third on ``port + 2``,
the fourth on ``port + 3``.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service import QuantileClient  # noqa: E402

N_KLL = 64
ROUNDS = 64
BIG = (1 << 20) // 8  # values in a 1 MiB batch
SMALL = 64
MAX_GROWTH_MIB = 24.0

#: one-value INGESTs of the bookkeeping phase (a full token window)
N_TINY = 65536
MAX_TINY_GROWTH_MIB = 10.0

#: an idle server's VmHWM above a bare ``import numpy`` interpreter
MAX_IDLE_GAP_MIB = 9.0

#: metrics per engine in the footprint phase, and its per-metric limit
N_PER_ENGINE = 2000
MAX_KIB_PER_METRIC = 1.5

_NUMPY_HWM = """
import numpy
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        print(line.split()[1])
"""


def start_server(port: int, data_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--data-dir", data_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read().decode() if proc.stdout else ""
            raise SystemExit(f"server died on startup:\n{out}")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise SystemExit("server did not start listening within 15s")


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc status")


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def chunk_phase(port: int) -> float:
    """VmHWM growth (MiB) over the receive-chunk traffic."""
    rng = np.random.default_rng(2026)
    big = rng.lognormal(size=BIG)
    small = rng.lognormal(size=SMALL)
    with tempfile.TemporaryDirectory(prefix="repro-memory-") as data_dir:
        proc = start_server(port, data_dir)
        try:
            with QuantileClient("127.0.0.1", port) as client:
                client.create("mem/paper", eps=0.01, n=1 << 30)
                for i in range(N_KLL):
                    client.create(f"mem/kll/{i}", engine="kll", eps=0.01)
                base = peak_rss_mib(proc.pid)
                for i in range(ROUNDS):
                    client.ingest_nowait("mem/paper", big)
                    client.ingest_nowait(f"mem/kll/{i % N_KLL}", small)
                    client.flush()
                    client.drain()
                peak = peak_rss_mib(proc.pid)
                assert client.describe("mem/paper")["n"] == ROUNDS * BIG
                for i in range(N_KLL):
                    n = client.describe(f"mem/kll/{i}")["n"]
                    assert n == SMALL * (ROUNDS // N_KLL), (i, n)
        finally:
            stop_server(proc)
    print(
        f"chunk phase: VmHWM {base:.1f} MiB after CREATE, {peak:.1f} MiB "
        f"after {ROUNDS} rounds (+{peak - base:.1f} MiB, limit "
        f"+{MAX_GROWTH_MIB:.0f} MiB)"
    )
    return peak - base


def bookkeeping_phase(port: int) -> float:
    """VmHWM growth (MiB) over a full window of one-value INGESTs."""
    value = np.ones(1)
    with tempfile.TemporaryDirectory(prefix="repro-memory-") as data_dir:
        proc = start_server(port, data_dir)
        try:
            with QuantileClient("127.0.0.1", port) as client:
                client.create("mem/tiny", engine="kll", eps=0.01)
                base = peak_rss_mib(proc.pid)
                for _ in range(N_TINY):
                    client.ingest_nowait("mem/tiny", value)
                client.flush()
                client.drain()
                peak = peak_rss_mib(proc.pid)
                tokens = client.stats()["resilience"]["dedup_window_tokens"]
                assert client.describe("mem/tiny")["n"] == N_TINY
                assert tokens == N_TINY, tokens
        finally:
            stop_server(proc)
    print(
        f"bookkeeping phase: VmHWM {base:.1f} MiB after CREATE, "
        f"{peak:.1f} MiB after {N_TINY} one-value INGESTs "
        f"(+{peak - base:.1f} MiB, limit +{MAX_TINY_GROWTH_MIB:.0f} MiB)"
    )
    return peak - base


def idle_phase(port: int) -> float:
    """An idle server's VmHWM (MiB) above ``import numpy``'s."""
    floor = int(
        subprocess.run(
            [sys.executable, "-c", _NUMPY_HWM],
            capture_output=True, text=True, check=True,
        ).stdout
    ) / 1024.0
    with tempfile.TemporaryDirectory(prefix="repro-memory-") as data_dir:
        proc = start_server(port, data_dir)
        try:
            idle = peak_rss_mib(proc.pid)
        finally:
            stop_server(proc)
    print(
        f"idle phase: VmHWM {idle:.1f} MiB listening, {floor:.1f} MiB for "
        f"import numpy (+{idle - floor:.1f} MiB, limit "
        f"+{MAX_IDLE_GAP_MIB:.0f} MiB)"
    )
    return idle - floor


def footprint_phase(port: int) -> float:
    """VmHWM growth (KiB) per metric for 6 000 one-batch metrics."""
    engines = ("paper", "kll", "frugal")
    names = [f"mem/{eng}/{i}" for eng in engines for i in range(N_PER_ENGINE)]
    batch = np.random.default_rng(2027).lognormal(size=SMALL)
    with tempfile.TemporaryDirectory(prefix="repro-memory-") as data_dir:
        proc = start_server(port, data_dir)
        try:
            base = peak_rss_mib(proc.pid)
            with QuantileClient("127.0.0.1", port) as client:
                for name in names:
                    engine = name.split("/")[1]
                    n = 10_000_000 if engine == "paper" else None
                    client.create(name, eps=0.01, n=n, engine=engine)
                for name in names:
                    client.ingest_nowait(name, batch)
                client.flush()
                client.drain()
                peak = peak_rss_mib(proc.pid)
                for name in names[:: N_PER_ENGINE // 4]:
                    assert client.describe(name)["n"] == SMALL, name
        finally:
            stop_server(proc)
    per_metric = (peak - base) * 1024.0 / len(names)
    print(
        f"footprint phase: VmHWM {base:.1f} MiB listening, {peak:.1f} MiB "
        f"with {len(names)} one-batch metrics ({per_metric:.2f} KiB per "
        f"metric, limit {MAX_KIB_PER_METRIC:.1f} KiB)"
    )
    return per_metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=7458)
    args = parser.parse_args(argv)

    failed = False
    if chunk_phase(args.port) > MAX_GROWTH_MIB:
        print("FAIL: peak memory grew with traffic, not sketch state")
        failed = True
    if bookkeeping_phase(args.port + 1) > MAX_TINY_GROWTH_MIB:
        print("FAIL: per-request bookkeeping grew by a Python object a batch")
        failed = True
    if idle_phase(args.port + 2) > MAX_IDLE_GAP_MIB:
        print("FAIL: an idle server holds modules it does not serve with")
        failed = True
    if footprint_phase(args.port + 3) > MAX_KIB_PER_METRIC:
        print("FAIL: a small metric's bookkeeping outweighs its data")
        failed = True
    if failed:
        return 1
    print("memory smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
