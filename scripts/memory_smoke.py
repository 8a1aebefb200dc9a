#!/usr/bin/env python
"""CI smoke: a real server's peak memory follows sketch state, not traffic.

The server decodes INGEST values as zero-copy views into whole socket
reads (up to 4 MiB each).  An engine that kept such a view would pin the
chunk for as long as the metric lives, so a server with many cold
metrics would grow by about one chunk per metric that ever saw a batch.
This smoke reproduces that traffic shape against a real process:

1. start ``python -m repro serve --data-dir`` as a subprocess;
2. create one paper metric and 64 KLL metrics, then read the server's
   peak resident set (``VmHWM`` in ``/proc/<pid>/status``);
3. run 64 rounds, each a pipelined 1 MiB batch to the paper metric plus
   the first 64-value batch of one KLL metric, with a flush and a drain
   after each round;
4. fail if ``VmHWM`` grew more than 24 MiB past its post-CREATE value,
   or if any metric's count is wrong.

Linux only (reads ``/proc``).  Exit code 0 on success.

Usage::

    PYTHONPATH=src python scripts/memory_smoke.py [--port 7458]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=7458)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(2026)
    big = rng.lognormal(size=BIG)
    small = rng.lognormal(size=SMALL)

    with tempfile.TemporaryDirectory(prefix="repro-memory-") as data_dir:
        proc = start_server(args.port, data_dir)
        try:
            with QuantileClient("127.0.0.1", args.port) as client:
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
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    growth = peak - base
    print(
        f"memory smoke: VmHWM {base:.1f} MiB after CREATE, {peak:.1f} MiB "
        f"after {ROUNDS} rounds (+{growth:.1f} MiB, limit "
        f"+{MAX_GROWTH_MIB:.0f} MiB)"
    )
    if growth > MAX_GROWTH_MIB:
        print("FAIL: peak memory grew with traffic, not sketch state")
        return 1
    print("memory smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
