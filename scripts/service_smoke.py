#!/usr/bin/env python
"""CI smoke for the quantile-sketch service: ingest, kill -9, recover.

Drives the full stack the way an operator would, as real OS processes:

1. start ``repro serve`` as a subprocess with a data directory, print
   its spawn-to-listening time, thread count and idle peak resident
   set (``VmHWM``), and fail if it runs more than one thread (nothing
   in the server calls BLAS, so numpy's OpenBLAS pool defaults to one
   thread);
2. batch-ingest from 4 concurrent client threads into one fixed metric
   (plus an adaptive metric from the main thread);
3. query quantiles and check the certified Lemma 5 bound matches an
   offline in-process sketch fed the same data, and that every answer
   honours the bound against true ranks;
4. force a snapshot mid-stream, keep ingesting so the tail lives only
   in the journal, record the exact answers;
5. ``SIGKILL`` the server (no shutdown hook runs), restart it on the
   same data directory, and require bit-identical answers;
6. keep ingesting after recovery to prove the server is fully live.

Exit code 0 on success; any assertion or timeout fails the job.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--port 7455]
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service import QuantileClient  # noqa: E402
from repro.service.protocol import MetricConfig  # noqa: E402
from repro.service.registry import SketchRegistry  # noqa: E402

PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
N_CLIENTS = 4
BATCHES_PER_CLIENT = 25
BATCH = 2_000
TOTAL = N_CLIENTS * BATCHES_PER_CLIENT * BATCH


#: what OpenBLAS reads for its pool size; kept out of the server's
#: environment so the thread check sees the server's own default
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
)


def peak_rss_mib(pid: int) -> "float | None":
    """The process's peak resident set (``VmHWM``) in MiB; None without
    procfs."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except FileNotFoundError:
        pass
    return None


def start_server(port: int, data_dir: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--data-dir", data_dir,
            "--shards", "2",
            "--snapshot-interval", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    if not select.select([proc.stdout], [], [], 15.0)[0]:
        proc.kill()
        raise SystemExit("server did not start listening within 15s")
    line = proc.stdout.readline().decode()
    if "listening on" not in line:
        proc.kill()
        out = line + proc.stdout.read().decode()
        raise SystemExit(f"server died on startup:\n{out}")
    spawn_s = time.perf_counter() - t0
    try:
        threads = len(os.listdir(f"/proc/{proc.pid}/task"))
    except FileNotFoundError:  # no procfs: nothing to count
        threads = None
    hwm = peak_rss_mib(proc.pid)
    print(f"      server pid {proc.pid}: listening {spawn_s:.3f} s after "
          f"spawn, {threads if threads is not None else '?'} thread(s), "
          f"VmHWM {f'{hwm:.2f}' if hwm is not None else '?'} MiB")
    if threads is not None and threads > 1:
        proc.kill()
        raise SystemExit(
            f"a freshly started server runs {threads} threads, not 1"
        )
    return proc


def concurrent_ingest(port: int, parts: list) -> None:
    errors: list = []

    def worker(part: np.ndarray) -> None:
        try:
            with QuantileClient("127.0.0.1", port) as client:
                for batch in np.split(part, BATCHES_PER_CLIENT):
                    client.ingest_nowait("smoke/fixed", batch)
                client.flush()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(part,)) for part in parts
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise SystemExit(f"concurrent ingest failed: {errors[0]!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=7455)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(2026)
    data = rng.permutation(TOTAL).astype(np.float64)
    adaptive_data = rng.exponential(size=5_000)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as data_dir:
        proc = start_server(args.port, data_dir)
        try:
            with QuantileClient("127.0.0.1", args.port) as client:
                client.create(
                    "smoke/fixed", kind="fixed", eps=0.02, n=TOTAL
                )
                client.create(
                    "smoke/adaptive", kind="adaptive", eps=0.02
                )

            print(f"[1/5] concurrent ingest: {N_CLIENTS} clients x "
                  f"{BATCHES_PER_CLIENT} batches x {BATCH} values")
            concurrent_ingest(args.port, list(np.split(data, N_CLIENTS)))

            with QuantileClient("127.0.0.1", args.port) as client:
                client.ingest("smoke/adaptive", adaptive_data[:3_000])
                values, bound, n = client.query("smoke/fixed", PHIS)
                assert n == TOTAL, f"expected n={TOTAL}, got {n}"

                print("[2/5] certified bound vs offline sketch")
                offline = SketchRegistry(n_shards=1)
                offline.create(
                    "smoke/fixed",
                    MetricConfig(kind="fixed", epsilon=0.02, n=TOTAL),
                )
                offline.ingest("smoke/fixed", data)
                _, offline_bound, offline_n = offline.quantiles(
                    "smoke/fixed", PHIS
                )
                assert bound == offline_bound, (
                    f"certified bound diverged: service {bound}, "
                    f"offline {offline_bound}"
                )
                assert n == offline_n
                for phi, value in zip(PHIS, values):
                    err = abs((value + 1) - phi * TOTAL)
                    assert err <= bound + 1, (
                        f"phi={phi}: |rank error| {err} > bound {bound}"
                    )

                print("[3/5] snapshot mid-stream + journal-only tail")
                client.snapshot()
                client.ingest("smoke/fixed", rng.uniform(
                    0, TOTAL, size=4_096
                ))
                client.ingest("smoke/adaptive", adaptive_data[3_000:])
                client.drain()
                before = {
                    name: client.query(name, PHIS)
                    for name in ("smoke/fixed", "smoke/adaptive")
                }

            print(f"[4/5] SIGKILL pid {proc.pid}, restart, compare")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            proc = start_server(args.port, data_dir)

            with QuantileClient("127.0.0.1", args.port) as client:
                for name, want in before.items():
                    got = client.query(name, PHIS)
                    assert got == want, (
                        f"{name} diverged after recovery:\n"
                        f"  before: {want}\n   after: {got}"
                    )
                stats = client.stats()
                recovered = stats["durability"]["journal_records_recovered"]
                assert recovered > 0, "nothing replayed from the journal"

                print(f"[5/5] post-recovery ingest (replayed "
                      f"{recovered} journal records)")
                client.ingest("smoke/fixed", rng.uniform(
                    0, TOTAL, size=1_000
                ))
                _, _, n_after = client.query("smoke/fixed", [0.5])
                assert n_after == before["smoke/fixed"][2] + 1_000

            print("service smoke OK: concurrent ingest, certified "
                  "answers, SIGKILL recovery all bit-identical")
            return 0
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
