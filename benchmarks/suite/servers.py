"""Server processes under test: spawn through node.py, read /proc, stop."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Optional

from common import ROOT, SUITE_DIR

NODE = os.path.join(SUITE_DIR, "node.py")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(rb"listening on \S+:(\d+) ")

#: ``repro serve`` defaults except the deployment settings (port, data
#: dir; journal on, fsync off) and a snapshot interval short enough that
#: background snapshots complete several cycles in one run
SNAPSHOT_INTERVAL_S = 5


class ServerProc:
    """One ``repro serve`` child process (see node.py)."""

    def __init__(
        self,
        name: str,
        data_dir: str,
        log_path: str,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.name = name
        self.port = 0
        args = [sys.executable, NODE, "--name", name]
        if trace_dir is not None:
            args += ["--trace-dir", trace_dir]
        args += [
            "--", "--port", "0", "--data-dir", data_dir,
            "--snapshot-interval", str(SNAPSHOT_INTERVAL_S),
        ]
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the server prints its listening line; returns port."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            ready = select.select([fd], [], [], max(remaining, 0))[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"server {self.name} did not start (see {self.log_path})"
                )
            buf += chunk
        match = _LISTENING.search(buf)
        if match is None:
            raise RuntimeError(f"server {self.name} printed {buf!r}")
        self.port = int(match.group(1))
        return self.port

    def _proc_file(self, what: str) -> str:
        with open(f"/proc/{self.pid}/{what}", encoding="ascii") as fh:
            return fh.read()

    def peak_rss_mib(self) -> float:
        """``VmHWM``: the process's peak resident set, in MiB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User + system CPU seconds so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def wchar(self) -> int:
        """Bytes passed to write-family syscalls so far."""
        for line in self._proc_file("io").splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
        raise RuntimeError("no wchar in /proc io")

    def stop(self, *, kill: bool = False, timeout: float = 60.0) -> bool:
        """SIGTERM (graceful drain + final snapshot) or SIGKILL; then reap.

        Returns False when a SIGTERM'd server outlived *timeout* and had
        to be killed.
        """
        graceful = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                graceful = False
        self.proc.stdout.close()
        self._log.close()
        return graceful
