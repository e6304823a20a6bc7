"""Server processes: spawn ``repro serve``, wait for its banner, stop it.

Each server runs in its own interpreter so the load generator never
competes with it for the GIL.  ``setup_s`` is the time from spawn to
the ready banner, which the CLI prints only after the snapshot is open
and the listener is bound.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

_BANNER = re.compile(rb"on http://([0-9.]+):(\d+)")

#: Longest a start may take: a 10k-model warm start is a few seconds.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One running server; ``stop()`` it (or use ``with``) to reap it."""

    def __init__(self, argv: List[str], env: dict, log_path: str):
        self.argv = argv
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=self._log,
            )
        except OSError:
            self._log.close()
            raise
        try:
            self.host, self.port = self._await_banner(start + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_banner(self, deadline: float):
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"server did not start: {self.argv}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before its banner "
                    f"(see {self._log.name})"
                )
            match = _BANNER.search(line)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), then wait; SIGKILL only on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_argv(lake_dir: str, traced_spans: Optional[str] = None) -> List[str]:
    """``repro serve`` with CLI defaults, or its traced twin."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro", "serve", "--dir", lake_dir,
                "--port", "0"]
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traced_serve.py")
    return [sys.executable, launcher, "--spans", traced_spans,
            "serve", "--dir", lake_dir, "--port", "0"]


def server_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env
