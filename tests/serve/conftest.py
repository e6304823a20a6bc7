"""Serve-layer fixtures: a saved lake and an in-process HTTP server.

The server runs a real :class:`~repro.serve.server.LakeServer` on a
private event loop in a daemon thread, so tests exercise the actual
socket path (HTTP parsing, keep-alive, micro-batching) rather than the
handlers in isolation.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro.lake import save_lake
from repro.serve import LakeServer, LakeSnapshot, ServeConfig


@pytest.fixture(scope="session")
def serve_lake_dir(lake_bundle, tmp_path_factory):
    """The shared generated lake, saved sharded for snapshot opens."""
    directory = str(tmp_path_factory.mktemp("serve") / "lake")
    save_lake(lake_bundle.lake, directory, sharded=True)
    return directory


class ServerHarness:
    """Own a snapshot + LakeServer on a background event loop."""

    def __init__(self, directory: str, workers: int = 2, max_batch: int = 64):
        self.snapshot = LakeSnapshot.open(directory)
        self.server = LakeServer(
            self.snapshot,
            ServeConfig(
                directory=directory, host="127.0.0.1", port=0,
                workers=workers, max_batch=max_batch,
            ),
        )
        self._loop = asyncio.new_event_loop()
        self._stop_event = None
        self._ready = threading.Event()
        self._failure = None
        self._thread = threading.Thread(
            target=self._run, name="test-serve-loop", daemon=True
        )
        self.port = 0

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 - re-raised by stop()
            self._failure = exc
            self._ready.set()
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def start(self) -> "ServerHarness":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("test server did not start")
        if self._failure is not None:
            raise RuntimeError(f"test server failed: {self._failure}")
        return self

    def stop(self) -> None:
        with contextlib.suppress(RuntimeError):
            # Loop already closed if the server crashed; re-raised below.
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60)
        if self._failure is not None:
            raise RuntimeError(f"test server crashed: {self._failure}")

    # -- tiny HTTP client ----------------------------------------------
    def get(self, target: str):
        """(status, parsed-json) for one GET on a fresh connection."""
        conn = HTTPConnection("127.0.0.1", self.port)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def post(self, target: str, payload: dict):
        conn = HTTPConnection("127.0.0.1", self.port)
        try:
            body = json.dumps(payload)
            conn.request(
                "POST", target, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def search(self, query: str, k: int = 5, method: str = "hybrid"):
        return self.get(
            f"/search?q={quote(query)}&k={k}&method={method}"
        )


@pytest.fixture()
def make_server(serve_lake_dir):
    """Factory for per-test servers with custom batching knobs."""
    harnesses = []

    def factory(**kwargs) -> ServerHarness:
        harness = ServerHarness(serve_lake_dir, **kwargs).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        with contextlib.suppress(RuntimeError):
            harness.stop()


@pytest.fixture(scope="module")
def server(serve_lake_dir):
    """One long-lived batching server shared by a test module."""
    harness = ServerHarness(serve_lake_dir).start()
    yield harness
    harness.stop()
