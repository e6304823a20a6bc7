"""Stdlib-asyncio HTTP/JSON server over one lake snapshot.

One process, one event loop, one :class:`LakeSnapshot`.  The loop
thread only parses requests and shuffles bytes; every search is scored
on a small thread pool through the micro-batcher, so the GIL-releasing
BLAS work of one batch overlaps the collection of the next.

Endpoints (all JSON):

* ``GET /search?q=...&k=10&method=hybrid`` — ranked models; ``POST``
  with a ``{"q": ..., "k": ..., "method": ...}`` body is equivalent.
* ``GET /model/<id>`` — one record's metadata view.
* ``GET /healthz`` — liveness (200 serving, 503 draining).
* ``GET /stats`` — lake facts plus a full metrics snapshot (the
  ``serve.*`` histograms carry per-endpoint p50/p99).

Shutdown is graceful: the listener closes first, requests already in
flight run to completion, the batcher drains its tail, and only then
does the snapshot release its memmap handles.  New requests racing the
drain get ``503`` with ``Retry-After``, never a connection reset.

Tracing: each request records a manually-constructed span parented to
the CLI root (the thread-local ``with trace()`` stack cannot span an
``await`` — interleaved tasks would mis-nest).  Engine work records its
own spans on the executor thread; :meth:`LakeServer._run_batch`, which
scores each batch the micro-batcher dispatches, re-parents that subtree
into the same trace, so ``repro trace report`` shows one tree.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.search.engine import SEARCH_METHODS
from repro.errors import ConfigError, ModelNotFoundError, QueryError
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    SERVE_ERRORS,
    SERVE_HEALTH_LATENCY,
    SERVE_IN_FLIGHT,
    SERVE_MODEL_LATENCY,
    SERVE_REJECTED,
    SERVE_REQUESTS,
    SERVE_SEARCH_LATENCY,
    SERVE_STATS_LATENCY,
)
from repro.obs.logging import get_logger
from repro.obs.propagate import TraceContext, capture_context
from repro.obs.tracing import (
    Span,
    export_span,
    next_span_id,
    trace,
    tracing_enabled,
)
from repro.serve.batching import MicroBatcher
from repro.serve.snapshot import LakeSnapshot

_log = get_logger("serve.server")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Endpoint -> latency histogram name (the SLO surface).
_LATENCY = {
    "search": SERVE_SEARCH_LATENCY,
    "model": SERVE_MODEL_LATENCY,
    "stats": SERVE_STATS_LATENCY,
    "healthz": SERVE_HEALTH_LATENCY,
}

_MAX_BODY = 1 << 20  # requests are tiny; anything bigger is abuse
_MAX_HEADERS = 100  # clients send a handful; an unbounded run is abuse
#: Seconds a started request (its request line has arrived) has to
#: deliver its headers and body; past it the server answers 408 and
#: closes.  The idle wait for the next request line on a keep-alive
#: connection has no deadline.
_REQUEST_DEADLINE_S = 10.0


class _BadRequest(Exception):
    """A request the front end answers with ``status`` and a close."""

    status = 400


class _RequestTimeout(_BadRequest):
    """Headers and body did not arrive within the request deadline."""

    status = 408


class _LengthRequired(_BadRequest):
    """A body framed other than by ``Content-Length`` (chunked, say)."""

    status = 411


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:
        # The line outgrew the StreamReader limit before its newline.
        raise _BadRequest("line too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
    """One request as ``(method, target, version, headers, body)``.

    ``None`` means the client closed the connection between requests;
    :class:`_BadRequest` means a malformed or oversized request,
    :class:`_LengthRequired` one whose body is not framed by
    ``Content-Length``, and :class:`_RequestTimeout` one whose headers
    and body outlasted :data:`_REQUEST_DEADLINE_S`.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    # ``asyncio.timeout``, not ``wait_for``: wait_for runs the read in a
    # new task, which costs every request extra event-loop rounds.
    try:
        async with asyncio.timeout(_REQUEST_DEADLINE_S):
            headers, body = await _read_headers_and_body(reader)
    except TimeoutError:
        raise _RequestTimeout("request not received in time") from None
    http_method, target, version = parts
    return http_method, target, version, headers, body


async def _read_headers_and_body(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, str], bytes]:
    headers: Dict[str, str] = {}
    count = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        count += 1
        if count > _MAX_HEADERS:
            raise _BadRequest("too many headers")
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise _BadRequest("conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # Only Content-Length framing is read; a chunked body left
        # unread would be parsed as the next request.
        raise _LengthRequired("Transfer-Encoding is not supported; "
                              "send a Content-Length")
    length = _content_length(headers.get("content-length"))
    if length is None:
        raise _BadRequest("bad Content-Length")
    if length > _MAX_BODY:
        raise _BadRequest("body too large")
    body = await reader.readexactly(length) if length else b""
    return headers, body


def _content_length(value: Optional[str]) -> Optional[int]:
    """Body length from a ``Content-Length`` value; 0 when absent.

    ``None`` means the value is not a plain run of ASCII digits (empty,
    signed, or non-numeric), which the caller answers with 400.
    """
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        return None
    return int(value)


def _parse_k(value: Any) -> Optional[int]:
    """``k`` from a query-string value or a JSON number; None if invalid.

    Strings go through ``int``; from JSON only a true integer is
    accepted, so floats (``2.7``, ``1e400``) and booleans are rejected
    instead of being truncated.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


@dataclass
class ServeConfig:
    """Knobs for one server instance."""

    directory: str
    host: str = "127.0.0.1"
    port: int = 8484
    #: Scoring threads; also the most batches the batcher keeps in flight.
    workers: int = 2
    max_batch: int = 64


class LakeServer:
    """The serving loop: snapshot + batcher + HTTP front end."""

    def __init__(self, snapshot: LakeSnapshot, config: ServeConfig):
        self.snapshot = snapshot
        self.config = config
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.workers),
            thread_name_prefix="repro-serve",
        )
        self._batcher = MicroBatcher(
            self._run_batch,
            executor=self._executor,
            workers=config.workers,
            max_batch=config.max_batch,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._context: Optional[TraceContext] = None
        self._draining = False
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._started_at = time.time()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        # Captured on the loop thread, where the CLI root span lives.
        self._context = capture_context()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._started_at = time.time()
        _log.info(
            "server.started", host=self.config.host, port=self.port,
            models=len(self.snapshot.lake), workers=self.config.workers,
        )

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then release."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        await self._batcher.drain()
        # Established keep-alive connections outlive the listener: close
        # them so the idle handlers (parked on readline) wake and exit
        # before the loop does, instead of being destroyed pending.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        self._executor.shutdown(wait=True)
        self.snapshot.close()
        _log.info("server.stopped", port=self.config.port)

    # -- engine bridge (runs on executor threads) ----------------------
    def _run_batch(self, triples: List[Tuple[str, int, str]]) -> List[Any]:
        with trace("serve.batch", size=len(triples)) as span:
            if span is not None and self._context is not None:
                # Fresh executor thread => trace() opened a root span.
                # Re-parent it (before any child opens) so the engine's
                # span subtree lands under the server's CLI root.
                span.parent_id = self._context.parent_span_id
                span.trace_id = self._context.trace_id
            return self.snapshot.engine.search_batch(triples)

    # -- per-request span (manual: survives awaits) --------------------
    def _begin_span(self, endpoint: str, target: str) -> Optional[Span]:
        if not tracing_enabled():
            return None
        span_id = next_span_id()
        context = self._context
        return Span(
            name=f"serve.request.{endpoint}",
            span_id=span_id,
            parent_id=context.parent_span_id if context else None,
            trace_id=context.trace_id if context else span_id,
            start=time.perf_counter(),
            start_unix=time.time(),
            attributes={"target": target},
        )

    @staticmethod
    def _end_span(span: Optional[Span], status: int) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        span.attributes["status"] = status
        if status >= 500:
            span.status = f"error:{status}"
        export_span(span)

    # -- HTTP front end ------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, False
                    )
                    break
                if request is None:
                    break
                http_method, target, version, headers, body = request
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload = await self._dispatch(
                    http_method, target, body
                )
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            # A client hanging up mid-request is routine, not an error.
            _log.debug("client.disconnected")
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        data = json.dumps(payload, default=str).encode()
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n"
        )
        if status == 503:
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + data)
        await writer.drain()

    # -- routing -------------------------------------------------------
    async def _dispatch(
        self, http_method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            split = urlsplit(target)
        except ValueError:  # e.g. "//[x": an unterminated IPv6 host
            return 400, {"error": f"malformed request target {target!r}"}
        path = unquote(split.path)
        endpoint = self._endpoint_of(path)
        obs_metrics.inc(SERVE_REQUESTS)
        if self._draining and endpoint != "healthz":
            obs_metrics.inc(SERVE_REJECTED)
            return 503, {"error": "draining", "retry_after": 1}
        span = self._begin_span(endpoint or "unknown", path)
        self._in_flight += 1
        self._idle.clear()
        obs_metrics.set_gauge(SERVE_IN_FLIGHT, self._in_flight)
        start = time.perf_counter()
        try:
            status, payload = await self._route(
                http_method, path, split.query, body, endpoint
            )
        except (ConfigError, QueryError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad request must
            # not take down the serving loop; 5xx is the contract.
            _log.warning("request.failed", path=path, error=str(exc))
            status, payload = 500, {"error": f"internal error: {exc}"}
        finally:
            self._in_flight -= 1
            obs_metrics.set_gauge(SERVE_IN_FLIGHT, self._in_flight)
            if self._in_flight == 0:
                self._idle.set()
        if status >= 500:
            obs_metrics.inc(SERVE_ERRORS)
        if endpoint is not None:
            obs_metrics.observe(
                _LATENCY[endpoint], time.perf_counter() - start
            )
        self._end_span(span, status)
        return status, payload

    @staticmethod
    def _endpoint_of(path: str) -> Optional[str]:
        if path == "/search":
            return "search"
        if path.startswith("/model/"):
            return "model"
        if path == "/healthz":
            return "healthz"
        if path == "/stats":
            return "stats"
        return None

    async def _route(
        self,
        http_method: str,
        path: str,
        query_string: str,
        body: bytes,
        endpoint: Optional[str],
    ) -> Tuple[int, Dict[str, Any]]:
        if endpoint is None:
            return 404, {"error": f"no route for {path!r}"}
        if endpoint == "healthz":
            return 200, {"status": "draining" if self._draining else "ok"}
        if endpoint == "stats":
            return 200, self._stats_payload()
        if endpoint == "model":
            return self._model_payload(path[len("/model/"):])
        # /search: GET query string or POST JSON body.
        if http_method not in ("GET", "POST"):
            return 405, {"error": f"{http_method} not allowed on /search"}
        params: Dict[str, Any] = {
            key: values[-1] for key, values in parse_qs(query_string).items()
        }
        if http_method == "POST" and body:
            try:
                payload = json.loads(body.decode())
            except (ValueError, UnicodeDecodeError):
                return 400, {"error": "body is not valid JSON"}
            if not isinstance(payload, dict):
                return 400, {"error": "body must be a JSON object"}
            params.update(payload)
        query = params.get("q") or params.get("query") or ""
        if not isinstance(query, str):
            return 400, {"error": "q must be a string"}
        query = query.strip()
        if not query:
            return 400, {"error": "missing query parameter 'q'"}
        k = _parse_k(params.get("k", 10))
        if k is None:
            return 400, {"error": f"k must be an integer, got {params.get('k')!r}"}
        if k < 1:
            return 400, {"error": f"k must be >= 1, got {k}"}
        method = str(params.get("method", "hybrid"))
        if method not in SEARCH_METHODS or method == "weight":
            allowed = [m for m in SEARCH_METHODS if m != "weight"]
            return 400, {
                "error": f"unknown method {method!r}; expected one of {allowed}"
            }
        hits = await self._batcher.submit(query, k, method)
        return 200, {
            "query": query,
            "k": k,
            "method": method,
            "results": [
                {"model_id": hit.model_id, "score": hit.score}
                for hit in hits
            ],
        }

    def _model_payload(self, model_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            record = self.snapshot.lake.get_record(model_id)
        except ModelNotFoundError:
            return 404, {"error": f"no model {model_id!r}"}
        return 200, {
            "model_id": record.model_id,
            "name": record.name,
            "family": record.family,
            "weights_digest": record.weights_digest,
            "created_at": record.created_at,
            "tags": list(record.tags),
            "eval_metrics": dict(record.eval_metrics),
            "history_public": record.history_public,
            "weights_public": record.weights_public,
            "card_completeness": record.card.completeness(),
        }

    def _stats_payload(self) -> Dict[str, Any]:
        return {
            "directory": self.snapshot.directory,
            "models": len(self.snapshot.lake),
            "uptime_seconds": time.time() - self._started_at,
            "open_weight_handles": self.snapshot.open_handles,
            "batching": {
                "max_batch": self.config.max_batch,
                "workers": self.config.workers,
            },
            "draining": self._draining,
            "metrics": obs_metrics.get_registry().snapshot(),
        }


async def _serve(server: LakeServer, ready=None) -> int:
    await server.start()
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    with contextlib.suppress(NotImplementedError, RuntimeError):
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop_requested.set)
    if ready is not None:
        ready(server)
    await stop_requested.wait()
    _log.info("server.draining", port=server.port)
    await server.stop()
    return 0


def run_server(config: ServeConfig, ready=None) -> int:
    """Blocking entry point used by ``repro serve``.

    The snapshot opens *before* the event loop exists — engine warm-up
    is seconds of blocking work that has no business inside a coroutine.
    ``ready`` (for the CLI banner and tests) receives the started
    :class:`LakeServer` before the loop parks on the shutdown signal.
    """
    snapshot = LakeSnapshot.open(config.directory)
    server = LakeServer(snapshot, config)
    return asyncio.run(_serve(server, ready=ready))
