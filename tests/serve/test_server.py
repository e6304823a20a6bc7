"""HTTP-level tests for the lake server: endpoints, parity, shutdown."""

import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

#: asyncio's default StreamReader limit: the longest line it will read.
_STREAM_LIMIT = 64 * 1024


def _responses(received: bytes):
    """Split the bytes of a connection into ``(head, body)`` responses."""
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        responses.append((head, rest[:length]))
        received = rest[length:]
    return responses


def _raw_exchange(port: int, request: bytes):
    """Send raw bytes, read until the server closes; (head, body) of the
    one response it sent (a second response fails the unpacking)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:  # the server closed the connection
                break
            received += chunk
    [response] = _responses(received)
    return response


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = server.get("/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_search_get(self, server):
        status, payload = server.search("legal court statute", k=3)
        assert status == 200
        assert payload["method"] == "hybrid"
        assert payload["k"] == 3
        assert 1 <= len(payload["results"]) <= 3
        for hit in payload["results"]:
            assert hit["model_id"]
            assert isinstance(float(hit["score"]), float)

    def test_search_post_body(self, server):
        status, payload = server.post(
            "/search", {"q": "medical diagnosis", "k": 2, "method": "behavioral"}
        )
        assert status == 200
        assert payload["method"] == "behavioral"
        assert len(payload["results"]) <= 2

    def test_search_matches_sequential_engine(self, server):
        engine = server.server.snapshot.engine
        for method in ("hybrid", "behavioral", "keyword"):
            status, payload = server.search("legal court statute", k=5,
                                            method=method)
            assert status == 200
            expected = engine.search("legal court statute", k=5, method=method)
            assert [h["model_id"] for h in payload["results"]] == [
                h.model_id for h in expected
            ]
            for served, direct in zip(payload["results"], expected):
                assert float(served["score"]) == pytest.approx(
                    float(direct.score), abs=1e-9
                )

    def test_search_missing_query(self, server):
        status, payload = server.get("/search?k=3")
        assert status == 400
        assert "q" in payload["error"]

    def test_search_bad_k(self, server):
        status, _ = server.get("/search?q=legal&k=zero")
        assert status == 400
        status, _ = server.get("/search?q=legal&k=0")
        assert status == 400

    def test_search_bad_method(self, server):
        status, payload = server.get("/search?q=legal&method=psychic")
        assert status == 400
        assert "psychic" in payload["error"]

    def test_search_weight_method_rejected(self, server):
        status, _ = server.get("/search?q=legal&method=weight")
        assert status == 400

    def test_search_wrong_http_method(self, server):
        conn = HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("PUT", "/search?q=legal")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_model_endpoint(self, server):
        record = next(iter(server.server.snapshot.lake))
        status, payload = server.get(f"/model/{record.model_id}")
        assert status == 200
        assert payload["model_id"] == record.model_id
        assert payload["weights_digest"] == record.weights_digest
        assert payload["family"] == record.family
        assert 0.0 <= payload["card_completeness"] <= 1.0

    def test_model_not_found(self, server):
        status, _ = server.get("/model/nope-such-model")
        assert status == 404

    def test_unknown_route(self, server):
        status, _ = server.get("/nope")
        assert status == 404

    def test_stats(self, server):
        server.search("legal court statute", k=2)
        status, payload = server.get("/stats")
        assert status == 200
        assert payload["models"] == len(server.server.snapshot.lake)
        assert payload["batching"] == {"max_batch": 64, "workers": 2}
        assert payload["draining"] is False
        flat = str(payload["metrics"])
        assert "serve.requests" in flat
        assert "serve.search.latency_seconds" in flat

    def test_keep_alive_reuses_connection(self, server):
        conn = HTTPConnection("127.0.0.1", server.port)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("body", [
        b"[1,2]",
        b"5",
        b"null",
        b'{"q": "legal", "k": 1e400}',
        b'{"q": ["a b"]}',
        b'{"q": {"a": 1}}',
        b'{"q": "legal", "k": 2.7}',
        b'{"q": "legal", "k": true}',
    ])
    def test_malformed_search_body_is_400(self, server, body):
        request = (
            b"POST /search HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 400 "), (head, payload)
        assert "error" in json.loads(payload)

    def test_query_string_k_still_parses(self, server):
        request = (
            b"GET /search?q=legal&k=10 HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n"
        )
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 200 "), (head, payload)
        assert json.loads(payload)["k"] == 10

    @pytest.mark.parametrize("value", ["abc", "-5", ""])
    def test_bad_content_length_is_400_then_close(self, server, value):
        request = (
            f"POST /search HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {value}\r\n\r\n"
        ).encode("latin-1")
        head, body = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "bad Content-Length"}

    def test_chunked_post_gets_one_411_then_close(self, server):
        body = b'{"q": "legal"}'
        request = (
            b"POST /search HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 411 Length Required"), head
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(payload)["error"]

    def test_conflicting_content_lengths_get_one_400_then_close(self, server):
        body = b'{"q": "legal"}'
        request = (
            b"POST /search HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\nContent-Length: 2\r\n\r\n%s"
            % (len(body), body)
        )
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(payload) == {
            "error": "conflicting Content-Length headers"
        }

    def test_unparseable_target_is_400(self, server):
        request = b"GET //[::1/search?q=legal HTTP/1.1\r\nConnection: close\r\n\r\n"
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert "malformed request target" in json.loads(payload)["error"]

    def test_repeated_equal_content_lengths_are_accepted(self, server):
        body = b'{"q": "legal", "k": 2}'
        request = (
            b"POST /search HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), len(body), body)
        )
        head, payload = _raw_exchange(server.port, request)
        assert head.startswith(b"HTTP/1.1 200 "), head
        assert json.loads(payload)["k"] == 2

    @pytest.mark.parametrize("where", ["request_line", "header_line"])
    def test_overlong_line_is_400_then_close(self, server, where):
        filler = "a" * (_STREAM_LIMIT + 1024)
        if where == "request_line":
            request = f"GET /{filler} HTTP/1.1\r\nHost: x\r\n\r\n"
        else:
            request = f"GET /healthz HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n"
        head, body = _raw_exchange(server.port, request.encode("latin-1"))
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "line too long"}

    @pytest.mark.parametrize("count,status", [(100, 200), (101, 400)])
    def test_header_count_is_capped(self, server, count, status):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(count))
        request = f"GET /healthz HTTP/1.1\r\n{headers}Connection: close\r\n\r\n"
        if count == 100:
            # Connection: close is itself a header; stay at the cap.
            request = request.replace("X-H0: v\r\n", "")
        head, body = _raw_exchange(server.port, request.encode("latin-1"))
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
        assert b"Connection: close" in head
        if status == 400:
            assert json.loads(body) == {"error": "too many headers"}


class TestRequestDeadline:
    DEADLINE = 0.3

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_REQUEST_DEADLINE_S", self.DEADLINE)

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n",  # headers never end
        b"POST /search HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"q\"",  # short body
    ])
    def test_stalled_request_is_408_then_close(self, server, request_bytes):
        head, body = _raw_exchange(server.port, request_bytes)
        assert head.startswith(b"HTTP/1.1 408 Request Timeout"), head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "request not received in time"}

    def test_idle_keep_alive_connection_is_not_timed_out(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for _ in range(2):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(3 * self.DEADLINE)  # idle between requests
        finally:
            conn.close()


#: Valid requests the fuzz drill mutates.
_FUZZ_SEEDS = (
    b"GET /search?q=legal+court+statute&k=3&method=hybrid HTTP/1.1\r\n"
    b"Host: x\r\nConnection: close\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /model/foundation-0 HTTP/1.1\r\nHost: x\r\n\r\n",
    b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    b"Content-Length: 30\r\n\r\n{\"q\": \"medical notes\", \"k\": 2}",
)

_JUNK_METHODS = (b"", b"G ET", b"PATCH", b"get", b"\x00\x01", b"GETGETGET")
_JUNK_VERSIONS = (b"HTTP/9.9", b"HTTX/1.1", b"HTTP/1.1 extra", b"", b"\xff")
_JUNK_TARGETS = (b"//[::1", b"http://[x/", b"/search?q=%ff%fe", b"*", b"/model/")
_ODD_HEADERS = (
    b"NoColon\r\n", b": no-name\r\n", b" folded continuation\r\n",
    b"X-Bytes: \xff\xfe\x00\r\n", b"Transfer-Encoding: chunked\r\n",
    b"Content-Length: 5\r\nContent-Length: 7\r\n", b"\r\n",
    b"Connection: keep-alive, close\r\n",
)
_BAD_LENGTHS = (
    b"-1", b"abc", b"1e3", b"+5", b"0x10", b" ", b"99999999999999999999",
    str((1 << 20) + 1).encode(), b"4000",
)


def _fuzz_case(rng: random.Random):
    """One mutated request as ``(bytes, stall)``.

    A stalling case keeps its write side open, so the server must end
    it by its request deadline; every other case half-closes after
    sending, so a complete keep-alive request cannot park the
    connection.
    """
    request = bytearray(rng.choice(_FUZZ_SEEDS))
    line_end = request.index(b"\r\n")
    head_end = request.index(b"\r\n\r\n")
    kind = rng.randrange(9)
    if kind == 0:  # truncation anywhere
        return bytes(request[:rng.randrange(len(request))]), False
    if kind == 1:  # byte flips
        for _ in range(rng.randint(1, 4)):
            request[rng.randrange(len(request))] = rng.randrange(256)
        return bytes(request), False
    method, target, version = bytes(request[:line_end]).split(b" ")
    rest = bytes(request[line_end:])
    if kind == 2:
        return b" ".join([rng.choice(_JUNK_METHODS), target, version]) + rest, False
    if kind == 3:
        return b" ".join([method, target, rng.choice(_JUNK_VERSIONS)]) + rest, False
    if kind == 4:
        return b" ".join([method, rng.choice(_JUNK_TARGETS), version]) + rest, False
    if kind == 5:  # an odd header line right after the request line
        cut = line_end + 2
        return bytes(request[:cut]) + rng.choice(_ODD_HEADERS) + bytes(request[cut:]), False
    if kind == 6:
        cut = line_end + 2
        length = b"Content-Length: " + rng.choice(_BAD_LENGTHS) + b"\r\n"
        return bytes(request[:cut]) + length + bytes(request[cut:]), rng.random() < 0.3
    if kind == 7:  # an overlong request or header line
        filler = b"a" * (_STREAM_LIMIT + rng.randrange(1, 4096))
        if rng.random() < 0.5:
            return b"GET /" + filler + b" HTTP/1.1\r\n\r\n", False
        return bytes(request[:line_end + 2]) + b"X-Filler: " + filler + rest, False
    # A started request that stops before its headers end.
    return bytes(request[:rng.randrange(line_end + 2, head_end + 2)]), True


def _probe(port: int, request: bytes, stall: bool, timeout: float):
    """Seconds until the server closed, and the responses it sent."""
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            sock.sendall(request)
            if not stall:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before the rest went out
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return time.perf_counter() - start, _responses(received)


class TestFuzzDrill:
    """A seeded byte-fuzz of the HTTP front end (about 200 cases).

    Every mutated request gets a non-5xx response or a clean close
    within the request deadline plus a margin; no handler raises; and
    after the drain nothing is left in flight or open.
    """

    DEADLINE = 0.2
    MARGIN = 3.0
    CASES = 200
    SEED = 17

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_REQUEST_DEADLINE_S", self.DEADLINE)

    def test_malformed_requests_get_4xx_or_clean_close(self, serve_lake_dir):
        from tests.serve.conftest import ServerHarness

        rng = random.Random(self.SEED)
        cases = [_fuzz_case(rng) for _ in range(self.CASES)]
        assert any(stall for _, stall in cases)
        harness = ServerHarness(serve_lake_dir)
        loop_errors = []
        harness._loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        harness.start()
        try:
            limit = self.DEADLINE + self.MARGIN
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(
                    lambda case: _probe(harness.port, case[0], case[1], limit),
                    cases,
                ))
        finally:
            harness.stop()
        for (request, stall), (elapsed, responses) in zip(cases, outcomes):
            assert elapsed < limit, (request[:200], stall, elapsed)
            for head, _ in responses:
                status = int(head.split(b" ", 2)[1])
                assert 200 <= status < 500, (request[:200], head)
        assert not loop_errors, loop_errors
        assert harness.server._in_flight == 0
        assert not harness.server._handlers
        assert harness.snapshot.open_handles == 0


class TestConcurrency:
    QUERIES = (
        "legal court statute",
        "medical diagnosis notes",
        "code compiler tokens",
        "news report headline",
    )

    def test_concurrent_rankings_match_sequential(self, server):
        """N threads of identical queries get byte-identical rankings."""
        engine = server.server.snapshot.engine
        expected = {
            query: [
                (h.model_id, float(h.score))
                for h in engine.search(query, k=5, method="hybrid")
            ]
            for query in self.QUERIES
        }
        failures = []
        barrier = threading.Barrier(8)

        def worker(wid: int) -> None:
            barrier.wait()
            for repeat in range(5):
                query = self.QUERIES[(wid + repeat) % len(self.QUERIES)]
                status, payload = server.search(query, k=5)
                got = [
                    (h["model_id"], float(h["score"]))
                    for h in payload["results"]
                ]
                if status != 200 or got != expected[query]:
                    failures.append((wid, query, status, got))

        threads = [
            # Failures list is only read after every join below.
            threading.Thread(target=worker, args=(wid,)) for wid in range(8)  # repro: noqa[shared-state-race]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_batched_equals_per_request(self, make_server):
        """A burst ranks the same batched as with one query per batch."""
        burst = [(query, 5, "hybrid") for query in self.QUERIES] * 2

        def run_burst(harness):
            results = {}
            threads = []

            def one(query, k, method):
                status, payload = harness.search(query, k=k, method=method)
                assert status == 200
                results[(query, k, method)] = [
                    (h["model_id"], float(h["score"]))
                    for h in payload["results"]
                ]

            for triple in burst:
                # Distinct keys per thread; dict reads happen after join.
                threads.append(threading.Thread(target=one, args=triple))  # repro: noqa[shared-state-race]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return results

        batched = run_burst(make_server())
        unbatched = run_burst(make_server(max_batch=1))
        assert batched == unbatched


class TestShutdown:
    def test_draining_rejects_with_503(self, make_server):
        harness = make_server()
        # Flip the drain flag directly: deterministic, no signal races.
        harness.server._draining = True
        try:
            status, payload = harness.search("legal court statute")
            assert status == 503
            assert payload["error"] == "draining"
            health_status, health = harness.get("/healthz")
            assert health_status == 200
            assert health["status"] == "draining"
        finally:
            harness.server._draining = False

    def test_graceful_stop_closes_listener_and_snapshot(self, serve_lake_dir):
        from tests.serve.conftest import ServerHarness

        harness = ServerHarness(serve_lake_dir).start()
        status, _ = harness.search("legal court statute", k=2)
        assert status == 200
        port = harness.port
        harness.stop()
        assert harness.snapshot.closed
        with pytest.raises(OSError):
            conn = HTTPConnection("127.0.0.1", port)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse()
            finally:
                conn.close()
