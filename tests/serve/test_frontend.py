"""Unit tests for the sync client against the one wire server.

Every wire test runs against :class:`~repro.serve.aio.AioFrontend`: its
HTTP/1.1 framing (``http://``), and its NDJSON framing over the unix
socket (``unix://``) and the same TCP port (``tcp://``).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    AioFrontend,
    AsyncServiceClient,
    LocalizationService,
    ServiceClient,
)
from repro.serve.protocol import (
    GET_METHODS,
    IDEMPOTENT_METHODS,
    METHODS,
    ServiceUnavailable,
    dispatch,
    error_status,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import get_scenario_spec

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {"hq": "square-3m", "lab": "square-4m"}
SEED = 13


def _read_http_response(reader):
    """``(status, headers, body)`` of one HTTP response off ``reader``."""
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", 0)))


@pytest.fixture(scope="module")
def service():
    svc = LocalizationService.from_specs(SITES, protocol=PROTOCOL, seed=SEED)
    svc.warm()
    return svc


@pytest.fixture(scope="module")
def traces(service):
    out = {}
    for index, site in enumerate(service.sites()):
        scenario = service.pipeline(site).collector.scenario
        cells = list(range(0, scenario.deployment.cell_count, 3))
        out[site] = RssCollector(
            scenario, PROTOCOL, seed=90 + index
        ).live_trace(0.0, cells)
    return out


@pytest.fixture(scope="module")
def wire_server(service, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("sock") / "serve.sock")
    with AioFrontend(service, unix_path=path) as frontend:
        yield frontend


@pytest.fixture(scope="module")
def http_client(wire_server):
    with ServiceClient(wire_server.http_address) as client:
        yield client


@pytest.fixture(scope="module")
def unix_client(wire_server):
    with ServiceClient(wire_server.unix_address) as client:
        yield client


@pytest.fixture(scope="module", autouse=True)
def _eager_clients(http_client, unix_client):
    # The tests below select a client lazily via getfixturevalue; force
    # both module-scoped servers up-front so their listener sockets are
    # baseline state for the per-test leak sanitizer (conftest.py), not
    # mid-test arrivals flagged as leaks on whichever test runs first.
    # One throwaway request per client opens its persistent keep-alive
    # connection (and the server's accepted side) before any baseline.
    http_client.health()
    unix_client.health()
    yield


class TestProtocolDispatch:
    def test_unknown_method_is_404(self, service):
        status, body = dispatch(service, "teleport", {})
        assert status == 404
        assert body["error"] == "KeyError"

    def test_missing_params_is_400(self, service):
        status, body = dispatch(service, "query", {"site": "hq"})
        assert status == 400
        assert "missing required param" in body["message"]

    def test_non_dict_params_is_400(self, service):
        status, body = dispatch(service, "sites", [1, 2])
        assert status == 400

    def test_error_status_mapping_order(self):
        # KeyError is a LookupError subclass; the mapping must branch on
        # the subclass first.
        assert error_status(KeyError("x")) == 404
        assert error_status(LookupError("x")) == 409
        assert error_status(ValueError("x")) == 400
        assert error_status(TypeError("x")) == 400
        assert error_status(RuntimeError("x")) == 503
        assert error_status(ZeroDivisionError("x")) == 500

    def test_every_method_has_a_handler(self, service):
        for method in METHODS:
            status, _ = dispatch(service, method, {})
            assert status in (200, 400, 503), method
        assert set(GET_METHODS) <= set(METHODS)
        assert IDEMPOTENT_METHODS <= set(METHODS)

    def test_health_and_sites(self, service):
        assert dispatch(service, "health", {})[1]["sites"] == 2
        assert dispatch(service, "sites", {})[1]["sites"] == ["hq", "lab"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rss_is_400(self, service, traces, bad):
        """json parses NaN and Infinity; a frame carrying one must be
        refused, not answered with a NaN position."""
        frame = traces["hq"].rss[0].tolist()
        frame[0] = bad
        frames = [traces["hq"].rss[1].tolist(), frame]
        for method, params in (
            ("query", {"site": "hq", "rss": frame, "day": 0.0}),
            ("query_batch", {"site": "hq", "frames": frames, "day": 0.0}),
            ("query_trace", {"site": "hq", "frames": frames, "day": 0.0}),
        ):
            status, body = dispatch(service, method, params)
            assert (status, body["error"]) == (400, "ValueError"), method
            assert "non-finite" in body["message"], method

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_day_is_400(self, service, traces, bad):
        frame = traces["hq"].rss[0].tolist()
        for method, params in (
            ("query", {"site": "hq", "rss": frame, "day": bad}),
            ("query_batch", {"site": "hq", "frames": [frame], "day": bad}),
            ("query_trace", {"site": "hq", "frames": [frame], "day": bad}),
            ("staleness", {"site": "hq", "day": bad}),
        ):
            status, body = dispatch(service, method, params)
            assert (status, body["error"]) == (400, "ValueError"), method
            assert "day must be finite" in body["message"], method


@pytest.mark.parametrize("client_fixture", ["http_client", "unix_client"])
class TestWireIdentity:
    """The acceptance contract: wire answers == in-process answers, bits."""

    def test_query_batch_bit_identical(
        self, request, client_fixture, service, traces
    ):
        client = request.getfixturevalue(client_fixture)
        for site, trace in traces.items():
            wire = client.query_batch(
                site, trace.rss, 0.0, include_scores=True
            )
            reference = service.query_batch(site, trace.rss, 0.0)
            np.testing.assert_array_equal(wire.cells, reference.cells)
            np.testing.assert_array_equal(wire.positions, reference.positions)
            np.testing.assert_array_equal(wire.scores, reference.scores)

    def test_query_trace_bit_identical(
        self, request, client_fixture, service, traces
    ):
        client = request.getfixturevalue(client_fixture)
        wire = client.query_trace("hq", traces["hq"])
        reference = service.query_trace("hq", traces["hq"])
        np.testing.assert_array_equal(wire.cells, reference.cells)
        np.testing.assert_array_equal(wire.positions, reference.positions)

    def test_single_query_bit_identical(
        self, request, client_fixture, service, traces
    ):
        client = request.getfixturevalue(client_fixture)
        frame = traces["hq"].rss[0]
        wire = client.query("hq", frame, 0.0)
        reference = service.query("hq", frame, 0.0)
        assert wire.cell == reference.cell
        assert wire.position == (
            reference.position.x,
            reference.position.y,
        )
        assert wire.score == reference.scores[reference.cell]


@pytest.mark.parametrize("client_fixture", ["http_client", "unix_client"])
class TestWireErrorContract:
    """Remote errors arrive as the in-process exception types."""

    def test_unknown_site_keyerror(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        with pytest.raises(KeyError, match="unknown site"):
            client.query("nowhere", [0.0, 0.0], 0.0)

    def test_malformed_rss_valueerror(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        with pytest.raises(ValueError, match="shape"):
            client.query("hq", [0.0, 0.0, 0.0], 0.0)

    def test_pre_epoch_day_lookuperror(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        with pytest.raises(LookupError, match="no fingerprint epoch"):
            client.query_batch("hq", np.zeros((1, 2)), -5.0)

    def test_update_unknown_site_keyerror(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        with pytest.raises(KeyError):
            client.update("nowhere", 10.0)


class TestColdUpdateOverTheWire:
    def test_cold_update_maps_to_503_and_commission_path_works(self):
        cold_service = LocalizationService.from_specs(
            {"new-site": "square-3m"}, protocol=PROTOCOL, seed=SEED
        )
        with AioFrontend(cold_service) as frontend:
            with ServiceClient(frontend.http_address) as client:
                with pytest.raises(RuntimeError, match="cold update"):
                    client.update("new-site", 5.0)
                body = client.update("new-site", 5.0, cold="commission")
                assert body["action"] == "commissioned"
                body = client.update("new-site", 35.0)
                assert body["action"] == "updated"
                assert body["savings_factor"] > 1.0
        system = cold_service.pipeline("new-site")
        assert system.database.days == [5.0, 35.0]


@pytest.mark.parametrize("client_fixture", ["http_client", "unix_client"])
class TestWireServiceSurface:
    def test_sites_and_summary(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        assert client.sites() == ["hq", "lab"]
        summary = client.summary()
        assert [row["site"] for row in summary] == ["hq", "lab"]
        assert all(row["materialized"] for row in summary)

    def test_site_summary_and_staleness(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        row = client.site_summary("hq")
        assert row["commissioned"] is True
        assert client.staleness("hq", 12.0) == 12.0

    def test_warm_and_health(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        assert client.warm(["hq"]) == ["hq"]
        assert client.health()["status"] == "ok"

    def test_stats_counts_served_frames(self, request, client_fixture):
        client = request.getfixturevalue(client_fixture)
        stats = client.stats()
        assert stats["frames"] >= 0 and "frames_by_site" in stats


class TestHttpSpecifics:
    def test_get_serves_readonly_methods(self, service):
        import urllib.request

        with AioFrontend(service) as frontend:
            with urllib.request.urlopen(f"{frontend.http_address}/health") as resp:
                assert json.loads(resp.read())["status"] == "ok"
            url = f"{frontend.http_address}/staleness?site=hq&day=7"
            with urllib.request.urlopen(url) as resp:
                assert json.loads(resp.read())["staleness"] == 7.0

    def test_get_on_query_is_404(self, service):
        import urllib.error
        import urllib.request

        with AioFrontend(service) as frontend:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{frontend.http_address}/query")
            assert excinfo.value.code == 404
            # HTTPError is itself an open response; close its socket so
            # the traceback kept by pytest doesn't pin it past teardown.
            excinfo.value.close()

    def test_malformed_json_body_is_400(self, service):
        import urllib.error
        import urllib.request

        with AioFrontend(service) as frontend:
            request = urllib.request.Request(
                f"{frontend.http_address}/sites",
                data=b"{not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            excinfo.value.close()

    def test_ephemeral_port_is_reported(self, service):
        with AioFrontend(service) as frontend:
            assert frontend.port > 0
            assert frontend.http_address.startswith("http://127.0.0.1:")

    def test_client_reconnects_after_server_restart(self, service, traces):
        frontend = AioFrontend(service).start()
        client = ServiceClient(frontend.http_address)
        assert client.sites() == ["hq", "lab"]
        frontend.close()
        revived = AioFrontend(service, port=frontend.port).start()
        try:
            # The kept-alive connection is stale; one retry must recover.
            assert client.sites() == ["hq", "lab"]
        finally:
            client.close()
            revived.close()

    def test_non_idempotent_calls_are_never_resent(self):
        """Regression: update/commission must not be transparently
        re-sent over a failed connection — the first copy may have
        executed, and a duplicate would append a second epoch. Counted
        against a server that drops every connection: idempotent methods
        get their full retry budget (retries + 1 attempts), non-idempotent
        exactly one attempt and the raw transport error."""
        import socket
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        attempts = []
        stop = threading.Event()

        def drop_everything():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                attempts.append(1)
                conn.close()

        thread = threading.Thread(target=drop_everything, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                timeout=5.0,
                retries=2,
                backoff=0.01,
            )
            with pytest.raises((ConnectionError, OSError)):
                client.update("hq", 77.0)
            assert len(attempts) == 1  # non-idempotent: one try only
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.sites()
            # idempotent: original + retries re-sends, each on a fresh
            # connection, then a clear exhaustion error chaining the
            # last transport failure.
            assert len(attempts) == 1 + 3
            assert "3 attempt(s)" in str(excinfo.value)
            assert excinfo.value.__cause__ is not None
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)

    def test_retries_zero_makes_idempotent_single_attempt(self):
        """The retry budget is honest: retries=0 means one attempt even
        for idempotent methods (still wrapped as ServiceUnavailable)."""
        import socket
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        attempts = []
        stop = threading.Event()

        def drop_everything():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                attempts.append(1)
                conn.close()

        thread = threading.Thread(target=drop_everything, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=5.0, retries=0
            )
            with pytest.raises(ServiceUnavailable):
                client.sites()
            assert len(attempts) == 1
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)

    def test_non_object_params_value_is_400(self, service):
        import urllib.error
        import urllib.request

        with AioFrontend(service) as frontend:
            request = urllib.request.Request(
                f"{frontend.http_address}/sites",
                data=json.dumps({"params": "abc"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "params must be a JSON object" in body["message"]
            excinfo.value.close()

    @staticmethod
    def _post(path, body, extra=b""):
        payload = json.dumps(body).encode()
        return (
            b"POST " + path + b" HTTP/1.1\r\nContent-Length: %d\r\n%s\r\n%s"
            % (len(payload), extra, payload)
        )

    def test_post_params_body_forms_and_query_merge(self, wire_server):
        """A ``{"params": ...}`` body or a bare object both work, and
        body params override query-string params."""
        import socket

        with socket.create_connection(
            ("127.0.0.1", wire_server.port), timeout=5.0
        ) as sock, sock.makefile("rb") as reader:
            for request, staleness in (
                (self._post(b"/staleness", {"params": {"site": "hq", "day": 3}}), 3.0),
                (self._post(b"/staleness", {"site": "hq", "day": 4}), 4.0),
                (self._post(b"/staleness?site=hq&day=1", {"day": 9}), 9.0),
                (self._post(b"/staleness?site=hq&day=5", {}), 5.0),
            ):
                sock.sendall(request)
                status, _, body = _read_http_response(reader)
                assert status == 200
                assert json.loads(body)["staleness"] == staleness

    def test_keep_alive_connection_close_and_http10(self, wire_server):
        import socket

        address = ("127.0.0.1", wire_server.port)
        with socket.create_connection(address, timeout=5.0) as sock:
            with sock.makefile("rb") as reader:
                for _ in range(2):  # HTTP/1.1: one connection, many requests
                    sock.sendall(b"GET /sites HTTP/1.1\r\nHost: x\r\n\r\n")
                    status, headers, body = _read_http_response(reader)
                    assert status == 200 and "connection" not in headers
                    assert json.loads(body)["sites"] == ["hq", "lab"]
                sock.sendall(b"GET /sites HTTP/1.1\r\nConnection: close\r\n\r\n")
                status, headers, _ = _read_http_response(reader)
                assert status == 200 and headers["connection"] == "close"
                assert reader.read() == b""
        with socket.create_connection(address, timeout=5.0) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                status, _, body = _read_http_response(reader)
                assert status == 200 and json.loads(body)["status"] == "ok"
                assert reader.read() == b""  # HTTP/1.0 closes after one

    def test_expect_100_continue_gets_an_interim_response(self, wire_server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", wire_server.port), timeout=5.0
        ) as sock, sock.makefile("rb") as reader:
            request = self._post(b"/sites", {}, b"Expect: 100-continue\r\n")
            head, _, payload = request.partition(b"\r\n\r\n")
            sock.sendall(head + b"\r\n\r\n")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(payload)
            status, _, body = _read_http_response(reader)
            assert status == 200 and json.loads(body)["sites"] == ["hq", "lab"]

    def test_other_verbs_are_501(self, wire_server):
        import socket

        for verb in (b"PUT", b"DELETE", b"HEAD"):
            with socket.create_connection(
                ("127.0.0.1", wire_server.port), timeout=5.0
            ) as sock, sock.makefile("rb") as reader:
                sock.sendall(verb + b" /sites HTTP/1.1\r\n\r\n")
                status, headers, _ = _read_http_response(reader)
                assert status == 501 and headers["connection"] == "close"


class TestOnePort:
    """HTTP and NDJSON share one port: the first line of a connection
    picks its framing, and every framing answers bit-identically."""

    def test_interleaved_clients_are_bit_identical(
        self, wire_server, service, traces
    ):
        import threading

        frames = traces["hq"].rss
        reference = [service.query("hq", frame, 0.0) for frame in frames]
        expected = [
            (ref.cell, (ref.position.x, ref.position.y), ref.scores[ref.cell])
            for ref in reference
        ]
        pipelined = []

        async def pipeline():
            async with AsyncServiceClient(wire_server.address) as client:
                for _ in range(3):
                    pipelined.append(
                        await client.pipeline_queries("hq", frames, 0.0, depth=8)
                    )

        thread = threading.Thread(
            target=lambda: asyncio.run(pipeline()), name="pipelined-client"
        )
        thread.start()
        try:
            with ServiceClient(wire_server.http_address) as http, ServiceClient(
                wire_server.unix_address
            ) as unix:
                for _ in range(3):
                    for client in (http, unix):
                        answers = [client.query("hq", f, 0.0) for f in frames]
                        assert [
                            (a.cell, a.position, a.score) for a in answers
                        ] == expected
        finally:
            thread.join(timeout=30.0)
        assert len(pipelined) == 3
        for answers in pipelined:
            assert [(a.cell, a.position, a.score) for a in answers] == expected

    def test_garbage_first_line_gets_the_ndjson_400(self, wire_server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", wire_server.port), timeout=5.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"GET garbage\n")
            response = json.loads(reader.readline())
            assert response["status"] == 400
            assert response["body"]["error"] == "ValueError"
            sock.sendall(b'{"method": "health", "params": {}}\n')
            assert json.loads(reader.readline())["status"] == 200


class TestKeepAliveDesyncRecovery:
    """Satellite (PR-8): a server that drops the connection mid-response
    desyncs the client's keep-alive stream. The transport must poison
    its cached connection, re-dial lazily, and the idempotent retry
    must succeed — exactly two dials, no error to the caller."""

    @staticmethod
    def _read_http_request(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            body += conn.recv(4096)
        return body

    def test_truncated_keepalive_response_recovers(self):
        import socket
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        dials = []
        payload = b'{"sites": ["hq"]}'
        full = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
        )

        def serve():
            # Connection 1: one good keep-alive response, then a
            # truncated one (Content-Length promises 100 bytes, the
            # connection dies after 5) — the classic mid-response drop.
            conn, _ = listener.accept()
            dials.append(1)
            self._read_http_request(conn)
            conn.sendall(full)
            self._read_http_request(conn)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"si")
            conn.shutdown(socket.SHUT_RDWR)
            conn.close()
            # Connection 2: behave.
            conn, _ = listener.accept()
            dials.append(1)
            self._read_http_request(conn)
            conn.sendall(full)
            self._read_http_request(conn)  # wait for client close
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                timeout=5.0,
                retries=2,
                backoff=0.01,
            )
            assert client.sites() == ["hq"]
            # The truncated response surfaces as http.client.
            # IncompleteRead (an HTTPException): retryable for an
            # idempotent method, and the poisoned connection re-dials.
            assert client.sites() == ["hq"]
            assert len(dials) == 2
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)


class TestRequestBodyCaps:
    """Satellite (PR-8): both threaded front-ends refuse oversized
    request bodies with a 400 instead of buffering them."""

    def test_http_oversized_body_is_400(self, service):
        import urllib.error
        import urllib.request

        with AioFrontend(service, max_request_bytes=256) as frontend:
            request = urllib.request.Request(
                f"{frontend.http_address}/sites",
                data=b'{"params": {"pad": "' + b"x" * 1024 + b'"}}',
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "exceeds" in body["message"]
            excinfo.value.close()

    def test_http_within_cap_still_served(self, service):
        with AioFrontend(service, max_request_bytes=4096) as frontend:
            with ServiceClient(frontend.http_address) as client:
                assert client.sites() == ["hq", "lab"]

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /sites HTTP/1.1\r\nContent-Length: -1\r\n", 400),
            (b"POST /sites HTTP/1.1\r\nContent-Length: abc\r\n", 400),
            (b"POST /sites HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n", 400),
            (b"POST /sites HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101, 431),
            (b"POST /sites HTTP/1.1\r\nX-Pad: " + b"x" * 9000 + b"\r\n", 431),
        ],
        ids=[
            "negative-length",
            "non-numeric-length",
            "5000-digit-length",
            "101-headers",
            "long-header",
        ],
    )
    def test_hostile_framing_is_refused_and_closed(self, service, head, status):
        """A hostile header block gets its status and a closed
        connection — never a parked handler or a silent drop."""
        import socket

        with AioFrontend(service, max_request_bytes=8192) as frontend:
            with socket.create_connection(
                ("127.0.0.1", frontend.port), timeout=5.0
            ) as sock:
                sock.sendall(head + b"\r\n")
                with sock.makefile("rb") as reader:
                    got, headers, body = _read_http_response(reader)
                    assert got == status
                    assert headers["connection"] == "close"
                    assert json.loads(body)["error"] == "ValueError"
                    assert reader.read() == b""  # closed


class TestClientAddresses:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError, match="unsupported address"):
            ServiceClient("ftp://127.0.0.1:1")

    def test_http_without_port_rejected(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("http://localhost")

    def test_empty_unix_path_rejected(self):
        with pytest.raises(ValueError, match="unix"):
            ServiceClient("unix://")


class TestConcurrentRefresh:
    """Queries keep answering while updates append epochs (the
    non-blocking contract the background scheduler relies on)."""

    def test_queries_survive_concurrent_updates(self):
        import threading

        svc = LocalizationService.from_specs(
            {"hq": get_scenario_spec("square-3m")},
            protocol=PROTOCOL,
            seed=SEED,
        )
        svc.warm()
        scenario = svc.pipeline("hq").collector.scenario
        trace = RssCollector(scenario, PROTOCOL, seed=77).live_trace(
            0.0, [0, 1, 2]
        )
        stop = threading.Event()
        errors = []

        def refresher():
            day = 0.0
            while not stop.is_set():
                day += 1.0
                try:
                    svc.update("hq", day)
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return

        thread = threading.Thread(target=refresher, daemon=True)
        thread.start()
        try:
            for _ in range(200):
                result = svc.query_batch("hq", trace.rss, 0.0)
                assert result.frame_count == 3
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not errors


class _FailingTransport:
    """Every attempt raises: isolates the client's retry policy."""

    def __init__(self, error=ConnectionError("injected")):
        self.error = error
        self.calls = 0

    def call(self, method, params):
        self.calls += 1
        raise self.error

    def close(self):
        pass


class _CannedTransport:
    """Answers every call with one fixed (status, body) pair."""

    def __init__(self, body, status=200):
        self.status, self.body = status, body

    def call(self, method, params):
        return self.status, self.body

    def close(self):
        pass


def _sleep_recorder(monkeypatch):
    import repro.serve.frontend as frontend_module

    sleeps = []
    monkeypatch.setattr(frontend_module.time, "sleep", sleeps.append)
    return sleeps


class TestRetryJitter:
    """The backoff schedule is exact under a seed — herd pacing is
    testable down to the float, while unseeded clients de-synchronize."""

    def _client(self, **kwargs):
        client = ServiceClient("http://127.0.0.1:9", **kwargs)
        client._transport = _FailingTransport()
        return client

    def _expected_schedule(self, seed, retries, backoff, max_backoff):
        import random

        draws = random.Random(seed)
        out = []
        for attempt in range(1, retries + 1):
            delay = min(backoff * (2 ** (attempt - 1)), max_backoff)
            out.append(delay * (0.5 + draws.random() / 2))
        return out

    def test_seeded_schedule_is_exact_and_reproducible(self, monkeypatch):
        sleeps = _sleep_recorder(monkeypatch)
        client = self._client(
            retries=3, backoff=0.05, max_backoff=0.08, jitter_seed=42
        )
        with pytest.raises(ServiceUnavailable):
            client.call("health")
        assert client._transport.calls == 4  # retries + 1
        assert sleeps == self._expected_schedule(42, 3, 0.05, 0.08)
        # Exponential growth up to the cap: 0.05, 0.08, 0.08 nominal.
        assert sleeps[1] > sleeps[0] * 0.5  # cap reached by retry 2
        # A second client with the same seed replays the same wall-clock
        # schedule — "deterministic retry timing" is a real contract.
        replay = _sleep_recorder(monkeypatch)
        again = self._client(
            retries=3, backoff=0.05, max_backoff=0.08, jitter_seed=42
        )
        with pytest.raises(ServiceUnavailable):
            again.call("health")
        assert replay == sleeps

    def test_different_seeds_de_synchronize(self, monkeypatch):
        schedules = []
        for seed in (1, 2):
            sleeps = _sleep_recorder(monkeypatch)
            client = self._client(retries=2, jitter_seed=seed)
            with pytest.raises(ServiceUnavailable):
                client.call("health")
            schedules.append(list(sleeps))
        assert schedules[0] != schedules[1]

    def test_every_delay_is_within_the_jitter_band(self, monkeypatch):
        sleeps = _sleep_recorder(monkeypatch)
        client = self._client(retries=4, backoff=0.1, max_backoff=0.3)
        with pytest.raises(ServiceUnavailable):
            client.call("health")
        for attempt, slept in enumerate(sleeps, start=1):
            nominal = min(0.1 * (2 ** (attempt - 1)), 0.3)
            assert nominal * 0.5 <= slept <= nominal

    def test_non_idempotent_methods_never_retry(self, monkeypatch):
        sleeps = _sleep_recorder(monkeypatch)
        client = self._client(retries=5, jitter_seed=0)
        with pytest.raises(ConnectionError, match="injected"):
            client.call("update", {"site": "hq", "day": 1.0})
        assert client._transport.calls == 1
        assert sleeps == []

    def test_timeouts_are_terminal_for_every_method(self, monkeypatch):
        sleeps = _sleep_recorder(monkeypatch)
        client = self._client(retries=5, jitter_seed=0)
        client._transport = _FailingTransport(TimeoutError("slow"))
        with pytest.raises(TimeoutError):
            client.call("health")
        assert client._transport.calls == 1
        assert sleeps == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("http://127.0.0.1:9", retries=-1)


class TestStaleMarker:
    """The degraded-mode ``stale`` wire marker parses into the remote
    result types — and its absence means fresh."""

    def test_query_parses_stale_flag(self):
        client = ServiceClient("http://127.0.0.1:9")
        client._transport = _CannedTransport(
            {"cell": 3, "position": [1.5, 2.5], "score": -0.25, "stale": True}
        )
        result = client.query("hq", [0.0, 0.0], 0.0)
        assert result.stale is True
        assert result.cell == 3 and result.score == -0.25

    def test_batch_parses_stale_flag_and_defaults_false(self):
        body = {
            "cells": [1, 2],
            "positions": [[0.0, 0.0], [1.0, 1.0]],
            "scores": [-0.1, -0.2],
        }
        client = ServiceClient("http://127.0.0.1:9")
        client._transport = _CannedTransport(dict(body, stale=True))
        stale = client.query_batch("hq", np.zeros((2, 2)), 0.0)
        assert stale.stale is True and stale.frame_count == 2
        client._transport = _CannedTransport(body)
        fresh = client.query_batch("hq", np.zeros((2, 2)), 0.0)
        assert fresh.stale is False


class TestDriftAndScrubOverTheWire:
    def test_drift_reading_round_trips_bit_exactly(self, service, http_client):
        expected = service.drift("hq", 5.0, frames=8)
        reading = http_client.drift("hq", 5.0, frames=8)
        assert reading == expected  # JSON float64 round-trip is exact

    def test_drift_for_unknown_site_maps_to_keyerror(self, http_client):
        with pytest.raises(KeyError, match="unknown site"):
            http_client.drift("nowhere", 0.0)

    def test_scrub_on_unsharded_backend_is_a_runtime_error(self, http_client):
        with pytest.raises(RuntimeError, match="not a sharded service"):
            http_client.scrub()
