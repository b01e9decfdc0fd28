"""Unit tests for the asyncio front-end (AioFrontend + AsyncServiceClient).

The contract under test is the PR-8 tentpole: one event loop serving
persistent pipelined NDJSON connections over TCP and unix sockets, an
async client that keeps N requests in flight (and transparently
micro-batches single queries), and chunk-streamed ``query_trace`` —
all bit-identical to the in-process service.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AioFrontend,
    AsyncServiceClient,
    LocalizationService,
    ServiceClient,
    ShardedService,
)
from repro.serve.aio import _DRAIN_HIGH_WATER
from repro.serve.faults import FlakyService
from repro.serve.protocol import dispatch, encode, merge_trace_stream
from repro.sim.collector import CollectionProtocol, LiveTrace, RssCollector

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {"hq": "square-3m", "lab": "square-4m"}
SEED = 13


def run(coro):
    return asyncio.run(coro)


def strict_json(line):
    """Parse one response line as strict JSON: NaN/Infinity refused."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token} on the wire")

    return json.loads(line, parse_constant=refuse)


def wire_body(body):
    """``body`` as a client decodes it off the wire."""
    return json.loads(encode(body))


def answer_bits(result):
    """Cell and float bits of a wire single-query answer."""
    return result.cell, np.float64([*result.position, result.score]).tobytes()


def reference_bits(reference):
    """:func:`answer_bits` of an in-process ``MatchResult``."""
    cell = reference.cell
    position = reference.position
    floats = [position.x, position.y, reference.scores[cell]]
    return cell, np.float64(floats).tobytes()


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
def frontend(service, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("aio") / "serve.sock")
    with AioFrontend(service, unix_path=path) as fe:
        yield fe


@pytest.fixture(params=["tcp", "unix"])
def address(request, frontend):
    return (
        frontend.address if request.param == "tcp" else frontend.unix_address
    )


class TestAioIdentity:
    """Wire answers over the event loop == in-process answers, bits."""

    def test_single_query_bit_identical(self, address, service, traces):
        frame = traces["hq"].rss[0]
        reference = service.query("hq", frame, 0.0)

        async def one():
            async with AsyncServiceClient(address) as client:
                return await client.query("hq", frame, 0.0)

        wire = run(one())
        assert wire.cell == reference.cell
        assert wire.position == (
            reference.position.x,
            reference.position.y,
        )
        assert wire.score == reference.scores[reference.cell]

    def test_query_batch_bit_identical(self, address, service, traces):
        async def batches():
            async with AsyncServiceClient(address) as client:
                return {
                    site: await client.query_batch(
                        site, trace.rss, 0.0, include_scores=True
                    )
                    for site, trace in traces.items()
                }

        for site, wire in run(batches()).items():
            reference = service.query_batch(site, traces[site].rss, 0.0)
            np.testing.assert_array_equal(wire.cells, reference.cells)
            np.testing.assert_array_equal(wire.positions, reference.positions)
            np.testing.assert_array_equal(wire.scores, reference.scores)

    def test_pipelined_singles_bit_identical(self, address, service, traces):
        """Depth-8 pipelining (responses may complete out of order,
        matched by request id, micro-batched) == sequential singles."""

        async def pipelined(site, rss):
            async with AsyncServiceClient(address) as client:
                return await client.pipeline_queries(site, rss, 0.0, depth=8)

        for site, trace in traces.items():
            wire = run(pipelined(site, trace.rss))
            for result, frame in zip(wire, trace.rss):
                reference = service.query(site, frame, 0.0)
                assert result.cell == reference.cell
                assert result.position == (
                    reference.position.x,
                    reference.position.y,
                )
                assert result.score == reference.scores[reference.cell]

    def test_coalesced_answers_bit_identical_to_service(self, address, service, traces):
        """Coalesced singles come back from one ``query_batch`` per
        window, yet every cell, position and score has the bits of an
        in-process ``service.query`` of that frame alone."""
        rss = traces["hq"].rss

        async def coalesced():
            async with AsyncServiceClient(address) as client:
                results = await client.pipeline_queries(
                    "hq", rss, 0.0, depth=len(rss)
                )
                return results, next(client._ids) - 1

        results, requests = run(coalesced())
        assert requests < len(rss)
        for result, frame in zip(results, rss):
            reference = service.query("hq", frame, 0.0)
            assert answer_bits(result) == reference_bits(reference)
            assert result.stale is False

    def test_microbatch_coalesces_wire_calls(self, address, traces):
        """32 concurrent singles must consume far fewer request ids
        than 32 — the whole point of transparent batching."""
        rss = np.tile(traces["hq"].rss, (4, 1))[:32]

        async def count_ids():
            async with AsyncServiceClient(address) as client:
                await client.pipeline_queries("hq", rss, 0.0, depth=32)
                return next(client._ids) - 1

        assert run(count_ids()) <= 8

    def test_streamed_trace_bit_identical_and_flat(
        self, service, frontend, traces
    ):
        """Chunked NDJSON streaming reassembles the exact in-process
        answer, and peak per-message bytes do not grow with length."""
        rss = traces["hq"].rss
        long_rss = np.concatenate([rss] * 8, axis=0)

        async def stream(frames):
            async with AsyncServiceClient(frontend.address) as client:
                result = await client.query_trace("hq", frames, 0.0, chunk=4)
                return result, client.peak_message_bytes

        _, short_peak = run(stream(rss))
        long_result, long_peak = run(stream(long_rss))
        long_reference = service.query_trace(
            "hq", LiveTrace(day=0.0, rss=long_rss)
        )
        np.testing.assert_array_equal(long_result.cells, long_reference.cells)
        np.testing.assert_array_equal(
            long_result.positions, long_reference.positions
        )
        assert long_peak <= 2 * short_peak

    def test_nonstreamed_trace_matches_streamed(self, frontend, traces):
        rss = traces["hq"].rss

        async def both():
            async with AsyncServiceClient(frontend.address) as client:
                streamed = await client.query_trace("hq", rss, 0.0, chunk=2)
                plain = await client.query_trace(
                    "hq", rss, 0.0, stream=False
                )
                return streamed, plain

        streamed, plain = run(both())
        np.testing.assert_array_equal(streamed.cells, plain.cells)
        np.testing.assert_array_equal(streamed.positions, plain.positions)


class TestAioErrorContract:
    """Remote errors arrive as the in-process exception types — also
    through the micro-batched and pipelined paths."""

    def test_unknown_site_keyerror(self, address):
        async def bad():
            async with AsyncServiceClient(address) as client:
                await client.query("nowhere", [0.0, 0.0], 0.0)

        with pytest.raises(KeyError, match="unknown site"):
            run(bad())

    def test_malformed_rss_valueerror(self, address):
        async def bad():
            async with AsyncServiceClient(address) as client:
                await client.query("hq", [0.0, 0.0, 0.0], 0.0)

        with pytest.raises(ValueError, match="shape"):
            run(bad())

    def test_pre_epoch_day_lookuperror(self, address):
        async def bad():
            async with AsyncServiceClient(address) as client:
                await client.query_batch("hq", np.zeros((1, 2)), -5.0)

        with pytest.raises(LookupError, match="no fingerprint epoch"):
            run(bad())

    def test_microbatch_isolates_bad_frames(self, address, traces):
        """A malformed frame coalesced alongside good ones must fail
        alone: grouping is by (site, day, frame length), so the good
        frames' batch is untouched."""
        good = traces["hq"].rss[0].tolist()

        async def mixed():
            async with AsyncServiceClient(address) as client:
                return await asyncio.gather(
                    client.query("hq", good, 0.0),
                    client.query("hq", [0.0, 0.0, 0.0], 0.0),
                    client.query("hq", good, 0.0),
                    return_exceptions=True,
                )

        first, bad, second = run(mixed())
        assert isinstance(bad, ValueError)
        assert first.cell == second.cell
        assert not isinstance(first, Exception)


    def test_non_finite_ndjson_lines_are_400(self, frontend, traces):
        """json parses NaN and Infinity, so they reach the server; frames
        and days carrying them get a strict-JSON 400, and the connection
        keeps serving."""
        good = json.dumps(traces["hq"].rss[0].tolist())
        lines = [
            '{"id": 1, "method": "query", "params": '
            '{"site": "hq", "day": 0, "rss": [NaN, -50.0]}}',
            '{"id": 2, "method": "query_batch", "params": {"site": "hq", '
            '"day": 0, "frames": [[-50.0, Infinity]]}}',
            '{"id": 3, "method": "query", "params": '
            f'{{"site": "hq", "day": NaN, "rss": {good}}}}}',
            '{"id": 4, "method": "query", "params": '
            f'{{"site": "hq", "day": 0, "rss": {good}}}}}',
        ]
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=5.0
        ) as sock:
            sock.sendall("".join(line + "\n" for line in lines).encode())
            reader = sock.makefile("rb")
            answers = [strict_json(reader.readline()) for _ in lines]
        by_id = {answer["id"]: answer for answer in answers}
        for req_id in (1, 2, 3):
            assert by_id[req_id]["status"] == 400
            assert by_id[req_id]["body"]["error"] == "ValueError"
        assert "non-finite" in by_id[1]["body"]["message"]
        assert "non-finite" in by_id[2]["body"]["message"]
        assert "day must be finite" in by_id[3]["body"]["message"]
        assert by_id[4]["status"] == 200


class TestInlineAnswerPath:
    """Non-streamed requests to an inline backend are answered in the
    connection loop, without a task and without a per-line drain."""

    def test_large_unstreamed_trace_with_id_arrives_whole(
        self, frontend, service, traces
    ):
        frames = np.tile(traces["hq"].rss, (400, 1))
        params = {
            "site": "hq",
            "day": 0.0,
            "frames": frames.tolist(),
            "include_scores": True,
        }
        expected = wire_body(dispatch(service, "query_trace", params)[1])
        # A unix socket buffers a few hundred KiB at most, so the answer
        # outgrows it and the server must buffer past the high-water mark
        # and drain; loopback TCP could swallow it whole.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(frontend.unix_path)
            sock.sendall(
                encode({"id": 7, "method": "query_trace", "params": params})
                + encode({"id": 8, "method": "sites", "params": {}})
            )
            time.sleep(0.2)  # read late, once the server has buffered
            reader = sock.makefile("rb")
            big, small = reader.readline(), reader.readline()
        assert len(big) > 4 * _DRAIN_HIGH_WATER
        answer = strict_json(big)
        assert (answer["id"], answer["status"]) == (7, 200)
        assert answer["body"] == expected
        assert strict_json(small)["body"]["sites"] == ["hq", "lab"]

    def test_pipelined_singles_beside_a_streamed_trace(
        self, frontend, service, traces
    ):
        """Inline answers interleave with a streamed trace's chunks on
        one connection: every line parses, every id is answered once."""
        frames = np.tile(traces["hq"].rss, (100, 1))
        singles = {index: traces["hq"].rss[index % 9] for index in range(120)}
        upload = [
            encode(
                {
                    "id": "trace",
                    "method": "query_trace",
                    "params": {"site": "hq", "day": 0.0, "include_scores": True},
                    "stream": True,
                    "chunk": 16,
                    "frames_follow": True,
                }
            )
        ]
        for start in range(0, len(frames), 64):
            upload.append(
                encode({"id": "trace", "frames": frames[start : start + 64].tolist()})
            )
        upload.append(encode({"id": "trace", "end": True}))
        queries = [
            encode(
                {
                    "id": index,
                    "method": "query",
                    "params": {"site": "hq", "rss": frame.tolist(), "day": 0.0},
                }
            )
            for index, frame in singles.items()
        ]
        received = []
        streaming = threading.Event()

        def read_all(sock):
            reader = sock.makefile("rb")
            while True:
                line = reader.readline()
                if not line:
                    return
                received.append(strict_json(line))
                if received[-1].get("stream"):
                    # Stall while the singles arrive: the trace's chunks
                    # fill the socket, so its task waits in drain() and
                    # the singles are answered between its chunks.
                    streaming.set()
                    time.sleep(0.2)
                if sum(isinstance(m.get("id"), int) for m in received) == len(
                    singles
                ) and any(m.get("end") for m in received):
                    return

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(frontend.unix_path)
            thread = threading.Thread(target=read_all, args=(sock,))
            thread.start()
            sock.sendall(b"".join(upload))
            assert streaming.wait(timeout=10.0)
            for start in range(0, len(queries), 40):
                sock.sendall(b"".join(queries[start : start + 40]))
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        answered = [m["id"] for m in received if isinstance(m.get("id"), int)]
        assert sorted(answered) == sorted(singles)
        for message in received:
            if not isinstance(message.get("id"), int):
                continue
            reference = service.query("hq", singles[message["id"]], 0.0)
            assert message["status"] == 200
            assert message["body"]["cell"] == reference.cell
            assert message["body"]["position"] == [
                reference.position.x,
                reference.position.y,
            ]
            assert message["body"]["score"] == reference.scores[reference.cell]
        positions = [index for index, m in enumerate(received) if m["id"] == "trace"]
        assert any(
            isinstance(m["id"], int)
            for m in received[positions[0] : positions[-1]]
        ), "no single was answered while the trace streamed"
        stream = [received[index] for index in positions]
        header = stream[0]
        assert header["stream"] and header["status"] == 200
        assert stream[-1].get("end")
        merged = merge_trace_stream(header, stream[1:])
        expected = dispatch(
            service,
            "query_trace",
            {"site": "hq", "day": 0.0, "frames": frames, "include_scores": True},
        )[1]
        assert merged == wire_body(expected)

    def test_drop_response_severs_only_that_connection(self, service, traces):
        flaky = FlakyService(service, drop_calls={0}, methods={"query"})
        frame = traces["hq"].rss[0]
        request = encode(
            {
                "id": 1,
                "method": "query",
                "params": {"site": "hq", "rss": frame.tolist(), "day": 0.0},
            }
        )
        with AioFrontend(flaky) as fe:
            with socket.create_connection(("127.0.0.1", fe.port), timeout=5.0) as sock:
                sock.sendall(request)
                assert sock.makefile("rb").readline() == b""  # severed
            with socket.create_connection(("127.0.0.1", fe.port), timeout=5.0) as sock:
                sock.sendall(request)
                answer = strict_json(sock.makefile("rb").readline())
        assert flaky.dropped == 1
        reference = service.query("hq", frame, 0.0)
        assert (answer["id"], answer["status"]) == (1, 200)
        assert answer["body"]["cell"] == reference.cell
        assert answer["body"]["score"] == reference.scores[reference.cell]


class TestAioServerBehavior:
    def test_ephemeral_port_and_addresses(self, frontend):
        assert frontend.port > 0
        assert frontend.address == f"tcp://127.0.0.1:{frontend.port}"
        assert frontend.http_address == f"http://127.0.0.1:{frontend.port}"
        assert frontend.unix_address.startswith("unix://")

    def test_noid_requests_answered_in_order(self, frontend):
        """Back-compat with the PR-5 one-at-a-time transports: requests
        without an id get strictly in-order responses."""
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b'{"method": "sites", "params": {}}\n'
                b'{"method": "health", "params": {}}\n'
            )
            reader = sock.makefile("rb")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        assert first["body"]["sites"] == ["hq", "lab"]
        assert second["body"]["status"] == "ok"

    def test_sync_client_speaks_to_aio_server(self, frontend, service, traces):
        """The sync ServiceClient's tcp:// and unix:// transports are
        first-class citizens of the aio server."""
        frame = traces["hq"].rss[0]
        reference = service.query("hq", frame, 0.0)
        for addr in (frontend.address, frontend.unix_address):
            with ServiceClient(addr) as client:
                wire = client.query("hq", frame, 0.0)
                assert wire.cell == reference.cell
                assert wire.score == reference.scores[reference.cell]

    def test_oversized_request_is_400_and_severed(self, service):
        """Satellite: the request body cap. A line past max_request_bytes
        gets a 400 and the connection is severed (the rest of the line
        is unparseable, so the stream cannot be resynced)."""
        with AioFrontend(service, max_request_bytes=512) as fe:
            with socket.create_connection(
                ("127.0.0.1", fe.port), timeout=5.0
            ) as sock:
                sock.sendall(
                    b'{"method": "sites", "params": {"pad": "'
                    + b"x" * 2048
                    + b'"}}\n'
                )
                reader = sock.makefile("rb")
                body = json.loads(reader.readline())
                assert body["status"] == 400
                assert reader.readline() == b""  # severed

    def test_malformed_json_line_is_400_but_connection_survives(
        self, frontend
    ):
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=5.0
        ) as sock:
            sock.sendall(b"{not json\n")
            reader = sock.makefile("rb")
            assert json.loads(reader.readline())["status"] == 400
            sock.sendall(b'{"method": "health", "params": {}}\n')
            assert json.loads(reader.readline())["status"] == 200

    def test_double_close_is_safe(self, service):
        fe = AioFrontend(service).start()
        fe.close()
        fe.close()

    def test_sharded_backend_offload_path(self, traces):
        """The offload dispatch path (worker-pipe calls parked on the
        executor, not the loop) serves and stays bit-identical."""
        rss = traces["hq"].rss[:4]
        with ShardedService(
            {"hq": "square-3m"}, shards=1, protocol=PROTOCOL, seed=SEED
        ) as sharded:
            sharded.warm()
            with AioFrontend(sharded) as fe:

                async def probe():
                    async with AsyncServiceClient(fe.address) as client:
                        sites = await client.sites()
                        results = await client.pipeline_queries(
                            "hq", rss, 0.0, depth=4
                        )
                        return sites, results

                sites, results = run(probe())
                assert sites == ["hq"]
                reference = sharded.query_batch("hq", rss, 0.0)
                assert [r.cell for r in results] == reference.cells.tolist()


class TestShardedCoalescing:
    def test_coalesced_queries_over_two_shards_bit_identical(self, service, traces):
        """Concurrent singles for two sites coalesce into ``query_batch``
        requests that a 2-shard router answers from its workers; every
        answer has the in-process bits, ``stale`` included."""
        frames = [(site, frame) for site in SITES for frame in traces[site].rss]
        with ShardedService(SITES, shards=2, protocol=PROTOCOL, seed=SEED) as sharded:
            sharded.warm()
            with AioFrontend(sharded) as fe:

                async def coalesced():
                    async with AsyncServiceClient(fe.address) as client:
                        queries = [client.query(*pair, 0.0) for pair in frames]
                        results = await asyncio.gather(*queries)
                        return results, next(client._ids) - 1

                results, requests = run(coalesced())
            references = [sharded.query(*pair, 0.0) for pair in frames]
        assert requests < len(frames)
        for pair, result, reference in zip(frames, results, references):
            local = service.query(*pair, 0.0)
            assert answer_bits(result) == reference_bits(reference)
            assert reference_bits(reference) == reference_bits(local)
            assert reference.scores.tobytes() == local.scores.tobytes()
            assert result.stale is bool(getattr(reference, "stale", False))


class TestClientAddresses:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError, match="unsupported address"):
            AsyncServiceClient("ftp://127.0.0.1:1")

    def test_tcp_without_port_rejected(self):
        with pytest.raises(ValueError, match="tcp"):
            AsyncServiceClient("tcp://localhost")

    def test_empty_unix_path_rejected(self):
        with pytest.raises(ValueError, match="unix"):
            AsyncServiceClient("unix://")


class TestSyncTcpDesyncRecovery:
    """Satellite: keep-alive desync recovery for the sync client's
    NDJSON transport. The server drops the connection mid-exchange;
    the transport must poison its cached connection, re-dial lazily,
    and the idempotent retry must succeed — exactly two dials."""

    def test_drop_mid_exchange_then_recover(self):
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        dials = []
        response = b'{"status": 200, "body": {"sites": ["hq"]}}\n'

        def serve():
            # Connection 1: answer the first request, then slam the
            # door on the second without responding. The shutdown is
            # what actually sends the FIN — the makefile dup would
            # otherwise keep the socket half-open.
            conn, _ = listener.accept()
            dials.append(1)
            reader = conn.makefile("rb")
            reader.readline()
            conn.sendall(response)
            reader.readline()
            conn.shutdown(socket.SHUT_RDWR)
            reader.close()
            conn.close()
            # Connection 2: behave.
            conn, _ = listener.accept()
            dials.append(1)
            reader = conn.makefile("rb")
            reader.readline()
            conn.sendall(response)
            reader.readline()  # wait for client close
            reader.close()
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"tcp://127.0.0.1:{port}",
                timeout=5.0,
                retries=2,
                backoff=0.01,
            )
            assert client.sites() == ["hq"]  # over connection 1
            # Connection 1 is now desynced (dropped mid-exchange): the
            # transport poisons it and the retry re-dials.
            assert client.sites() == ["hq"]
            assert len(dials) == 2
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)
