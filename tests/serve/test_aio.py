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

import numpy as np
import pytest

from repro.serve import (
    AioFrontend,
    AsyncServiceClient,
    LocalizationService,
    ServiceClient,
    ShardedService,
)
from repro.sim.collector import CollectionProtocol, LiveTrace, RssCollector

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {"hq": "square-3m", "lab": "square-4m"}
SEED = 13


def run(coro):
    return asyncio.run(coro)


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

    def test_autobatch_disabled_matches_default(self, address, traces):
        """The micro-batched path returns exactly what the plain
        per-frame path returns — transparency down to the score bits."""
        rss = traces["hq"].rss

        async def both():
            async with AsyncServiceClient(address, autobatch=0) as plain:
                unbatched = await plain.pipeline_queries("hq", rss, 0.0)
            async with AsyncServiceClient(address) as batching:
                batched = await batching.pipeline_queries("hq", rss, 0.0)
            return unbatched, batched

        unbatched, batched = run(both())
        assert [(r.cell, r.position, r.score) for r in unbatched] == [
            (r.cell, r.position, r.score) for r in batched
        ]

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
