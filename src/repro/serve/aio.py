"""The wire server: one asyncio event loop, NDJSON and HTTP/1.1 on one port.

* :class:`AioFrontend` — the serving layer's only wire server. One
  asyncio server (TCP, plus an optional unix socket) answers the
  protocol of :mod:`repro.serve.protocol` over persistent connections in
  two framings, chosen once per connection by its first line:

  - a line that parses as an HTTP/1.x request line makes the connection
    **HTTP**: ``POST /<method>`` with a JSON params body (or a bare
    params object), query-string params merged under body params,
    ``GET /<method>`` for the read-only
    :data:`~repro.serve.protocol.GET_METHODS` (handy for ``curl
    http://host:port/health``), keep-alive under HTTP/1.1, status codes
    per the serving error contract;
  - any other line keeps the connection **NDJSON** (newline-delimited
    JSON): one ``{"method", "params"}`` line in, one ``{"status",
    "body"}`` line out. Requests carrying an ``"id"`` are
    **pipelined**: many may be in flight per connection, responses are
    matched by the echoed id and may complete out of order. Requests
    without an id are answered strictly in request order, which is what
    the one-at-a-time ``tcp://`` / ``unix://`` transports of
    :class:`~repro.serve.frontend.ServiceClient` rely on.

  Both framings bound the bytes buffered for one request
  (``max_request_bytes``, default 16 MiB): an NDJSON line past the cap,
  or an HTTP ``Content-Length`` past it, gets a 400 and a severed
  connection before the excess is read.
* :class:`AsyncServiceClient` — the asyncio client: one connection, a
  background reader task routing responses to per-request futures, so N
  ``call()`` coroutines naturally keep N requests in flight
  (:meth:`AsyncServiceClient.pipeline_queries` drives per-frame calls
  with ``depth`` concurrent on the wire).

**Transparent micro-batching.** Concurrent :meth:`AsyncServiceClient.
query` calls that share ``(site, day, frame_length)`` within one
event-loop tick are coalesced into a single ``query_batch`` wire
request (up to :data:`AUTOBATCH_FRAMES` frames), amortizing the
JSON/syscall cost of the round trip. The matching kernel is
batch-invariant — a frame's row has the same bits in a batch of any
size — so the server answers the batch in one backend call and every
coalesced answer is bit-identical to a lone ``query``; the request asks
for ``best_scores`` so each frame gets its ``score`` back.

**Streamed ``query_trace``.** With ``"stream": true`` the server
computes the trace in **one** backend call, then emits the result as
header + chunk + ``end`` NDJSON lines
(:func:`~repro.serve.protocol.iter_trace_stream`), draining after each
chunk so server-side buffering stays flat. Uploads stream symmetrically
via ``"frames_follow": true`` continuation lines. Every chunk carries
its columns as packed little-endian arrays
(:func:`~repro.serve.protocol.pack_array`), so neither end prints or
parses a float; a malformed chunk gets a 400, and a connection's
pending uploads may hold at most ``max_request_bytes``. Peak
per-message bytes on the client (:attr:`AsyncServiceClient.
peak_message_bytes`) is independent of trace length — the benchmark's
flat-buffering gate.

**The loop never parks on a backend.** Backends declare a
``wire_dispatch`` hint: ``"inline"`` (:class:`~repro.serve.service.
LocalizationService` — warm queries are µs-scale numpy calls, cheaper
inline than a thread handoff) or ``"offload"`` (:class:`~repro.serve.
shard.ShardedService` — a routed call can park on a worker pipe, so it
runs on a thread pool and the loop keeps serving other requests).
An inline request that is not streamed is answered in the connection
loop itself, id or not: no task, ``dispatch`` called directly, the
response line written straight to the transport, and ``drain()``
awaited only once the transport buffers more than a fixed high-water
mark. Offloaded requests and streamed traces get a task per request
(when they carry an id) and drain after every line they write.

Bit-identity with in-process answers holds on every transport: same
``dispatch``, same JSON float round-trip, same 400/404/409/503 error
contract, gated by the ``frontend`` bench section's smoke gates
(``make frontend-smoke``) over ``http://``, ``tcp://`` and ``unix://``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.serve.frontend import (
    ClientSurface,
    Decoder,
    RemoteBatchResult,
    RemoteMatchResult,
    checked_body,
    decode_batch,
    parse_address,
    trace_frames,
)
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    GET_METHODS,
    STREAM_CHUNK_FRAMES,
    DropResponse,
    decode,
    dispatch,
    encode,
    error_body,
    error_status,
    iter_trace_stream,
    merge_trace_stream,
    pack_array,
    unpack_array,
)
from repro.sim.trace import LiveTrace

__all__ = ["AioFrontend", "AsyncServiceClient"]

#: Thread-pool width for ``wire_dispatch == "offload"`` backends. Sized
#: to the sharded router's useful concurrency (one in-flight call per
#: shard pipe plus headroom), not the connection count — excess pool
#: threads would only contend on the per-shard locks.
DEFAULT_DISPATCH_WORKERS = 8

#: Most frames one coalesced ``query_batch`` carries; a larger tick of
#: concurrent :meth:`AsyncServiceClient.query` calls goes out as several.
AUTOBATCH_FRAMES = 32

#: An HTTP/1.x request line (``VERB SP target SP HTTP/1.x``). An NDJSON
#: request line is a JSON object and starts with ``{``, so it can never
#: match: the first line of a connection alone decides its framing.
_HTTP_REQUEST_LINE = re.compile(
    rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+) (\S+) HTTP/1\.([0-9])\r?\n"
)

#: Bytes an inline answer may leave in the transport's write buffer before
#: the connection loop awaits ``drain()`` (asyncio's default high-water
#: mark), so a client that pipelines without reading cannot grow it
#: without bound.
_DRAIN_HIGH_WATER = 64 * 1024

#: Header lines accepted per HTTP request (the stdlib server's bound).
_MAX_HTTP_HEADERS = 100


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    sock = writer.get_extra_info("socket")
    if sock is not None and sock.family in (
        socket.AF_INET,
        getattr(socket, "AF_INET6", socket.AF_INET),
    ):
        # Small request/response pairs stall ~40 ms on Nagle + delayed
        # ACK without this (the clients set it on their half too).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _HttpError(Exception):
    """An HTTP framing error: answer ``status`` and close the connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Uploads(dict):
    """One connection's pending streamed uploads, by request id.

    :attr:`held` counts the bytes they buffer (each one's request line
    plus its decoded frames), capped at ``cap``: the bound one
    non-streamed request gets, so a client that never sends ``end``
    cannot grow server memory without bound.
    """

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap
        self.held = 0

    def hold(self, upload: Dict[str, Any], size: int) -> None:
        """Charge ``size`` bytes to ``upload``; ``ValueError`` past the cap."""
        if self.held + size > self.cap:
            raise ValueError(
                f"streamed upload exceeds the {self.cap}-byte limit"
            )
        self.held += size
        upload["held"] += size

    def drop(self, req_id: Any) -> None:
        upload = self.pop(req_id, None)
        if upload is not None:
            self.held -= upload["held"]


async def _read_http_line(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _HttpError(431, f"HTTP {what} exceeds the size limit") from None


def _http_call(verb: bytes, target: str, raw: bytes) -> Tuple[str, Any]:
    """``(method, params)`` of one HTTP request.

    Raises ``KeyError`` (404) for a ``GET`` on a method that is not
    read-only, ``ValueError`` (400) for a body that is not a JSON object
    or whose params are not one. Query-string params merge under body
    params.
    """
    parts = urlsplit(target)
    method = parts.path.strip("/")
    params: Dict[str, Any] = dict(parse_qsl(parts.query))
    if verb == b"GET":
        if method not in GET_METHODS:
            raise KeyError(
                f"GET {target!r} is not routable; POST /<method> "
                f"(GET serves: {', '.join(GET_METHODS)})"
            )
        return method, params
    body = decode(raw) if raw.strip() else {}
    body_params = body.get("params", body) or {}
    if not isinstance(body_params, dict):
        raise ValueError(
            "params must be a JSON object, got "
            f"{type(body_params).__name__}"
        )
    params.update(body_params)
    return method, params


async def _http_respond(
    writer: asyncio.StreamWriter,
    status: int,
    body: Dict[str, Any],
    *,
    close: bool,
) -> None:
    payload = encode(body)
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        "Server: tafloc-serve\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    )
    writer.write(head.encode("ascii") + payload)
    await writer.drain()


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class AioFrontend:
    """The wire server over a service backend (in-process or sharded).

    The event loop runs on a daemon thread: ``with AioFrontend(svc) as
    f:`` or :meth:`start` / :meth:`close`. ``port=0`` binds an
    ephemeral port; after :meth:`start` the one TCP port is reachable
    as :attr:`address` (``tcp://host:port``, NDJSON) and
    :attr:`http_address` (``http://host:port``). Pass ``unix_path`` to
    additionally serve on a unix socket (:attr:`unix_address`).

    Args:
        backend: Anything with the service query surface. Its
            ``wire_dispatch`` attribute ("inline"/"offload", default
            offload) decides whether requests run on the loop or on a
            dispatch thread pool.
        host/port: TCP bind address (``port=0`` = ephemeral).
        unix_path: Optional unix-socket path to serve as well.
        max_request_bytes: Per-request cap: an overlong NDJSON line, HTTP
            header line or HTTP body gets a 400 and a severed connection
            (a mid-request stream cannot resync).
        dispatch_workers: Thread-pool width for offload backends.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_path: Optional[str] = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
    ) -> None:
        self.backend = backend
        self._host_arg, self._port_arg = host, int(port)
        self.unix_path = None if unix_path is None else str(unix_path)
        self.max_request_bytes = int(max_request_bytes)
        self._mode = getattr(backend, "wire_dispatch", "offload")
        self._dispatch_workers = int(dispatch_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._sockname: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AioFrontend":
        """Serve on a daemon thread; returns self (``with X().start()``)."""
        if self._thread is None:
            self._ready.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="AioFrontend"
            )
            self._thread.start()
            self._ready.wait(timeout=30.0)
            if self._startup_error is not None:
                error, self._startup_error = self._startup_error, None
                self._thread.join(timeout=5.0)
                self._thread = None
                raise error
        return self

    def close(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        if self.unix_path and os.path.exists(self.unix_path):
            os.unlink(self.unix_path)

    def __enter__(self) -> "AioFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def host(self) -> str:
        return self._sockname[0]

    @property
    def port(self) -> int:
        return self._sockname[1]

    @property
    def address(self) -> str:
        """``tcp://host:port`` — feed it to either client class."""
        return f"tcp://{self.host}:{self.port}"

    @property
    def http_address(self) -> str:
        """``http://host:port`` — the same port, HTTP/1.1 framing."""
        return f"http://{self.host}:{self.port}"

    @property
    def unix_address(self) -> Optional[str]:
        return None if self.unix_path is None else f"unix://{self.unix_path}"

    # -- event loop ----------------------------------------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._open())
        except BaseException as error:  # noqa: BLE001 - crossed to starter
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown())
            loop.close()

    async def _open(self) -> None:
        if self._mode != "inline" and self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._dispatch_workers,
                thread_name_prefix="aio-dispatch",
            )
        # limit bounds StreamReader.readline: an overlong request line
        # surfaces as ValueError in the connection loop -> 400 + sever.
        limit = self.max_request_bytes + 2
        server = await asyncio.start_server(
            self._serve_connection, self._host_arg, self._port_arg, limit=limit
        )
        self._servers.append(server)
        self._sockname = server.sockets[0].getsockname()[:2]
        if self.unix_path is not None:
            if os.path.exists(self.unix_path):
                os.unlink(self.unix_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._serve_connection, self.unix_path, limit=limit
                )
            )

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling -------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        _set_nodelay(writer)
        lock = asyncio.Lock()
        tasks: set = set()
        uploads = _Uploads(self.max_request_bytes)
        routed = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line never terminated within the cap; the
                    # stream is mid-line and cannot resync: 400 + sever.
                    await self._refuse(
                        writer,
                        lock,
                        "request line exceeds the "
                        f"{self.max_request_bytes}-byte limit",
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if not routed:
                    # The first line picks the framing for the whole
                    # connection; NDJSON lines never re-check it.
                    routed = True
                    if _HTTP_REQUEST_LINE.fullmatch(line):
                        await self._serve_http(line, reader, writer)
                        break
                try:
                    message = decode(line)
                except ValueError as error:
                    await self._refuse(writer, lock, str(error))
                    continue
                severed = await self._handle_message(
                    message, len(line), uploads, writer, lock, tasks
                )
                if severed:
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Swallowing the cancel lets a torn-down handler task end
                # cleanly instead of tripping asyncio.streams' completion
                # callback (task.exception() raises on cancelled tasks).
                pass

    async def _handle_message(
        self, message, size, uploads, writer, lock, tasks
    ) -> bool:
        """Route one decoded request line of ``size`` bytes; True = sever
        the connection."""
        req_id = message.get("id")
        if "method" in message:
            method = str(message.get("method", ""))
            stream = bool(message.get("stream"))
            chunk = message.get("chunk", STREAM_CHUNK_FRAMES)
            if message.get("frames_follow"):
                # Streamed upload: params arrive now, frames in
                # continuation lines matched by id (see _handle_upload).
                upload = {
                    "method": method,
                    "params": dict(message.get("params") or {}),
                    "frames": [],
                    "stream": stream,
                    "chunk": chunk,
                    "held": 0,
                }
                uploads.drop(req_id)
                try:
                    uploads.hold(upload, size)
                except ValueError as error:
                    await self._refuse(writer, lock, str(error), id=req_id)
                    return False
                uploads[req_id] = upload
                return False
            return await self._spawn(
                writer,
                lock,
                tasks,
                req_id,
                method,
                message.get("params"),
                stream,
                chunk,
            )
        if "frames" in message or message.get("end"):
            return await self._handle_upload(
                message, uploads, writer, lock, tasks
            )
        await self._refuse(
            writer,
            lock,
            "message carries neither a method nor a stream continuation",
            id=req_id,
        )
        return False

    async def _handle_upload(
        self, message, uploads, writer, lock, tasks
    ) -> bool:
        req_id = message.get("id")
        upload = uploads.get(req_id)
        if upload is None:
            await self._refuse(
                writer,
                lock,
                f"continuation line for unknown request id {req_id!r}",
                id=req_id,
            )
            return False
        if "frames" in message:
            try:
                # Decode each packed chunk at once: server-side peak
                # buffering stays one chunk line, not one trace.
                frames = unpack_array(message["frames"], "<f8", 2)
                first = upload["frames"][:1]
                if first and frames.shape[1] != first[0].shape[1]:
                    raise ValueError("upload chunks carry different link counts")
                uploads.hold(upload, frames.nbytes)
            except ValueError as error:
                uploads.drop(req_id)
                await self._refuse(writer, lock, str(error), id=req_id)
                return False
            upload["frames"].append(frames)
            return False
        # end marker: assemble and dispatch like an inline request.
        uploads.drop(req_id)
        params = upload["params"]
        params["frames"] = (
            np.concatenate(upload["frames"])
            if upload["frames"]
            else np.empty((0, 0), dtype=float)
        )
        return await self._spawn(
            writer,
            lock,
            tasks,
            req_id,
            upload["method"],
            params,
            upload["stream"],
            upload["chunk"],
        )

    async def _spawn(
        self, writer, lock, tasks, req_id, method, params, stream, chunk
    ) -> bool:
        if self._mode == "inline" and not stream:
            # An inline dispatch is synchronous anyway: answer right here,
            # in request order, with no task and no per-line drain.
            try:
                status, body = dispatch(self.backend, method, params)
            except DropResponse:
                writer.close()  # fault injection: sever instead of replying
                return True
            response: Dict[str, Any] = {"status": status, "body": body}
            if req_id is not None:
                response["id"] = req_id
            writer.write(encode(response))
            if writer.transport.get_write_buffer_size() > _DRAIN_HIGH_WATER:
                async with lock:
                    await writer.drain()
            return False
        if req_id is None:
            # No id -> the client cannot match out-of-order responses;
            # answer sequentially so responses stay in request order.
            return await self._answer(
                writer, lock, req_id, method, params, stream, chunk
            )
        task = asyncio.get_running_loop().create_task(
            self._answer(writer, lock, req_id, method, params, stream, chunk)
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        return False

    async def _answer(
        self, writer, lock, req_id, method, params, stream, chunk
    ) -> bool:
        try:
            status, body = await self._dispatch(method, params, stream)
        except DropResponse:
            # Fault injection: sever the connection instead of replying.
            writer.close()
            return True
        except asyncio.CancelledError:
            raise
        try:
            if stream and status == 200 and method == "query_trace":
                try:
                    chunk = max(1, int(chunk))
                except (TypeError, ValueError):
                    chunk = STREAM_CHUNK_FRAMES
                for part in iter_trace_stream(body, chunk):
                    if part.get("stream"):
                        part["status"] = status
                    if req_id is not None:
                        part["id"] = req_id
                    # Drain per chunk: server-side write buffering stays
                    # one chunk deep regardless of trace length.
                    await self._send(writer, lock, part)
            else:
                response: Dict[str, Any] = {"status": status, "body": body}
                if req_id is not None:
                    response["id"] = req_id
                await self._send(writer, lock, response)
        except (ConnectionError, OSError):
            return True
        return False

    async def _dispatch(
        self, method, params, stream=False
    ) -> Tuple[int, Dict[str, Any]]:
        if self._mode == "inline":
            return dispatch(self.backend, method, params, stream)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, dispatch, self.backend, method, params, stream
        )

    async def _send(self, writer, lock, payload: Dict[str, Any]) -> None:
        data = encode(payload)
        async with lock:
            writer.write(data)
            await writer.drain()

    async def _refuse(self, writer, lock, message: str, **tag) -> None:
        """Answer 400 with ``message``; ``tag`` is the ``id``, if any."""
        body = {"error": "ValueError", "message": message}
        await self._send(writer, lock, {**tag, "status": 400, "body": body})

    # -- HTTP/1.1 framing ----------------------------------------------
    async def _serve_http(self, line: bytes, reader, writer) -> None:
        """Answer HTTP requests one at a time until the connection ends.

        ``line`` is the request line already read by the router. A
        framing error (bad request line, header block past its bounds,
        hostile ``Content-Length``, unsupported verb) gets its status and
        closes the connection: the rest of the stream cannot be trusted.
        """
        try:
            while line:
                if line.strip() and not await self._http_exchange(
                    line, reader, writer
                ):
                    return
                line = await _read_http_line(reader, "request line")
        except _HttpError as error:
            await _http_respond(
                writer,
                error.status,
                {"error": "ValueError", "message": str(error)},
                close=True,
            )
        except asyncio.IncompleteReadError:
            pass  # the peer hung up mid-body

    async def _http_exchange(self, line: bytes, reader, writer) -> bool:
        """Read, dispatch and answer one request; True = keep alive."""
        match = _HTTP_REQUEST_LINE.fullmatch(line)
        if match is None:
            raise _HttpError(400, f"malformed HTTP request line {line[:80]!r}")
        verb, target, minor = match.groups()
        headers: Dict[str, str] = {}
        header_bytes = 0
        for _ in range(_MAX_HTTP_HEADERS + 1):
            header = await _read_http_line(reader, "header line")
            if not header:
                return False  # the peer hung up mid-request
            if not header.strip():
                break
            header_bytes += len(header)
            if header_bytes > self.max_request_bytes:
                raise _HttpError(431, "HTTP header block exceeds the size limit")
            name, colon, value = header.decode("latin-1").partition(":")
            if not colon:
                raise _HttpError(400, f"malformed HTTP header {header[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(431, f"more than {_MAX_HTTP_HEADERS} header lines")
        if verb not in (b"GET", b"POST"):
            raise _HttpError(501, f"unsupported HTTP method {verb.decode()!r}")
        if "transfer-encoding" in headers:
            raise _HttpError(501, "send a Content-Length body, not chunked")
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _HttpError(
                400, f"malformed Content-Length {length_text[:80]!r}"
            )
        # The digit count is checked first: int() refuses numerals longer
        # than 4300 digits.
        if len(length_text) > 18 or int(length_text) > self.max_request_bytes:
            # Refused before reading a single body byte; the unread body
            # would desync keep-alive, so the connection closes too.
            raise _HttpError(
                400,
                f"request body of {length_text[:20]} bytes exceeds the "
                f"{self.max_request_bytes}-byte limit",
            )
        length = int(length_text)
        close = (
            minor == b"0" or headers.get("connection", "").lower() == "close"
        )
        if minor != b"0" and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = await reader.readexactly(length) if length else b""
        try:
            method, params = _http_call(verb, target.decode("latin-1"), raw)
        except (KeyError, ValueError) as error:
            status, body = error_status(error), error_body(error)
        else:
            try:
                status, body = await self._dispatch(method, params)
            except DropResponse:
                return False  # fault injection: sever instead of replying
        await _http_respond(writer, status, body, close=close)
        return not close


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class AsyncServiceClient(ClientSurface):
    """Pipelined asyncio client for the aio front-end.

    One persistent connection; a background reader task routes responses
    to per-request futures by id, so any number of concurrent ``call()``
    coroutines share the connection with their requests in flight at
    once. Every wire method's wrapper comes from
    :class:`~repro.serve.frontend.ClientSurface` and returns an awaitable
    here; contract errors re-raise as the in-process exception types,
    exactly like :class:`~repro.serve.frontend.ServiceClient`. Only the
    transport-specific paths live in this class: the coalescing
    :meth:`query`, the streamed :meth:`query_trace` and
    :meth:`pipeline_queries`.

    Transport errors surface raw: retry policy (idempotence bookkeeping,
    backoff, jitter) stays the sync client's job — this client exists
    for the throughput path, where the caller owns failure handling.

    Use from a single event loop (``async with AsyncServiceClient(...)``).
    :attr:`peak_message_bytes` records the largest single NDJSON line
    sent or received since the last :meth:`reset_peak` — the
    flat-buffering gate for streamed traces measures it.

    Args:
        address: ``tcp://host:port`` or ``unix:///path``.
        timeout: Seconds to wait for any single response future.
        stream_chunk: Frames per chunk for streamed traces (both
            directions); the server honors it via the request's
            ``chunk`` field.
        limit: Reader buffer cap, i.e. the largest single response line
            accepted (matters only for *non*-streamed long traces).
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 30.0,
        stream_chunk: int = STREAM_CHUNK_FRAMES,
        limit: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        self.address = str(address)
        self._target = parse_address(self.address, ("tcp", "unix"))
        self._timeout = float(timeout)
        self._stream_chunk = max(1, int(stream_chunk))
        self._limit = int(limit)
        self._batch_groups: Dict[Tuple, List[Tuple]] = {}
        self._batch_flush_scheduled = False
        self._ids = itertools.count(1)
        self._pending: Dict[Any, Dict[str, Any]] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        # Lazily loop-bound (3.10+), so creating them here is safe; the
        # connect lock keeps concurrent first calls from double-dialing.
        self._send_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self.peak_message_bytes = 0

    def reset_peak(self) -> None:
        self.peak_message_bytes = 0

    # -- connection ----------------------------------------------------
    async def connect(self) -> "AsyncServiceClient":
        async with self._connect_lock:
            if self._writer is None:
                scheme, target = self._target
                if scheme == "tcp":
                    opening = asyncio.open_connection(
                        *target, limit=self._limit
                    )
                else:
                    opening = asyncio.open_unix_connection(
                        *target, limit=self._limit
                    )
                self._reader, self._writer = await asyncio.wait_for(
                    opening, self._timeout
                )
                _set_nodelay(self._writer)
                self._reader_task = asyncio.get_running_loop().create_task(
                    self._read_loop()
                )
        return self

    async def close(self) -> None:
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except BaseException:  # noqa: BLE001 - best-effort teardown
                pass
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(ConnectionError("client closed"))
        # Queued-but-unflushed micro-batch entries are not in _pending;
        # fail them too so no caller hangs on a dead client.
        groups, self._batch_groups = self._batch_groups, {}
        for entries in groups.values():
            for _, future in entries:
                if not future.done():
                    future.set_exception(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                if len(line) > self.peak_message_bytes:
                    self.peak_message_bytes = len(line)
                self._route(decode(line))
        except BaseException as error:  # noqa: BLE001 - fan out to callers
            self._fail_pending(error)

    def _route(self, message: Dict[str, Any]) -> None:
        pending = self._pending.get(message.get("id"))
        if pending is None:
            return  # response for an abandoned (timed-out) request
        if message.get("stream"):
            pending["header"] = message
            return
        if "seq" in message:
            pending["parts"].append(message)
            return
        del self._pending[message.get("id")]
        future = pending["future"]
        if future.done():
            return
        if message.get("end"):
            future.set_result((pending["header"] or {}, pending["parts"]))
        else:
            future.set_result((message, None))

    def _fail_pending(self, error: BaseException) -> None:
        if not isinstance(error, Exception):
            error = ConnectionError(f"connection torn down: {error!r}")
        pending, self._pending = self._pending, {}
        for state in pending.values():
            future = state["future"]
            if not future.done():
                future.set_exception(error)

    # -- request plumbing ----------------------------------------------
    async def _send(self, payload: Dict[str, Any]) -> None:
        data = encode(payload)
        if len(data) > self.peak_message_bytes:
            self.peak_message_bytes = len(data)
        async with self._send_lock:
            self._writer.write(data)
            await self._writer.drain()

    async def _exchange(
        self, request: Dict[str, Any], follow: Iterable[Dict[str, Any]] = ()
    ) -> Dict[str, Any]:
        """Send ``request`` and its ``follow`` continuation lines under one
        fresh id; the answer body.

        The id is pending from before the first line until the answer
        arrives. A failed send or a timeout drops it again, so nothing
        is left for :meth:`close` to fail with no one awaiting it.
        """
        await self.connect()
        req_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = {"future": future, "header": None, "parts": []}
        try:
            await self._send({"id": req_id, **request})
            for line in follow:
                await self._send({"id": req_id, **line})
            result = await asyncio.wait_for(future, self._timeout)
        except BaseException:
            self._pending.pop(req_id, None)
            raise
        head, parts = result
        if parts is None:  # one plain response line
            status = int(head.get("status", 500))
            return checked_body(status, head.get("body", {}))
        status = int(head.get("status", 200))  # a streamed answer's header
        return checked_body(status, merge_trace_stream(head, parts))

    async def call(
        self, method: str, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One protocol request; any number may be awaited concurrently."""
        return await self._exchange({"method": method, "params": params or {}})

    async def _invoke(
        self, method: str, params: Dict[str, Any], decode: Decoder
    ):
        return decode(await self.call(method, params))

    # -- transport-specific surface ----------------------------------------
    async def query(self, site: str, rss, day: float) -> RemoteMatchResult:
        """One single-frame query (transparently micro-batched).

        Concurrent ``query()`` calls ready on the same event-loop tick
        that share ``(site, day, frame length)`` coalesce into wire
        ``query_batch`` requests of at most :data:`AUTOBATCH_FRAMES`
        frames (with ``best_scores``) and fan back out: same
        single-query semantics, bit-identical cell/position/score, one
        round trip per window instead of per call. The coalescing
        window is a single loop pass, so an isolated query gains no
        latency — it just goes out alone.
        """
        frame = np.asarray(rss, dtype=float).tolist()
        await self.connect()
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        key = (str(site), float(day), len(frame))
        self._batch_groups.setdefault(key, []).append((frame, future))
        if not self._batch_flush_scheduled:
            self._batch_flush_scheduled = True
            # call_soon runs after every query() already ready this
            # tick has queued its frame — that is the whole window.
            loop.call_soon(self._flush_batches, loop)
        return await future

    def _flush_batches(self, loop: asyncio.AbstractEventLoop) -> None:
        self._batch_flush_scheduled = False
        groups, self._batch_groups = self._batch_groups, {}
        for (site, day, _), entries in groups.items():
            for start in range(0, len(entries), AUTOBATCH_FRAMES):
                loop.create_task(
                    self._query_coalesced(
                        site, day, entries[start : start + AUTOBATCH_FRAMES]
                    )
                )

    async def _query_coalesced(
        self, site: str, day: float, entries: List[Tuple]
    ) -> None:
        try:
            if len(entries) == 1:
                results = [await super().query(site, entries[0][0], day)]
            else:
                # The batch kernel gives every row a lone query's bits, so
                # coalescing N queries into one round trip cannot change a
                # single bit of any answer.
                body = await self.call(
                    "query_batch",
                    {
                        "site": site,
                        "frames": [frame for frame, _ in entries],
                        "day": day,
                        "best_scores": True,
                    },
                )
                stale = bool(body.get("stale", False))
                cells, positions = body["cells"], body["positions"]
                best = body["best"]
                results = [
                    RemoteMatchResult(
                        cell=int(cells[index]),
                        position=(positions[index][0], positions[index][1]),
                        score=float(best[index]),
                        stale=stale,
                    )
                    for index in range(len(entries))
                ]
        except Exception as error:  # noqa: BLE001 - fan out to callers
            for _, future in entries:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(entries, results):
            if not future.done():
                future.set_result(result)

    async def query_trace(
        self,
        site: str,
        trace: Union[LiveTrace, np.ndarray],
        day: Optional[float] = None,
        *,
        include_scores: bool = False,
        stream: bool = True,
        chunk: Optional[int] = None,
    ) -> RemoteBatchResult:
        """Localize a trace; streamed by default.

        With ``stream=True`` both the frame upload and the result travel
        as bounded NDJSON chunks of packed arrays, so peak per-message
        buffering is independent of trace length; the reassembled result
        is bit-identical to the non-streamed (and in-process) answer.
        """
        if not stream:
            return await super().query_trace(
                site, trace, day, include_scores=include_scores
            )
        frames, day = trace_frames(trace, day)
        frames = np.asarray(frames, dtype=float)
        chunk = self._stream_chunk if chunk is None else max(1, int(chunk))
        # One packed chunk per line, packed as it is sent: the encode
        # buffer holds one chunk, never the whole trace.
        parts = (
            {"frames": pack_array(frames[start : start + chunk], "<f8")}
            for start in range(0, frames.shape[0], chunk)
        )
        params = {"site": site, "day": day, "include_scores": include_scores}
        request = {
            "method": "query_trace",
            "params": params,
            "stream": True,
            "chunk": chunk,
            "frames_follow": True,
        }
        body = await self._exchange(
            request, itertools.chain(parts, [{"end": True}])
        )
        return decode_batch(body)

    async def pipeline_queries(
        self, site: str, frames, day: float, *, depth: int = 32
    ) -> List[RemoteMatchResult]:
        """Per-frame single queries with up to ``depth`` in flight.

        The transparent-batching mode: callers write one-query-at-a-time
        code, the connection carries ``depth`` requests concurrently and
        results come back in frame order. Each answer is bit-identical
        to the corresponding sequential single query.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        frames = np.asarray(frames, dtype=float)
        semaphore = asyncio.Semaphore(depth)

        async def one(row) -> RemoteMatchResult:
            async with semaphore:
                return await self.query(site, row, day)

        return list(
            await asyncio.gather(*(one(row.tolist()) for row in frames))
        )
