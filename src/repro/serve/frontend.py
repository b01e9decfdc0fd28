"""The sync wire client, stdlib only.

:class:`ServiceClient` talks to the one wire server,
:class:`~repro.serve.aio.AioFrontend`, over any of the transports that
server answers on one port (plus its optional unix socket):

* ``http://host:port`` — ``POST /<method>`` with a JSON params body over
  HTTP/1.1 keep-alive, so a steady client pays one TCP handshake, not
  one per query;
* ``tcp://host:port`` — newline-delimited JSON (NDJSON): one
  ``{"method", "params"}`` line in, one ``{"status", "body"}`` line out,
  persistent connection, ``TCP_NODELAY``;
* ``unix:///path`` — the same NDJSON framing over a unix domain socket.

The client reverses the status mapping, so remote errors arrive as the
same exception types the in-process
:class:`~repro.serve.service.LocalizationService` raises, and batch
results come back as numpy arrays that are bit-identical to the
in-process answers (float64 survives JSON round-trip exactly; the
``frontend`` bench section's smoke gates assert it).

**Retry policy lives in the client, not the transports.** Each transport
makes exactly one attempt per call and poisons its cached connection on
any failure; :meth:`ServiceClient.call` retries *idempotent* methods
(:data:`~repro.serve.protocol.IDEMPOTENT_METHODS`) with capped
exponential backoff plus jitter (a thundering herd of clients
reconnecting to a restarted server should not arrive in lockstep) and
raises :class:`~repro.serve.protocol.ServiceUnavailable` — chaining the
last transport error — once the budget is exhausted. ``update`` and
``commission`` are never re-sent (a duplicate execution would append a
second epoch), and a ``TimeoutError`` is never retried for *any* method:
the first copy may still be executing server-side.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

from repro.serve.protocol import (
    ERROR_TYPES,
    IDEMPOTENT_METHODS,
    ServiceUnavailable,
    decode,
    encode,
)
from repro.sim.trace import LiveTrace

__all__ = [
    "RemoteBatchResult",
    "RemoteMatchResult",
    "ServiceClient",
]


@dataclass(frozen=True)
class RemoteMatchResult:
    """One localization answer received over the wire.

    ``stale`` mirrors the wire marker a degraded-mode backend attaches
    when it answered from the last verified snapshot because every live
    replica of the site was down (see
    :class:`~repro.serve.shard.StaleAnswer`). Fresh answers omit the
    marker, so the field defaults to ``False``.
    """

    cell: int
    position: Tuple[float, float]
    score: float
    stale: bool = False


@dataclass(frozen=True)
class RemoteBatchResult:
    """A batch of localization answers received over the wire.

    Mirrors the columnar fields of
    :class:`~repro.core.matching.BatchMatchResult` so bit-identity checks
    can compare ``cells``/``positions`` (and ``scores`` when requested)
    directly with ``np.array_equal``.
    """

    cells: np.ndarray
    positions: np.ndarray
    scores: Optional[np.ndarray] = None
    #: True when the answer came from a degraded-mode snapshot replica.
    stale: bool = False

    @property
    def frame_count(self) -> int:
        return int(self.cells.shape[0])


class _HttpTransport:
    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._host, self._port, self._timeout = host, port, timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._connection.connect()
            # The server sets TCP_NODELAY on its half; without the client
            # half, every query pays a ~40 ms Nagle/delayed-ACK stall
            # instead of a sub-millisecond round trip.
            self._connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._connection

    def call(self, method: str, params: Dict[str, Any]) -> Tuple[int, Dict]:
        """One attempt; any failure poisons the cached connection.

        Retry policy (which failures re-send, how many times, how long
        between) belongs to :meth:`ServiceClient.call`.
        """
        payload = json.dumps({"params": params})
        headers = {"Content-Type": "application/json"}
        connection = self._connect()
        try:
            connection.request("POST", f"/{method}", payload, headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except BaseException:
            self.close()  # the keep-alive stream is desynced; re-dial lazily
            raise

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class _LineTransport:
    """NDJSON request/response over a stream socket.

    The shared body of the ``unix://`` and ``tcp://`` transports — one
    ``{"method", "params"}`` line out, one ``{"status", "body"}`` line
    back, persistent connection, poison-on-failure. Subclasses supply
    :meth:`_dial`. (The aio server also echoes a request ``"id"`` when
    one is sent; this one-at-a-time transport never sends one, so
    responses arrive strictly in request order.)
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    def _dial(self) -> socket.socket:
        raise NotImplementedError

    def _connect(self):
        if self._sock is None:
            self._sock = self._dial()
            self._sock.settimeout(self._timeout)
            self._file = self._sock.makefile("rb")
        return self._sock, self._file

    def call(self, method: str, params: Dict[str, Any]) -> Tuple[int, Dict]:
        """One attempt; see :meth:`_HttpTransport.call` for the contract."""
        sock, reader = self._connect()
        try:
            sock.sendall(encode({"method": method, "params": params}))
            line = reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode(line)
            return int(response["status"]), response.get("body", {})
        except BaseException:
            self.close()  # the stream is desynced; re-dial lazily
            raise

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class _UnixTransport(_LineTransport):
    def __init__(self, path: str, timeout: float) -> None:
        super().__init__(timeout)
        self._path = path

    def _dial(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        sock.connect(self._path)
        return sock


class _TcpTransport(_LineTransport):
    """The sync-client face of the aio front-end: NDJSON over TCP."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        super().__init__(timeout)
        self._host, self._port = host, port

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Same Nagle/delayed-ACK reasoning as the HTTP transport: small
        # request/response pairs stall ~40 ms without TCP_NODELAY.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


class ServiceClient:
    """Client for the wire server; mirrors the in-process contract.

    ``address`` is ``"http://host:port"``, ``"tcp://host:port"`` (NDJSON
    on the same port), or ``"unix:///path"``. The
    connection is persistent (keep-alive / stream) and guarded by a lock,
    so one client may be shared across threads; per-thread clients avoid
    the lock when throughput matters. Contract errors raised by the remote
    service re-raise locally as their original types (``KeyError`` for an
    unknown site, ``ValueError`` for malformed RSS, ...), which is what
    makes swapping :class:`~repro.serve.service.LocalizationService` for a
    client a one-line change.

    Args:
        address: ``http://host:port``, ``tcp://host:port``, or
            ``unix:///path``.
        timeout: Socket timeout per attempt, seconds.
        retries: Transport-failure *re-sends* for idempotent methods
            (total attempts = ``retries + 1``). Non-idempotent methods
            and timeouts never retry regardless.
        backoff: Base delay before the first re-send; doubles per retry.
        max_backoff: Ceiling on any single delay. Every delay is
            jittered to 50–100% of its nominal value so restarted
            servers are not hit by synchronized client herds.
        jitter_seed: Seed for the backoff jitter source. ``None`` (the
            default) seeds a private PRNG from OS entropy — different
            clients de-synchronize naturally without sharing global
            state. Pass an int for an exact, reproducible retry
            schedule (retry-timing tests assert the sleep sequence down
            to the float).
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        jitter_seed: Optional[int] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        # Always a private Random instance: seeded for deterministic
        # schedules, entropy-seeded otherwise (cross-client
        # de-synchronization without sharing the module-global PRNG,
        # whose draw interleaving would couple concurrent clients).
        self._jitter = random.Random(
            jitter_seed if jitter_seed is not None else os.urandom(8)
        )
        self.address = str(address)
        parts = urlsplit(self.address)
        if parts.scheme == "http":
            if parts.hostname is None or parts.port is None:
                raise ValueError(
                    f"http address must be http://host:port, got {address!r}"
                )
            self._transport = _HttpTransport(
                parts.hostname, parts.port, timeout
            )
        elif parts.scheme == "tcp":
            if parts.hostname is None or parts.port is None:
                raise ValueError(
                    f"tcp address must be tcp://host:port, got {address!r}"
                )
            self._transport = _TcpTransport(parts.hostname, parts.port, timeout)
        elif parts.scheme == "unix":
            path = parts.path or parts.netloc
            if not path:
                raise ValueError(
                    f"unix address must be unix:///path, got {address!r}"
                )
            self._transport = _UnixTransport(path, timeout)
        else:
            raise ValueError(
                f"unsupported address {address!r} "
                "(use http://, tcp://, or unix://)"
            )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def call(self, method: str, params: Optional[Dict[str, Any]] = None):
        """One protocol round trip; raises mapped contract errors.

        Idempotent methods survive transport failures (stale keep-alive
        connections, a server restart, an injected drop) through up to
        ``retries`` re-sends with capped exponential backoff and jitter;
        exhaustion raises :class:`ServiceUnavailable` chaining the last
        transport error. ``update``/``commission`` never re-send — a
        duplicate execution would not be harmless — so a transport error
        there surfaces raw to the caller, who knows whether repeating is
        safe. A ``TimeoutError`` is terminal for every method: the first
        copy may still be executing server-side.
        """
        idempotent = method in IDEMPOTENT_METHODS
        attempts = (self.retries + 1) if idempotent else 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                delay = min(
                    self.backoff * (2 ** (attempt - 1)), self.max_backoff
                )
                # 50-100% jitter: wall-clock pacing only, never results.
                time.sleep(delay * (0.5 + self._jitter.random() / 2))
            try:
                with self._lock:
                    status, body = self._transport.call(method, params or {})
            except TimeoutError:
                raise  # may still be executing server-side: never re-send
            except (
                http.client.HTTPException,
                ConnectionError,
                OSError,
            ) as error:
                last_error = error
                if not idempotent:
                    raise
                continue
            if status >= 400:
                error = ERROR_TYPES.get(body.get("error", ""), RuntimeError)
                raise error(body.get("message", f"server returned {status}"))
            return body
        raise ServiceUnavailable(
            f"{method} failed after {attempts} attempt(s) to {self.address}"
        ) from last_error

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the service surface
    # ------------------------------------------------------------------
    def query(
        self, site: str, rss: Sequence[float], day: float
    ) -> RemoteMatchResult:
        body = self.call(
            "query",
            {"site": site, "rss": np.asarray(rss).tolist(), "day": day},
        )
        return RemoteMatchResult(
            cell=int(body["cell"]),
            position=(body["position"][0], body["position"][1]),
            score=float(body["score"]),
            stale=bool(body.get("stale", False)),
        )

    def _batch(
        self, method: str, site: str, frames, day: float, include_scores: bool
    ) -> RemoteBatchResult:
        body = self.call(
            method,
            {
                "site": site,
                "frames": np.asarray(frames).tolist(),
                "day": day,
                "include_scores": include_scores,
            },
        )
        return RemoteBatchResult(
            cells=np.asarray(body["cells"], dtype=int),
            positions=np.asarray(body["positions"], dtype=float),
            scores=(
                np.asarray(body["scores"], dtype=float)
                if "scores" in body
                else None
            ),
            stale=bool(body.get("stale", False)),
        )

    def query_batch(
        self, site: str, frames, day: float, *, include_scores: bool = False
    ) -> RemoteBatchResult:
        return self._batch("query_batch", site, frames, day, include_scores)

    def query_trace(
        self,
        site: str,
        trace: Union[LiveTrace, np.ndarray],
        day: Optional[float] = None,
        *,
        include_scores: bool = False,
    ) -> RemoteBatchResult:
        """Localize a live trace (its own day) or a frames array at ``day``."""
        if isinstance(trace, LiveTrace):
            frames, day = trace.rss, trace.day
        elif day is None:
            raise ValueError("day is required when trace is a frames array")
        else:
            frames = trace
        return self._batch("query_trace", site, frames, day, include_scores)

    def warm(self, sites: Optional[Iterable[str]] = None) -> List[str]:
        params = {} if sites is None else {"sites": list(sites)}
        return list(self.call("warm", params)["warmed"])

    def update(self, site: str, day: float, *, cold: str = "raise") -> Dict:
        return self.call("update", {"site": site, "day": day, "cold": cold})

    def commission(self, site: str, day: float) -> Dict:
        return self.call("commission", {"site": site, "day": day})

    def staleness(self, site: str, day: float) -> Optional[float]:
        return self.call("staleness", {"site": site, "day": day})["staleness"]

    def drift(
        self, site: str, day: float, frames: int = 32
    ) -> Optional[Dict[str, float]]:
        """Measured drift reading for ``site`` at ``day`` (None when cold)."""
        body = self.call(
            "drift", {"site": site, "day": day, "frames": frames}
        )
        return body.get("drift")

    def scrub(
        self, sites: Optional[Iterable[str]] = None
    ) -> Dict[str, Any]:
        """Run one anti-entropy scrub pass on a sharded backend."""
        params = {} if sites is None else {"sites": list(sites)}
        return self.call("scrub", params)

    def site_summary(self, site: str) -> Dict[str, Any]:
        return self.call("site_summary", {"site": site})

    def summary(self) -> List[Dict[str, Any]]:
        return self.call("summary")["sites"]

    def sites(self) -> List[str]:
        return self.call("sites")["sites"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def health(self) -> Dict[str, Any]:
        return self.call("health")

    def resize(self, shards: int) -> Dict[str, Any]:
        """Resize a sharded backend to ``shards`` workers (moved sites in
        the returned body). Non-idempotent: never auto-retried."""
        return self.call("resize", {"shards": shards})
