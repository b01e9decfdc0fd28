"""The serving wire protocol: JSON methods over any byte transport.

One request is ``{"method": <name>, "params": {...}}``; one response is a
JSON object plus an HTTP-style status code. The protocol is deliberately
transport-agnostic, and the one wire server
(:class:`~repro.serve.aio.AioFrontend`) carries it in two framings: HTTP
puts the status in the response line and the body as JSON, NDJSON
(newline-delimited JSON, over TCP or a unix socket) carries both in one
object (``{"status": ..., "body": ...}``) — either way :func:`dispatch`
is the single implementation, so the framings cannot drift apart. The
per-method wire properties live next to :data:`METHODS`: which methods
HTTP serves as ``GET`` (:data:`GET_METHODS`), which ones a client may
re-send after a transport failure (:data:`IDEMPOTENT_METHODS`), and the
request size cap (:data:`DEFAULT_MAX_REQUEST_BYTES`).

**Bit-identity over the wire.** Results are encoded with :mod:`json`,
whose float serialization is ``repr``-based shortest round-trip: a float64
survives encode→decode exactly, and a packed stream column carries the
float64 bytes themselves. That is what lets the ``frontend`` bench
section's smoke gates (``make frontend-smoke``) assert that wire answers
equal in-process :class:`~repro.serve.service.LocalizationService`
answers bit for bit, scores included.

**Error contract → status codes.** The PR-4 serving error contract maps
onto HTTP-style statuses (the order matters: ``KeyError`` is a
``LookupError`` subclass):

==================================  ======  =============================
exception                           status  meaning
==================================  ======  =============================
``ValueError`` / ``TypeError``      400     malformed request or RSS
``KeyError``                        404     unknown site / method
``LookupError`` (other)             409     no epoch serving that day
``RuntimeError``                    503     pipeline not commissioned yet
anything else                       500     bug — reported, not masked
==================================  ======  =============================

Clients reverse the mapping (:data:`ERROR_TYPES`), so an exception thrown
by a remote service arrives as the *same type* the in-process service
would raise — code written against the in-process contract works unchanged
against :class:`~repro.serve.frontend.ServiceClient`.

**Request ids + pipelining.** A request may carry an ``"id"`` (any JSON
scalar); the response echoes it. Ids exist so a pipelined connection —
many requests in flight at once on an NDJSON connection
(:mod:`repro.serve.aio`) — can match responses that complete out of
order. Requests without an id are answered strictly in request order,
which is what the one-at-a-time sync client transports rely on.

**Streaming ``query_trace``.** A long trace would otherwise buffer one
giant JSON array on both ends. A streaming request
(``"stream": true``) makes the server compute the trace in **one**
backend call and then emit the result as a header line, ``seq``-numbered
chunk lines of at most ``chunk`` frames each, and an ``{"end": true}``
terminator (:func:`iter_trace_stream`). Stream mode carries every
per-frame column as a **packed array** (:func:`pack_array`):
``{"dtype": "<f8"|"<i8", "shape": [...], "data": <base64>}``, the
column's little-endian bytes, so no float is printed or parsed as
decimal text. The client reassembles with :func:`merge_trace_stream`
into ndarray columns that are value-identical, bit for bit, to the
non-streaming body's lists. Uploads stream symmetrically:
``"frames_follow": true`` announces that ``{"id", "frames": <packed
(n, links) "<f8">}`` continuation lines and an ``{"id", "end": true}``
line will follow instead of inline ``params["frames"]``. Packed arrays
exist only in stream mode; every other body is plain JSON.
"""

from __future__ import annotations

import base64
import json
import math
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Tuple,
)

import numpy as np

from repro.sim.trace import LiveTrace

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "ERROR_TYPES",
    "GET_METHODS",
    "IDEMPOTENT_METHODS",
    "METHODS",
    "STREAM_CHUNK_FRAMES",
    "DropResponse",
    "ServiceUnavailable",
    "decode",
    "dispatch",
    "encode",
    "error_body",
    "error_status",
    "iter_trace_stream",
    "merge_trace_stream",
    "pack_array",
    "unpack_array",
]


class ServiceUnavailable(ConnectionError):
    """No live replica (or wire endpoint) could answer.

    Raised by the sharded router when every replica of a site is down, and
    by :class:`~repro.serve.frontend.ServiceClient` after its retry budget
    is exhausted. Subclasses :class:`ConnectionError` (hence ``OSError``),
    so callers that already handled transport failures keep working; over
    the wire it maps to status 503 and arrives client-side as the same
    type.
    """


class DropResponse(Exception):
    """Fault-injection control flow: drop the wire response entirely.

    Raised by :class:`~repro.serve.faults.FlakyService`;
    :func:`dispatch` deliberately re-raises it (it is not a contract
    error), and the transport handlers translate it into a severed
    connection — the client sees a dead socket, not a status code. Never
    raised in production paths.
    """


#: Methods a front-end accepts, i.e. the service surface that is routable.
METHODS = (
    "query",
    "query_batch",
    "query_trace",
    "site_summary",
    "summary",
    "sites",
    "warm",
    "update",
    "commission",
    "staleness",
    "stats",
    "health",
    "resize",
    "drift",
    "scrub",
)

#: Methods also reachable as ``GET /<method>`` on the HTTP framing (no
#: body, optional query-string params): the read-only ones.
GET_METHODS: Tuple[str, ...] = (
    "health",
    "sites",
    "summary",
    "stats",
    "site_summary",
    "staleness",
    "drift",
)

#: Methods a client may transparently re-send after a transport failure.
#: update/commission are deliberately absent: re-sending one whose first
#: copy may still execute could append a duplicate epoch (or turn a
#: succeeded commission into an "already commissioned" error).
IDEMPOTENT_METHODS: FrozenSet[str] = frozenset(
    {
        "query",
        "query_batch",
        "query_trace",
        "site_summary",
        "summary",
        "sites",
        "warm",
        "staleness",
        "stats",
        "health",
        "drift",
    }
)

#: Largest request body (HTTP) / request line (NDJSON) the server will
#: buffer, bytes. Generous — a 16 MiB JSON body is ~200k frames — but
#: finite, so a misbehaving client cannot exhaust server memory.
DEFAULT_MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Status → exception type, the client-side inverse of :func:`error_status`.
ERROR_TYPES = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "LookupError": LookupError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
    "ServiceUnavailable": ServiceUnavailable,
    "ConnectionError": ServiceUnavailable,
}


def error_status(error: BaseException) -> int:
    """HTTP-style status code for one serving-contract exception."""
    if isinstance(error, (ValueError, TypeError)):
        return 400
    if isinstance(error, KeyError):
        return 404
    if isinstance(error, LookupError):
        return 409
    if isinstance(error, RuntimeError):
        return 503
    if isinstance(error, ConnectionError):
        # The router's "every replica is down" signal: unavailable, not a bug.
        return 503
    return 500


def error_body(error: BaseException) -> Dict[str, str]:
    """JSON body describing ``error`` (type name + message, no traceback)."""
    message = error.args[0] if error.args else str(error)
    return {"error": type(error).__name__, "message": str(message)}


def encode(body: Dict[str, Any]) -> bytes:
    """Canonical wire bytes for one JSON object (newline-terminated)."""
    return (json.dumps(body) + "\n").encode("utf-8")


def decode(data: bytes) -> Dict[str, Any]:
    """Parse one wire JSON object; raises ``ValueError`` on junk."""
    try:
        body = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"malformed JSON request: {err}") from None
    if not isinstance(body, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(body).__name__}"
        )
    return body


def dispatch(
    backend: Any,
    method: str,
    params: Optional[Dict[str, Any]],
    stream: bool = False,
) -> Tuple[int, Dict[str, Any]]:
    """Apply one wire request to ``backend``; returns ``(status, body)``.

    ``backend`` is anything with the :class:`LocalizationService` query
    surface — the in-process service itself or a
    :class:`~repro.serve.shard.ShardedService` router. Never raises for
    contract errors: they come back as ``(status, error_body)`` so every
    transport reports them the same way. With ``stream`` set (the
    request's stream mode), a ``query_trace`` body keeps its per-frame
    columns as arrays for :func:`iter_trace_stream` to pack; every other
    answer is the same either way.
    """
    params = params if params is not None else {}
    try:
        if method not in METHODS:
            raise KeyError(
                f"unknown method {method!r}; known: {', '.join(METHODS)}"
            )
        if not isinstance(params, dict):
            raise TypeError(
                f"params must be a JSON object, got {type(params).__name__}"
            )
        if stream and method == "query_trace":
            return 200, _trace_columns(backend, params)
        return 200, _HANDLERS[method](backend, params)
    except DropResponse:
        raise  # fault injection: the transport must sever the connection
    except Exception as error:  # noqa: BLE001 - the protocol boundary
        return error_status(error), error_body(error)


# ----------------------------------------------------------------------
# per-method handlers (wire params -> service call -> JSON body)
# ----------------------------------------------------------------------
def _require(params: Dict[str, Any], *names: str) -> list:
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"missing required param(s): {', '.join(missing)}")
    return [params[name] for name in names]


def _as_day(value: Any) -> float:
    try:
        day = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"day must be a number, got {value!r}") from None
    if not math.isfinite(day):
        # json parses NaN and Infinity; no epoch can serve such a day.
        raise ValueError(f"day must be finite, got {value!r}")
    return day


def _as_frames(value: Any) -> np.ndarray:
    try:
        frames = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("frames must be a numeric array") from None
    if frames.ndim != 2:
        raise ValueError(
            f"frames must be a (frames, links) array, got shape {frames.shape}"
        )
    return frames


def _as_rss(value: Any) -> np.ndarray:
    try:
        rss = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("rss must be a numeric vector") from None
    if rss.ndim != 1:
        raise ValueError(f"rss must be a vector, got shape {rss.shape}")
    return rss


def _batch_columns(
    site: str, day: float, result: Any, include_scores: bool
) -> Dict[str, Any]:
    """A batch answer's body with its per-frame columns still arrays."""
    body = {
        "site": site,
        "day": day,
        "frame_count": int(result.cells.shape[0]),
        "cells": result.cells,
        "positions": result.positions,
    }
    if include_scores:
        body["scores"] = result.scores
    if getattr(result, "stale", False):
        # Degraded-mode serving: answered from the last verified snapshot
        # because no live replica could. Absent on fresh answers.
        body["stale"] = True
    return body


def _listed(body: Dict[str, Any]) -> Dict[str, Any]:
    """``body`` with its per-frame columns turned into JSON lists."""
    for key in _STREAM_COLUMNS:
        if key in body:
            body[key] = body[key].tolist()
    return body


def _handle_query(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Localize one RSS frame.

    Errors: 400 (malformed params/RSS), 404 (unknown site), 409 (no
    epoch serving that day), 503 (not commissioned / no live replica).
    """
    site, rss, day = _require(params, "site", "rss", "day")
    day = _as_day(day)
    result = backend.query(str(site), _as_rss(rss), day)
    cell = int(result.cell)
    body = {
        "site": site,
        "day": day,
        "cell": cell,
        "position": [float(result.position.x), float(result.position.y)],
        "score": float(result.scores[cell]),
    }
    if getattr(result, "stale", False):
        body["stale"] = True
    return body


def _handle_query_batch(
    backend: Any, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Localize a batch of frames in one backend call.

    The matching kernel is batch-invariant, so every row equals the
    answer a lone ``query`` of that frame would give, bit for bit.

    Errors: 400 (malformed params/frames), 404 (unknown site), 409 (no
    epoch serving that day), 503 (not commissioned / no live replica).
    """
    site, frames, day = _require(params, "site", "frames", "day")
    day = _as_day(day)
    result = backend.query_batch(str(site), _as_frames(frames), day)
    body = _listed(
        _batch_columns(site, day, result, bool(params.get("include_scores")))
    )
    if params.get("best_scores") and result.scores is not None:
        # Per-frame matched score (``scores[i, cells[i]]``) without the
        # full N x cells matrix — what a transparently-batched single
        # query needs to reconstruct its ``score`` field bit-exactly.
        cells = np.asarray(result.cells)
        scores = np.asarray(result.scores)
        body["best"] = scores[np.arange(cells.shape[0]), cells].tolist()
    return body


def _trace_columns(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Localize a live trace in one backend call; columns stay arrays."""
    site, frames, day = _require(params, "site", "frames", "day")
    day = _as_day(day)
    trace = LiveTrace(day=day, rss=_as_frames(frames))
    result = backend.query_trace(str(site), trace)
    return _batch_columns(
        site, day, result, bool(params.get("include_scores"))
    )


def _handle_query_trace(
    backend: Any, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Localize a live trace in one backend call (streamable encoding).

    Errors: 400 (malformed params/frames), 404 (unknown site), 409 (no
    epoch serving that day), 503 (not commissioned / no live replica).
    """
    return _listed(_trace_columns(backend, params))


def _handle_site_summary(
    backend: Any, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-site serving metadata.

    Errors: 400 (missing site param), 404 (unknown site).
    """
    (site,) = _require(params, "site")
    return dict(backend.site_summary(str(site)))


def _handle_summary(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Summary rows for every registered site.

    Errors: none.
    """
    return {"sites": [dict(row) for row in backend.summary()]}


def _handle_sites(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Registered site names.

    Errors: none.
    """
    return {"sites": list(backend.sites())}


def _handle_warm(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize (and commission) the named sites, or all of them.

    Errors: 400 (sites not a list), 404 (unknown site).
    """
    sites = params.get("sites")
    if sites is not None and not isinstance(sites, (list, tuple)):
        raise ValueError("sites must be a list of site names")
    warmed = backend.warm(None if sites is None else [str(s) for s in sites])
    return {"warmed": list(warmed)}


def _handle_update(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one fingerprint update at ``day`` (never auto-retried).

    Errors: 400 (malformed params / bad cold policy), 404 (unknown
    site), 503 (cold site with cold="raise", or a replica down during
    fan-out).
    """
    site, day = _require(params, "site", "day")
    day = _as_day(day)
    cold = str(params.get("cold", "raise"))
    report = backend.update(str(site), day, cold=cold)
    if report is None:
        return {"site": site, "day": day, "action": "commissioned"}
    return {
        "site": site,
        "day": day,
        "action": "updated",
        "samples_taken": int(report.samples_taken),
        "seconds_spent": float(report.seconds_spent),
        "full_survey_seconds": float(report.full_survey_seconds),
        "savings_factor": float(report.savings_factor),
    }


def _handle_commission(
    backend: Any, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Survey and commission a site at ``day`` (never auto-retried).

    Errors: 400 (malformed params), 404 (unknown site), 503 (already
    commissioned, or a replica down during fan-out).
    """
    site, day = _require(params, "site", "day")
    day = _as_day(day)
    backend.commission(str(site), day)
    return {"site": site, "day": day, "action": "commissioned"}


def _handle_staleness(
    backend: Any, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Days since the serving epoch (null for a cold site).

    Errors: 400 (malformed params), 404 (unknown site).
    """
    site, day = _require(params, "site", "day")
    day = _as_day(day)
    staleness = backend.staleness(str(site), day)
    return {
        "site": site,
        "day": day,
        "staleness": None if staleness is None else float(staleness),
    }


def _handle_stats(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Service-level query/frame counters.

    Errors: none.
    """
    stats = backend.service_stats()
    return {
        "queries": int(stats.queries),
        "frames": int(stats.frames),
        "frames_by_site": dict(stats.frames_by_site),
    }


def _handle_health(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Liveness report (per-shard/per-replica when the backend is sharded).

    Errors: none.
    """
    health = getattr(backend, "health", None)
    if health is None:
        return {"status": "ok", "sites": len(backend.sites())}
    # The backend's richer report (per-shard liveness, per-site replica
    # availability for the sharded router) flows through unchanged.
    return dict(health())


def _handle_drift(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Measured drift of the serving fingerprints against a fresh probe.

    Errors: 400 (malformed params), 404 (unknown site), 503 (backend
    does not measure drift).
    """
    site, day = _require(params, "site", "day")
    day = _as_day(day)
    frames = params.get("frames", 32)
    try:
        frames = int(frames)
    except (TypeError, ValueError):
        raise ValueError(f"frames must be an integer, got {frames!r}") from None
    drift = getattr(backend, "drift", None)
    if drift is None:
        raise RuntimeError("this backend does not measure drift")
    reading = drift(str(site), day, frames)
    return {
        "site": site,
        "day": day,
        "drift": None if reading is None else dict(reading),
    }


def _handle_scrub(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """One synchronous anti-entropy scrub pass.

    Errors: 400 (sites not a list), 404 (unknown site), 503 (backend is
    not a sharded service).
    """
    sites = params.get("sites")
    if sites is not None and not isinstance(sites, (list, tuple)):
        raise ValueError("sites must be a list of site names")
    scrub = getattr(backend, "scrub", None)
    if scrub is None:
        raise RuntimeError(
            "this backend cannot scrub: it is not a sharded service"
        )
    return dict(scrub(None if sites is None else [str(s) for s in sites]))


def _handle_resize(backend: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    """Live-resize the worker fleet (never auto-retried).

    Errors: 400 (shards not a positive integer), 503 (backend is not a
    sharded service, or a replica down during the move).
    """
    (shards,) = _require(params, "shards")
    try:
        shards = int(shards)
    except (TypeError, ValueError):
        raise ValueError(f"shards must be an integer, got {shards!r}") from None
    resize = getattr(backend, "resize", None)
    if resize is None:
        raise RuntimeError(
            "this backend cannot resize: it is not a sharded service"
        )
    return dict(resize(shards))


# ----------------------------------------------------------------------
# query_trace streaming (chunked encoding of one already-computed result)
# ----------------------------------------------------------------------
#: Default frames per streamed chunk line. Chosen so one chunk line is a
#: few KiB — small enough that peak per-message buffering is flat in
#: trace length, large enough that framing overhead stays negligible.
STREAM_CHUNK_FRAMES = 64

#: Body keys that are per-frame columns (chunked, packed), with the
#: packed dtype and dimension count of each; everything else is scalar
#: metadata and rides in the stream header.
_STREAM_COLUMNS = {
    "cells": ("<i8", 1),
    "positions": ("<f8", 2),
    "scores": ("<f8", 2),
}

#: Dtypes a packed array may carry: little-endian float64 and int64.
_PACKED_DTYPES = ("<f8", "<i8")


def pack_array(array: Any, dtype: str) -> Dict[str, Any]:
    """``array`` as a packed wire object ``{"dtype", "shape", "data"}``.

    ``data`` is the base64 of the array's C-order bytes as ``dtype``
    (``"<f8"`` or ``"<i8"``), so every float64 keeps its bits and no
    number is printed as decimal text.
    """
    if dtype not in _PACKED_DTYPES:
        raise ValueError(
            f"cannot pack dtype {dtype!r}; use one of {_PACKED_DTYPES}"
        )
    data = np.ascontiguousarray(array, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(data.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


def unpack_array(value: Any, dtype: str, ndim: int) -> np.ndarray:
    """Strict inverse of :func:`pack_array`: a read-only ``ndim``-D array.

    Raises ``ValueError`` unless ``value`` is exactly a packed object of
    ``dtype`` whose shape has ``ndim`` non-negative entries and whose
    data is valid base64 of exactly that many elements. The shape is
    only checked against the decoded bytes, never allocated from.
    """
    if not isinstance(value, dict) or value.keys() != {"data", "dtype", "shape"}:
        raise ValueError(
            "a packed array must be an object with exactly dtype, shape "
            "and data"
        )
    if value["dtype"] != dtype:
        raise ValueError(
            f"packed array dtype must be {dtype!r}, got {value['dtype']!r}"
        )
    shape = value["shape"]
    if not (
        isinstance(shape, list)
        and len(shape) == ndim
        and all(type(size) is int and size >= 0 for size in shape)
    ):
        raise ValueError(
            f"packed array shape must be {ndim} non-negative integers, "
            f"got {shape!r}"
        )
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError("packed array data is not valid base64") from None
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ValueError(
            f"packed array of shape {shape} needs {expected} bytes, "
            f"got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def iter_trace_stream(
    body: Dict[str, Any], chunk: int = STREAM_CHUNK_FRAMES
) -> Iterator[Dict[str, Any]]:
    """Yield the stream messages encoding one ``query_trace`` body.

    ``body`` carries its per-frame columns as arrays (``dispatch`` with
    ``stream`` set). The first message is the header (scalar metadata +
    ``"stream": true`` + ``frame_count``), then ``seq``-numbered chunk
    messages carrying at most ``chunk`` frames of each per-frame column
    as a packed array, then ``{"end": true}``. The *compute* is already
    done: this only slices and packs the result arrays.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    header = {
        key: value
        for key, value in body.items()
        if key not in _STREAM_COLUMNS
    }
    header["stream"] = True
    yield header
    columns = [
        (key, dtype, body[key])
        for key, (dtype, _) in _STREAM_COLUMNS.items()
        if key in body
    ]
    frame_count = len(body.get("cells", ()))
    for seq, start in enumerate(range(0, frame_count, chunk)):
        part: Dict[str, Any] = {"seq": seq}
        for key, dtype, column in columns:
            part[key] = pack_array(column[start : start + chunk], dtype)
        yield part
    yield {"end": True}


def merge_trace_stream(
    header: Dict[str, Any], parts: Iterable[Dict[str, Any]]
) -> Dict[str, Any]:
    """Client-side inverse of :func:`iter_trace_stream`.

    Reassembles the full response body from the header and the chunk
    messages (transport framing keys — ``id``/``status``/``stream``/
    ``seq``/``end`` — are dropped). Per-frame columns come back as
    ndarrays, value-identical (bit for bit) to the lists a non-streaming
    ``query_trace`` body would have carried: ``.tolist()`` equals them.
    """
    body = {
        key: value
        for key, value in header.items()
        if key not in ("id", "status", "stream")
    }
    columns: Dict[str, list] = {}
    expected_seq = 0
    for part in parts:
        if part.get("end"):
            break
        seq = part.get("seq")
        if seq != expected_seq:
            raise ValueError(
                f"stream chunk out of order: expected seq {expected_seq}, "
                f"got {seq!r}"
            )
        expected_seq += 1
        for key, (dtype, ndim) in _STREAM_COLUMNS.items():
            if key in part:
                columns.setdefault(key, []).append(
                    unpack_array(part[key], dtype, ndim)
                )
    body.update(
        (key, np.concatenate(arrays)) for key, arrays in columns.items()
    )
    return body


_HANDLERS = {
    "query": _handle_query,
    "query_batch": _handle_query_batch,
    "query_trace": _handle_query_trace,
    "site_summary": _handle_site_summary,
    "summary": _handle_summary,
    "sites": _handle_sites,
    "warm": _handle_warm,
    "update": _handle_update,
    "commission": _handle_commission,
    "staleness": _handle_staleness,
    "stats": _handle_stats,
    "health": _handle_health,
    "resize": _handle_resize,
    "drift": _handle_drift,
    "scrub": _handle_scrub,
}
