"""The ``frontend_async`` bench section: the asyncio pipelined front-end."""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    best_of,
    identical,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import (
    AioFrontend,
    AsyncServiceClient,
    LocalizationService,
    ServiceClient,
)
from repro.sim.collector import CollectionProtocol, LiveTrace
from repro.util.stats import latency_summary, timed_singles

__all__ = ["bench_frontend_async"]


async def _aio_closed_loop(
    address: str,
    site: str,
    frames: np.ndarray,
    requests: int,
    connections: int,
    depth: int,
) -> Tuple[List[float], float]:
    """Closed-loop load driver for the asyncio front-end.

    ``connections`` persistent connections each keep up to ``depth``
    single queries in flight and issue ``requests`` requests; returns
    (per-request latencies in seconds, wall seconds). Latency is
    measured send-to-response per request — queueing behind the depth
    window is excluded, pipelined server time is not.
    """
    rows = [row.tolist() for row in np.asarray(frames, dtype=float)]
    latencies: List[float] = []

    async def one_connection(offset: int) -> None:
        async with AsyncServiceClient(address) as client:
            window = asyncio.Semaphore(depth)

            async def one_request(index: int) -> None:
                frame = rows[(offset + index) % len(rows)]
                async with window:
                    start = time.perf_counter()
                    await client.query(site, frame, 0.0)
                    latencies.append(time.perf_counter() - start)

            await asyncio.gather(*(one_request(i) for i in range(requests)))

    start = time.perf_counter()
    await asyncio.gather(
        *(one_connection(k * 37) for k in range(max(1, connections)))
    )
    return latencies, time.perf_counter() - start


async def _aio_pipeline_probe(
    address: str, site: str, frames: np.ndarray, day: float, depth: int
) -> List[object]:
    async with AsyncServiceClient(address) as client:
        return await client.pipeline_queries(site, frames, day, depth=depth)


async def _aio_trace_probe(
    address: str,
    site: str,
    frames: np.ndarray,
    chunk: int,
    include_scores: bool = False,
) -> Tuple[object, int, float]:
    """Stream one trace; returns (result, peak message bytes, seconds)."""
    async with AsyncServiceClient(address) as client:
        client.reset_peak()
        start = time.perf_counter()
        result = await client.query_trace(
            site, frames, 0.0, chunk=chunk, include_scores=include_scores
        )
        return result, client.peak_message_bytes, time.perf_counter() - start


def bench_frontend_async(
    *,
    sites: Sequence[str] = ("paper", "square-6m"),
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
    connections: Sequence[int] = (1, 2, 4),
    depth: int = 16,
    singles: int = 200,
    trace_multipliers: Sequence[int] = (1, 8),
    stream_chunk: int = 32,
) -> Dict[str, object]:
    """Benchmark the wire server (:class:`~repro.serve.aio.AioFrontend`).

    The closed-loop multi-connection driver: for each count ``c`` in
    ``connections``, ``c`` persistent :class:`AsyncServiceClient`
    connections each keep ``depth`` single queries in flight against one
    event-loop server, and every request's send-to-response latency is
    recorded — so each row reports p50/p95/p99/max alongside the
    sustained queries/sec (total requests over wall clock), not just a
    mean round trip. Baselines measured on the same host and workloads:
    in-process singles, and the sync :class:`ServiceClient` one request
    at a time over the same server's ``http://`` framing
    (``speedup_vs_http_x``) and over ``tcp://`` NDJSON (what pipelining
    alone buys over the shared NDJSON protocol).
    ``trace_streaming`` pushes a short and an N×-longer ``query_trace``
    through the chunked NDJSON path, gating bit-identity with the
    in-process answer and that the client's peak per-message bytes stay
    flat in trace length (``buffering_flat``).
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )
    specs = {name: bench_spec(name) for name in sites}
    service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    service.warm()
    workloads = site_workloads(
        specs, protocol, frames, seed, offset=300, label="frontend-workload"
    )
    heads = {
        site: rss[: min(frames, singles)] for site, rss in workloads.items()
    }

    record: Dict[str, object] = {
        "sites": list(sites),
        "frames": int(frames),
        "singles": int(singles),
        "depth": int(depth),
        "connections": [int(count) for count in connections],
        "per_site": {},
    }

    # In-process baseline on identical workloads.
    for site, head in heads.items():
        single_s = best_of(
            lambda: [service.query(site, frame, 0.0) for frame in head],
            repeat,
        )
        record["per_site"][site] = {
            "inproc_single_qps": (
                len(head) / single_s if single_s > 0 else float("inf")
            ),
        }

    max_sustained = 0.0
    with AioFrontend(service) as frontend:
        address = frontend.address
        # Sync one-at-a-time over the server's HTTP framing (the figure
        # the pipelined speedup is measured against) and over NDJSON on
        # the same port: separates protocol cost from what pipelining
        # buys on top.
        for prefix, url in (
            ("http", frontend.http_address),
            ("aio_sync", address),
        ):
            with ServiceClient(url) as client:
                for site, head in heads.items():
                    client.query(site, head[0], 0.0)  # warm up the connection
                    single_s = best_of(
                        lambda: [
                            client.query(site, frame, 0.0) for frame in head
                        ],
                        repeat,
                    )
                    row = record["per_site"][site]
                    row[f"{prefix}_single_qps"] = (
                        len(head) / single_s if single_s > 0 else float("inf")
                    )
                    if prefix == "http":
                        row["http_latency"] = latency_summary(
                            timed_singles(
                                lambda frame: client.query(site, frame, 0.0),
                                head,
                            )
                        )

        for site, head in heads.items():
            row = record["per_site"][site]
            # Identity gate: pipelined answers (out-of-order completion,
            # matched by request id) equal sequential in-process singles.
            wire = asyncio.run(
                _aio_pipeline_probe(address, site, head, 0.0, depth)
            )
            singles_ref = [service.query(site, frame, 0.0) for frame in head]
            row["bit_identical"] = bool(
                all(
                    one.cell == int(ref.cell)
                    and one.position
                    == (float(ref.position.x), float(ref.position.y))
                    and one.score == float(ref.scores[ref.cell])
                    for one, ref in zip(wire, singles_ref)
                )
            )
            row["pipelined"] = {}
            for count in connections:
                best_qps, best_latencies = 0.0, [0.0]
                for _ in range(max(1, repeat)):
                    latencies, wall = asyncio.run(
                        _aio_closed_loop(
                            address, site, head, len(head), count, depth
                        )
                    )
                    qps = len(latencies) / wall if wall > 0 else float("inf")
                    if qps > best_qps:
                        best_qps, best_latencies = qps, latencies
                row["pipelined"][str(count)] = {
                    "connections": int(count),
                    "depth": int(depth),
                    "sustained_qps": best_qps,
                    "latency": latency_summary(best_latencies),
                }
                max_sustained = max(max_sustained, best_qps)
            best = max(
                pipe["sustained_qps"] for pipe in row["pipelined"].values()
            )
            row["aio_best_qps"] = best
            row["speedup_vs_http_x"] = (
                best / row["http_single_qps"]
                if row["http_single_qps"] > 0
                else float("inf")
            )
            top = row["pipelined"][str(max(connections))]
            row["wire_vs_inproc_x"] = (
                row["inproc_single_qps"] / top["sustained_qps"]
                if top["sustained_qps"] > 0
                else float("inf")
            )

        # Streamed query_trace: bit-identity + flat peak buffering. The
        # trace is localized in ONE backend call (chunking only the JSON
        # encoding), so the answer must match in-process exactly.
        site, rss = next(iter(workloads.items()))
        lengths: Dict[str, object] = {}
        peaks: List[int] = []
        for multiplier in trace_multipliers:
            trace = np.concatenate([rss] * max(1, multiplier), axis=0)
            reference = service.query_trace(
                site, LiveTrace(day=0.0, rss=trace)
            )
            streamed, peak, elapsed = asyncio.run(
                _aio_trace_probe(address, site, trace, stream_chunk)
            )
            peaks.append(int(peak))
            lengths[str(trace.shape[0])] = {
                "frames": int(trace.shape[0]),
                "peak_message_bytes": int(peak),
                "bit_identical": identical(streamed, reference),
                "stream_s": elapsed,
                "frames_per_s": (
                    trace.shape[0] / elapsed if elapsed > 0 else float("inf")
                ),
            }
        # One stream also asks for scores: the packed ``scores`` column
        # must carry the in-process bits too.
        scored, _, _ = asyncio.run(
            _aio_trace_probe(
                address, site, rss, stream_chunk, include_scores=True
            )
        )
        reference = service.query_trace(site, LiveTrace(day=0.0, rss=rss))
        record["trace_streaming"] = {
            "site": site,
            "chunk": int(stream_chunk),
            "lengths": lengths,
            "scores_bit_identical": bool(
                scored.scores is not None and identical(scored, reference)
            ),
            # Flat buffering: peak per-message bytes is set by the chunk
            # size, not the trace length.
            "buffering_flat": bool(max(peaks) <= 2 * min(peaks)),
        }

    record["max_sustained_qps"] = max_sustained
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.frontend_async_sites is None:
        return None
    return bench_frontend_async(
        sites=config.frontend_async_sites,
        frames=config.frames,
        samples_per_cell=config.samples_per_cell,
        repeat=config.repeat,
        seed=config.seed,
        connections=config.frontend_async_connections,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"asyncio front-end ({len(record['sites'])} site(s), "
        f"pipeline depth {record['depth']}, closed-loop "
        f"{record['singles']} singles/connection):"
    )
    for site, row in record["per_site"].items():
        status = "bit-identical" if row.get("bit_identical") else "MISMATCH"
        lines.append(
            f"  {site:<12} in-proc {row['inproc_single_qps']:,.0f} q/s | "
            f"http {row['http_single_qps']:,.0f} q/s | "
            f"aio sync {row['aio_sync_single_qps']:,.0f} q/s | "
            f"aio best {row['aio_best_qps']:,.0f} q/s "
            f"({row['speedup_vs_http_x']:.1f}x vs http, "
            f"{row['wire_vs_inproc_x']:.1f}x off in-proc, {status})"
        )
        for count, pipe in row["pipelined"].items():
            latency = pipe["latency"]
            lines.append(
                f"    conns={count}: {pipe['sustained_qps']:,.0f} q/s | "
                f"p50/p95/p99 {latency.get('p50_ms', float('nan')):.2f}/"
                f"{latency.get('p95_ms', float('nan')):.2f}/"
                f"{latency.get('p99_ms', float('nan')):.2f} ms"
            )
    streaming = record.get("trace_streaming")
    if streaming:
        parts = " | ".join(
            f"{row['frames']} frames: peak {row['peak_message_bytes']} B, "
            f"{'ok' if row['bit_identical'] else 'MISMATCH'}"
            for row in streaming["lengths"].values()
        )
        flat = "FLAT" if streaming["buffering_flat"] else "GROWING"
        scores = "ok" if streaming["scores_bit_identical"] else "MISMATCH"
        lines.append(
            f"  streamed trace ({streaming['site']}, chunk "
            f"{streaming['chunk']}): {parts} | scores {scores} -> "
            f"buffering {flat}"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    aio_ok = all(
        row["bit_identical"] for row in record["per_site"].values()
    )
    streaming = record["trace_streaming"]
    stream_ok = streaming["scores_bit_identical"] and all(
        row["bit_identical"] for row in streaming["lengths"].values()
    )
    if not (aio_ok and stream_ok):
        failures.append(
            "asyncio front-end answers differ from in-process service"
        )
    if not streaming["buffering_flat"]:
        failures.append(
            "streamed query_trace peak buffering grows with trace length"
        )
    return failures


register(
    BenchSection(
        name="frontend_async",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="frontend_async",
    )
)
