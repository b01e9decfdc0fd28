"""The ``frontend_async`` gate section: the asyncio pipelined front-end."""

from __future__ import annotations

import asyncio
from typing import Dict, List, Tuple

import numpy as np

from repro.eval.bench.common import bench_spec, identical, site_workloads
from repro.eval.bench.registry import BenchSection, register
from repro.serve import AioFrontend, AsyncServiceClient, LocalizationService
from repro.sim.collector import CollectionProtocol, LiveTrace

__all__ = ["bench_frontend_async"]

SITES = ("square-3m", "square-4m")
FRAMES = 24
DEPTH = 16
TRACE_MULTIPLIERS = (1, 8)
STREAM_CHUNK = 32
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=10)


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
) -> Tuple[object, int]:
    """Stream one trace; returns (result, peak message bytes)."""
    async with AsyncServiceClient(address) as client:
        client.reset_peak()
        result = await client.query_trace(
            site, frames, 0.0, chunk=chunk, include_scores=include_scores
        )
        return result, client.peak_message_bytes


def bench_frontend_async(seed: int) -> Dict[str, object]:
    """Pipelined and streamed answers of the wire server vs in-process.

    Per site, the workload's single queries, pipelined ``DEPTH`` deep
    (out-of-order completion, matched by request id), must equal
    sequential in-process singles. ``trace_streaming`` pushes a short
    and an N×-longer ``query_trace`` through the chunked NDJSON path,
    gating bit-identity with the in-process answer and that the
    client's peak per-message bytes stay flat in trace length
    (``buffering_flat``).
    """
    specs = {name: bench_spec(name) for name in SITES}
    service = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed
    )
    service.warm()
    workloads = site_workloads(
        specs, PROTOCOL, FRAMES, seed, offset=300, label="frontend-workload"
    )

    per_site: Dict[str, object] = {}
    with AioFrontend(service) as frontend:
        address = frontend.address
        for site, rss in workloads.items():
            wire = asyncio.run(
                _aio_pipeline_probe(address, site, rss, 0.0, DEPTH)
            )
            singles = [service.query(site, frame, 0.0) for frame in rss]
            per_site[site] = {
                "bit_identical": all(
                    one.cell == int(ref.cell)
                    and one.position
                    == (float(ref.position.x), float(ref.position.y))
                    and one.score == float(ref.scores[ref.cell])
                    for one, ref in zip(wire, singles)
                )
            }

        # The trace is localized in ONE backend call (chunking only the
        # JSON encoding), so the answer must match in-process exactly.
        site, rss = next(iter(workloads.items()))
        lengths: Dict[str, object] = {}
        peaks: List[int] = []
        for multiplier in TRACE_MULTIPLIERS:
            trace = np.concatenate([rss] * multiplier, axis=0)
            reference = service.query_trace(
                site, LiveTrace(day=0.0, rss=trace)
            )
            streamed, peak = asyncio.run(
                _aio_trace_probe(address, site, trace, STREAM_CHUNK)
            )
            peaks.append(int(peak))
            lengths[str(trace.shape[0])] = {
                "peak_message_bytes": int(peak),
                "bit_identical": identical(streamed, reference),
            }
        # One stream also asks for scores: the packed ``scores`` column
        # must carry the in-process bits too.
        scored, _ = asyncio.run(
            _aio_trace_probe(
                address, site, rss, STREAM_CHUNK, include_scores=True
            )
        )
        reference = service.query_trace(site, LiveTrace(day=0.0, rss=rss))
        trace_streaming = {
            "site": site,
            "lengths": lengths,
            "scores_bit_identical": bool(
                scored.scores is not None and identical(scored, reference)
            ),
            # Flat buffering: peak per-message bytes is set by the chunk
            # size, not the trace length.
            "buffering_flat": bool(max(peaks) <= 2 * min(peaks)),
        }
    return {"per_site": per_site, "trace_streaming": trace_streaming}


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
        run=bench_frontend_async,
        smoke_gates=_smoke_gates,
    )
)
