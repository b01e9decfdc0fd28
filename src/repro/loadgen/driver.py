"""Load-plan drivers: execute a schedule, record honest latency.

Three drivers over one result type:

* :func:`run_open_loop` — threaded workers execute the plan's arrival
  schedule against a sync target (in-process service, or a
  ``ServiceClient`` per worker over http/unix/tcp). Each query's latency
  is measured from its *planned* send time, not from when a worker got
  around to sending it — so when the server saturates, the backlog shows
  up as tail latency instead of the driver quietly slowing down
  (coordinated omission). Workers are named, non-daemon, and joined.
* :func:`run_open_loop_aio` — the same open-loop semantics on the
  asyncio front-end: ``connections`` persistent pipelined connections,
  each with a bounded in-flight window, all paced by the plan's clock.
* :func:`run_closed_loop` — N client threads each walk their own
  request sequence with think-time sleeps; latency is per-response
  (classic closed-loop semantics — throughput self-limits, which is
  exactly why the open loop exists alongside it).

Every driver counts **failed** (transport/contract errors — clients run
with ``retries=0`` so nothing is silently resent) and **mismatched**
(answers that differ from the caller-supplied expected cells/positions,
bit-for-bit) — a load test that does not check answers is a heater, not
a benchmark.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.loadgen.plan import LoadPlan
from repro.util.stats import LatencyHistogram, merge_histograms

__all__ = [
    "DriverResult",
    "expected_answers",
    "run_closed_loop",
    "run_open_loop",
    "run_open_loop_aio",
]

#: One expected answer: (cell, (x, y)) — positions are exact float64
#: round-trips over every transport, so equality is bitwise.
Answer = Tuple[int, Tuple[float, float]]


@dataclass
class DriverResult:
    """Outcome of one driven load plan."""

    arrival: str
    transport: str
    offered_qps: float
    requests: int
    completed: int
    failed: int
    mismatched: int
    wall_s: float
    histogram: LatencyHistogram = field(repr=False)

    @property
    def achieved_qps(self) -> float:
        if self.wall_s <= 0:
            return float("inf")
        return self.completed / self.wall_s

    def summary(self) -> Dict[str, object]:
        """Plain-data row (the shared bench schema plus loadgen fields)."""
        return {
            "arrival": self.arrival,
            "transport": self.transport,
            "offered_qps": float(self.offered_qps),
            "achieved_qps": float(self.achieved_qps),
            "requests": int(self.requests),
            "completed": int(self.completed),
            "failed_queries": int(self.failed),
            "mismatched_queries": int(self.mismatched),
            "wall_s": float(self.wall_s),
            "latency": self.histogram.summary(),
        }


def _answer_of(result: object) -> Answer:
    """Normalize an in-process or wire answer to (cell, (x, y))."""
    position = result.position  # type: ignore[attr-defined]
    if hasattr(position, "x"):
        return (
            int(result.cell),  # type: ignore[attr-defined]
            (float(position.x), float(position.y)),
        )
    return (
        int(result.cell),  # type: ignore[attr-defined]
        (float(position[0]), float(position[1])),
    )


def expected_answers(
    service: object,
    workloads: Mapping[str, np.ndarray],
    day: float = 0.0,
) -> Dict[str, List[Answer]]:
    """Reference answers per (site, frame) from an in-process service.

    Positions survive JSON exactly (float64 round-trip), so the drivers
    compare wire answers against these bit-for-bit.
    """
    expected: Dict[str, List[Answer]] = {}
    for site, frames in workloads.items():
        expected[site] = [
            _answer_of(service.query(site, frame, day))  # type: ignore[attr-defined]
            for frame in frames
        ]
    return expected


def _frame_for(workloads: Mapping[str, np.ndarray], site: str, index: int):
    frames = workloads[site]
    return frames[index % len(frames)], index % len(frames)


def run_open_loop(
    plan: LoadPlan,
    connect: Callable[[], object],
    workloads: Mapping[str, np.ndarray],
    *,
    expected: Optional[Mapping[str, Sequence[Answer]]] = None,
    day: float = 0.0,
    workers: Optional[int] = None,
    transport: str = "custom",
) -> DriverResult:
    """Drive an open-loop plan with a pool of worker threads.

    ``connect()`` is called once per worker and must return an object
    with ``query(site, rss, day)`` (a ``ServiceClient`` factory, or a
    lambda returning the in-process service itself); a ``close()``
    method, if present, is called on the way out. Workers claim request
    indices from a shared cursor, sleep until each request's planned
    send time, fire, and record ``completion − planned_send`` — the
    latency an arrival-time observer would see, queue delay included.
    """
    if plan.arrival != "open":
        raise ValueError(f"run_open_loop needs an open plan, got {plan.arrival!r}")
    pool_size = int(workers) if workers is not None else plan.clients
    if pool_size < 1:
        raise ValueError(f"workers must be >= 1, got {pool_size}")
    total = plan.requests
    cursor_lock = threading.Lock()
    cursor = [0]
    histograms = [LatencyHistogram() for _ in range(pool_size)]
    failed = [0] * pool_size
    mismatched = [0] * pool_size
    completed = [0] * pool_size
    errors: List[BaseException] = []
    start_barrier = threading.Barrier(pool_size + 1)
    offsets = plan.send_offset_s
    site_index = plan.site_index
    start_time = [0.0]

    def worker(slot: int) -> None:
        # A worker that cannot even connect aborts the barrier so the
        # main thread (and its peers) never deadlock waiting for it.
        try:
            client = connect()
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            errors.append(error)
            start_barrier.abort()
            return
        try:
            start_barrier.wait()
            base = start_time[0]
            while True:
                with cursor_lock:
                    index = cursor[0]
                    if index >= total:
                        return
                    cursor[0] = index + 1
                site = plan.sites[int(site_index[index])]
                frame, frame_idx = _frame_for(workloads, site, index)
                scheduled = base + float(offsets[index])
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    result = client.query(site, frame, day)  # type: ignore[attr-defined]
                except Exception:
                    failed[slot] += 1
                    continue
                histograms[slot].record(time.perf_counter() - scheduled)
                completed[slot] += 1
                if expected is not None:
                    if _answer_of(result) != tuple(expected[site][frame_idx]):
                        mismatched[slot] += 1
        except threading.BrokenBarrierError:
            return
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            errors.append(error)
        finally:
            close = getattr(client, "close", None)
            if callable(close):
                close()

    threads = []
    for slot in range(pool_size):
        thread = threading.Thread(
            target=worker, args=(slot,), name=f"loadgen-worker-{slot}"
        )
        threads.append(thread)
        thread.start()
    start_time[0] = time.perf_counter()
    try:
        start_barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start_time[0]
    if errors:
        raise errors[0]
    histogram = merge_histograms(histograms)
    assert histogram is not None
    return DriverResult(
        arrival="open",
        transport=transport,
        offered_qps=plan.rate_qps,
        requests=total,
        completed=sum(completed),
        failed=sum(failed),
        mismatched=sum(mismatched),
        wall_s=wall_s,
        histogram=histogram,
    )


def run_open_loop_aio(
    plan: LoadPlan,
    address: str,
    workloads: Mapping[str, np.ndarray],
    *,
    expected: Optional[Mapping[str, Sequence[Answer]]] = None,
    day: float = 0.0,
    connections: int = 1,
    depth: int = 16,
) -> DriverResult:
    """Open-loop driver for the asyncio front-end (``tcp://`` NDJSON).

    ``connections`` persistent pipelined clients each keep up to
    ``depth`` requests in flight; arrivals still follow the plan's
    clock, and latency is still completion minus planned send time. The
    in-flight window bounds memory, not the schedule — when the server
    falls behind, arrivals queue and the backlog lands in the tail,
    exactly as in the threaded driver.
    """
    from repro.serve.aio import AsyncServiceClient

    if plan.arrival != "open":
        raise ValueError(f"run_open_loop_aio needs an open plan, got {plan.arrival!r}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    total = plan.requests
    rows: Dict[str, List[List[float]]] = {
        site: [row.tolist() for row in np.asarray(frames, dtype=float)]
        for site, frames in workloads.items()
    }
    histogram = LatencyHistogram()
    counters = {"completed": 0, "failed": 0, "mismatched": 0}

    async def drive() -> float:
        cursor = [0]  # single-threaded loop: plain int is race-free

        async def one_connection() -> None:
            async with AsyncServiceClient(address) as client:
                window = asyncio.Semaphore(depth)
                pending: List[asyncio.Task] = []

                async def one_request(index: int, scheduled: float) -> None:
                    site = plan.sites[int(plan.site_index[index])]
                    site_rows = rows[site]
                    frame_idx = index % len(site_rows)
                    async with window:
                        now = asyncio.get_running_loop().time()
                        if scheduled > now:
                            await asyncio.sleep(scheduled - now)
                        try:
                            result = await client.query(
                                site, site_rows[frame_idx], day
                            )
                        except Exception:
                            counters["failed"] += 1
                            return
                        done = asyncio.get_running_loop().time()
                        histogram.record(done - scheduled)
                        counters["completed"] += 1
                        if expected is not None:
                            answer = (
                                int(result.cell),
                                (
                                    float(result.position[0]),
                                    float(result.position[1]),
                                ),
                            )
                            if answer != tuple(expected[site][frame_idx]):
                                counters["mismatched"] += 1

                base = asyncio.get_running_loop().time()
                while True:
                    index = cursor[0]
                    if index >= total:
                        break
                    cursor[0] = index + 1
                    scheduled = base + float(plan.send_offset_s[index])
                    pending.append(
                        asyncio.ensure_future(one_request(index, scheduled))
                    )
                    # Yield so peer connections interleave claims.
                    await asyncio.sleep(0)
                if pending:
                    await asyncio.gather(*pending)

        start = asyncio.get_running_loop().time()
        await asyncio.gather(*(one_connection() for _ in range(connections)))
        return asyncio.get_running_loop().time() - start

    wall_s = asyncio.run(drive())
    return DriverResult(
        arrival="open",
        transport="aio",
        offered_qps=plan.rate_qps,
        requests=total,
        completed=counters["completed"],
        failed=counters["failed"],
        mismatched=counters["mismatched"],
        wall_s=wall_s,
        histogram=histogram,
    )


def run_closed_loop(
    plan: LoadPlan,
    connect: Callable[[], object],
    workloads: Mapping[str, np.ndarray],
    *,
    expected: Optional[Mapping[str, Sequence[Answer]]] = None,
    day: float = 0.0,
    transport: str = "custom",
) -> DriverResult:
    """Drive a closed-loop plan: one thread per client, think-time pacing.

    Latency here is pure response time (request out → answer in); the
    achieved throughput self-limits to
    ``clients / (response_time + think_time)`` — report it alongside an
    open-loop run, never instead of one.
    """
    if plan.arrival != "closed":
        raise ValueError(
            f"run_closed_loop needs a closed plan, got {plan.arrival!r}"
        )
    clients = plan.clients
    per_client = plan.requests // clients
    histograms = [LatencyHistogram() for _ in range(clients)]
    failed = [0] * clients
    mismatched = [0] * clients
    completed = [0] * clients
    errors: List[BaseException] = []
    start_barrier = threading.Barrier(clients + 1)

    def worker(slot: int) -> None:
        try:
            client = connect()
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            errors.append(error)
            start_barrier.abort()
            return
        try:
            start_barrier.wait()
            base = slot * per_client
            for step in range(per_client):
                index = base + step
                site = plan.sites[int(plan.site_index[index])]
                frame, frame_idx = _frame_for(workloads, site, index)
                begin = time.perf_counter()
                try:
                    result = client.query(site, frame, day)  # type: ignore[attr-defined]
                except Exception:
                    failed[slot] += 1
                    continue
                histograms[slot].record(time.perf_counter() - begin)
                completed[slot] += 1
                if expected is not None:
                    if _answer_of(result) != tuple(expected[site][frame_idx]):
                        mismatched[slot] += 1
                think = float(plan.think_delay_s[index])
                if think > 0:
                    time.sleep(think)
        except threading.BrokenBarrierError:
            return
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            errors.append(error)
        finally:
            close = getattr(client, "close", None)
            if callable(close):
                close()

    threads = []
    for slot in range(clients):
        thread = threading.Thread(
            target=worker, args=(slot,), name=f"loadgen-worker-{slot}"
        )
        threads.append(thread)
        thread.start()
    start = time.perf_counter()
    try:
        start_barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    if errors:
        raise errors[0]
    histogram = merge_histograms(histograms)
    assert histogram is not None
    return DriverResult(
        arrival="closed",
        transport=transport,
        offered_qps=0.0,
        requests=per_client * clients,
        completed=sum(completed),
        failed=sum(failed),
        mismatched=sum(mismatched),
        wall_s=wall_s,
        histogram=histogram,
    )
