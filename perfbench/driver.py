"""The benchmark's open-loop driver: one asyncio loop, planned sends.

Latency is timed from each request's *planned* send time, so a stall
shows up as latency on every request it delays (no coordinated
omission). Send tasks are created when their planned time comes due,
never all up front; how late each one actually started is recorded as
the generator's send lag, which says whether the run is valid, not how
fast the program is.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from procs import host_cpu_ticks, steal_share

#: A phase whose generator lagged more than these is invalid. A
#: generator that cannot keep its schedule falls further behind with
#: every request, which lifts the median lag; on a shared 2-vCPU VM the
#: median stayed under 0.7 ms while wake-up jitter and host steal alone
#: put single sends, and so the p99, 25 ms late.
SEND_LAG_P50_BOUND_MS = 2.0
SEND_LAG_P99_BOUND_MS = 100.0


def percentile_ms(values_s, q: float) -> float:
    values = np.asarray(values_s, dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q) * 1e3)


@dataclass
class Phase:
    """Accounting of one phase: answered, failed, mismatched, latency."""

    name: str
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    latencies_s: List[float] = field(default_factory=list)
    send_lags_s: List[float] = field(default_factory=list)
    loc_errors_m: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    holds: int = 0
    steal: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def tail_ms(self, q: float) -> float:
        """Latency percentile with failed requests counted as infinite."""
        lat = np.asarray(self.latencies_s, dtype=float)
        lat = np.concatenate([lat, np.full(self.failed, np.inf)])
        return percentile_ms(lat, q)

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatched": self.mismatched,
            "samples": self.completed,
        }
        if self.latencies_s:
            out.update(
                {f"p{q}_ms": round(self.tail_ms(q), 4) for q in (50, 90, 95, 99)}
            )
        if self.send_lags_s:
            out["send_lag_p50_ms"] = round(percentile_ms(self.send_lags_s, 50), 4)
            out["send_lag_p99_ms"] = round(percentile_ms(self.send_lags_s, 99), 4)
        if self.wall_s > 0:
            out["achieved_qps"] = round(self.completed / self.wall_s, 2)
        if self.holds:
            out["holds"] = self.holds
        out["host_steal"] = round(self.steal, 4)
        return out


#: resolve(i) -> (site, day, frame) for planned request i.
Resolve = Callable[[int], Tuple[str, float, np.ndarray]]
#: record(i, answer) keeps an answer; answers are checked after the phase.
Record = Callable[[int, object], None]


async def open_loop(
    client,
    offsets: np.ndarray,
    resolve: Resolve,
    record: Record,
    phase: Phase,
    *,
    gate: Optional[Callable[[int], Optional[Awaitable]]] = None,
    start: Optional[float] = None,
) -> Phase:
    """Send planned single queries at ``start + offsets[i]``.

    ``gate(i)`` may return an awaitable that must finish before request
    ``i`` is sent (the aging phase uses it so a query never asks about
    an epoch that is still being written); its wait counts as latency.

    The generator's garbage collector is off while the phase runs: its
    pauses grew with the recorded answers and showed up as latency.
    """
    gc.collect()
    gc.disable()
    ticks = host_cpu_ticks()
    try:
        return await _open_loop(client, offsets, resolve, record, phase, gate, start)
    finally:
        phase.steal = steal_share(ticks, host_cpu_ticks())
        gc.enable()


async def _open_loop(client, offsets, resolve, record, phase, gate, start) -> Phase:
    loop = asyncio.get_running_loop()
    base = time.perf_counter() + 0.005 if start is None else start
    tasks = []
    last_done = [base]

    async def one(index: int, planned: float) -> None:
        phase.send_lags_s.append(time.perf_counter() - planned)
        if gate is not None:
            pending = gate(index)
            if pending is not None:
                phase.holds += 1
                await pending
        site, day, frame = resolve(index)
        try:
            result = await client.query(site, frame, day)
        except Exception:  # noqa: BLE001 - every failure is counted
            phase.failed += 1
            return
        done = time.perf_counter()
        phase.latencies_s.append(done - planned)
        last_done[0] = max(last_done[0], done)
        record(index, result)

    count = int(offsets.size)
    phase.attempted += count
    index = 0
    while index < count:
        now = time.perf_counter()
        while index < count and base + offsets[index] <= now:
            tasks.append(loop.create_task(one(index, base + float(offsets[index]))))
            index += 1
        if index < count:
            # epoll rounds timeouts up to whole ms; wake a little early.
            await asyncio.sleep(max(0.0, base + offsets[index] - now - 0.0005))
    await asyncio.gather(*tasks)
    phase.wall_s = last_done[0] - base
    return phase
