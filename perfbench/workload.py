"""The benchmark's workloads and their seeded traffic.

Everything a run sends is fixed here from ``--seed`` before any I/O:
arrival offsets, Zipf site choices, frame picks, the update schedule
and the RSS frames themselves (with ground-truth positions). The plan
generators are the benchmark's own code, so an edit to ``repro.loadgen``
or ``repro.util.rng`` cannot change the traffic; only the RSS physics
comes from the program (``repro.sim``), and the plan fingerprint covers
the frame bytes, so a change there shows as a new fingerprint.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The server's ``--seed``: part of the deployed program's configuration,
#: not of the traffic, so it stays fixed across benchmark seeds.
FLEET_SEED = 0

#: Every site is commissioned at day 0 (``serve`` warms at start) and
#: updated once at this day inside set-up; set-up, warm-up and quiet-phase
#: queries ask about it.
SETUP_DAY = 1.0

#: Live frames per (site, day) pool; requests cycle through the pool.
POOL_FRAMES = 512

#: Frames per streamed ``query_trace`` request, and requests per round.
#: Traces always track a person at the fleet's most popular site, so the
#: trace throughput measures one fixed size, not a seed's site mix.
TRACE_FRAMES = 1024
TRACES_PER_ROUND = 2
#: Frames per streamed chunk line, both ways: 4 lines per trace instead
#: of the client's default 16, so fewer generator-server exchanges (each
#: a wake-up on a small VM) sit inside one trace.
TRACE_CHUNK = 256
#: Days between two update rounds. Fixed, not seeded: how many LoLi-IR
#: sweeps an update needs depends on the day's drift, so seeded days made
#: the update work itself differ from seed to seed.
DAYS_PER_ROUND = 2.0


#: The run length the phase sizes below are written for; other
#: ``--seconds`` values scale the quiet phase and the round count (never
#: the round period, which sets how much of the time updates block the
#: server).
NOMINAL_SECONDS = 30.0


#: Site popularity skew of every query stream.
ZIPF_S = 1.1
#: The quiet fixed-rate phase: length and offered rate.
QUIET_S = 9.0
QUIET_QPS = 500.0
#: Offered rate of the single queries beside the aging phase's updates.
AGING_QPS = 150.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Every workload runs the same phase program, sized differently:
    warm-up, the quiet fixed-rate phase, then the aging phase (update
    rounds with single queries and streamed traces beside them).

    Attributes:
        name: Workload name (``--workload``).
        sites: Fleet in registration order; rank 0 is the most popular.
        rounds: Update rounds of the aging phase.
        period_s: Planned start-to-start time of two rounds, set so that
            updates and traces keep the server busy about 40% of the
            time. The p90 of the queries beside them then lies well
            inside the share that waited behind an update: it follows the
            update durations instead of jumping across the knee between
            waited and not. A host half as fast still keeps up (80%).
    """

    name: str
    sites: Tuple[str, ...]
    rounds: int
    period_s: float


WORKLOADS: Dict[str, Workload] = {
    "interactive": Workload(
        name="interactive",
        sites=("paper", "square-8m", "square-12m", "square-16m", "square-20m"),
        # 100 updates: update p90 has 10 samples beyond it.
        rounds=20,
        period_s=1.0,
    ),
    "refresh": Workload(
        name="refresh",
        # Five small sites, updated round-robin 46 times: 230 updates.
        sites=("paper", "square-6m", "square-8m", "square-10m", "square-12m"),
        rounds=46,
        period_s=0.42,
    ),
}


def rng_for(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator per (seed, tags) — order of use never matters."""
    words = [int(seed) & 0xFFFFFFFF]
    words += [zlib.crc32(repr(tag).encode()) for tag in tags]
    return np.random.default_rng(words)


def zipf_weights(count: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** s
    return weights / weights.sum()


@dataclass
class OpenLoopPlan:
    """Planned single queries: when, which site, which pool frame, day."""

    offsets: np.ndarray
    site_index: np.ndarray
    frame_index: np.ndarray
    day_slot: np.ndarray = field(default=None)  # aging: round of the day

    @property
    def requests(self) -> int:
        return int(self.offsets.size)

    def arrays(self) -> List[np.ndarray]:
        arrays = [self.offsets, self.site_index, self.frame_index]
        if self.day_slot is not None:
            arrays.append(self.day_slot)
        return arrays


def open_loop_plan(
    seed: int,
    tag: str,
    *,
    sites: int,
    rate_qps: float,
    duration_s: float,
) -> OpenLoopPlan:
    """Poisson arrivals at ``rate_qps`` over ``duration_s`` seconds."""
    rng = rng_for(seed, "open-loop", tag, rate_qps, duration_s)
    count = max(1, int(round(rate_qps * duration_s)))
    offsets = np.cumsum(rng.exponential(1.0 / rate_qps, size=count))
    site_index = rng.choice(sites, size=count, p=zipf_weights(sites, ZIPF_S))
    frame_index = rng.integers(0, POOL_FRAMES, size=count)
    return OpenLoopPlan(offsets, site_index, frame_index)


@dataclass
class AgingPlan:
    """The aging schedule: update rounds plus the queries beside them.

    Round ``k`` (1-based) starts at ``(k - 1) * period_s``, updates every
    site at ``days[k]`` in ``orders[k - 1]`` order, then streams
    ``TRACES_PER_ROUND`` traces of the most popular site at ``days[k]``.
    A query planned inside round ``k``'s window asks about
    ``days[max(k - 2, 0)]`` (``days[0]`` is the set-up day): that epoch
    was fixed a whole round earlier, so its answer is checkable bit for
    bit however the update calls interleave.
    """

    period_s: float
    days: np.ndarray
    orders: np.ndarray
    queries: OpenLoopPlan

    @property
    def rounds(self) -> int:
        return int(self.orders.shape[0])

    def arrays(self) -> List[np.ndarray]:
        return [self.days, self.orders, *self.queries.arrays()]


def aging_plan(
    seed: int,
    *,
    sites: int,
    rounds: int,
    period_s: float,
) -> AgingPlan:
    rng = rng_for(seed, "aging", rounds, period_s)
    days = SETUP_DAY + DAYS_PER_ROUND * np.arange(rounds + 1, dtype=float)
    orders = np.stack([rng.permutation(sites) for _ in range(rounds)])
    queries = open_loop_plan(
        seed,
        "aging-queries",
        sites=sites,
        rate_qps=AGING_QPS,
        duration_s=rounds * period_s,
    )
    window = np.minimum((queries.offsets // period_s).astype(int) + 1, rounds)
    queries.day_slot = np.maximum(window - 2, 0)
    return AgingPlan(period_s, days, orders, queries)


def fingerprint(*arrays: np.ndarray, extra: Sequence[object] = ()) -> str:
    """SHA-256 over raw array bytes plus identifying metadata."""
    digest = hashlib.sha256(repr(tuple(extra)).encode())
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode() + str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class FramePools:
    """Live RSS frames with ground truth, per (site, day), seeded.

    Each pool comes from its own collector seeded by ``(seed, site,
    day)``, so pools do not depend on the order they are first asked for.
    """

    def __init__(self, seed: int, sites: Sequence[str]) -> None:
        from repro.eval.engine import cached_scenario
        from repro.sim.collector import CollectionProtocol, RssCollector
        from repro.sim.specs import build_scenario, get_scenario_spec

        self.seed = int(seed)
        self.sites = tuple(sites)
        self._scenarios = {
            site: cached_scenario(get_scenario_spec(site), build_scenario)
            for site in self.sites
        }
        self._collector = RssCollector
        self._protocol = CollectionProtocol()
        self._pools: Dict[Tuple[str, float], object] = {}

    def pool(self, site: str, day: float, frames: int = POOL_FRAMES):
        """The :class:`~repro.sim.trace.LiveTrace` pool for ``(site, day)``."""
        key = (site, float(day), int(frames))
        trace = self._pools.get(key)
        if trace is None:
            scenario = self._scenarios[site]
            rng = rng_for(self.seed, "frames", *key)
            collector = self._collector(
                scenario,
                self._protocol,
                seed=int(rng.integers(0, 2**63 - 1)),
            )
            cells = rng.integers(0, scenario.deployment.cell_count, size=frames)
            trace = collector.live_trace(float(day), cells)
            self._pools[key] = trace
        return trace

    def digest(self) -> str:
        """Fingerprint of every pool built so far (sorted by key)."""
        arrays = []
        for key in sorted(self._pools):
            trace = self._pools[key]
            arrays += [trace.rss, trace.true_positions]
        return fingerprint(*arrays, extra=sorted(self._pools))
