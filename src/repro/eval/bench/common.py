"""Shared vocabulary of the bench-section registry.

:class:`BenchConfig` is the one immutable config object every section's
``run`` receives — the union of all section knobs, with ``None`` meaning
"skip this section" for the optional ones (the historical
``run_perf_bench`` contract). The helpers here (spec resolution, best-of
timing, host metadata, seeded site workloads, the bit-identity test,
the respawn poll) are the pieces sections used to duplicate; they live
in one place so a new section is *only* its measurement logic plus a
``register()`` call.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.loli_ir import LoliIrConfig
from repro.eval.engine import cached_scenario
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.deployment import Deployment
from repro.sim.specs import (
    ScenarioSpec,
    build_deployment,
    build_scenario,
    get_scenario_spec,
)
from repro.util.rng import counter_stream, task_key

__all__ = [
    "BENCH_SEED",
    "BenchConfig",
    "DEFAULT_SIZES",
    "LEGACY_SOLVER",
    "SMOKE_KNOBS",
    "StageTiming",
    "bench_spec",
    "best_of",
    "build_bench_deployment",
    "host_metadata",
    "identical",
    "respawned",
    "site_workloads",
]

#: The PR-1 solver configuration: matrix-free CG half-steps, no outer
#: extrapolation, tight inner tolerance — the baseline every fast-path
#: speedup in the committed benchmarks is measured against.
LEGACY_SOLVER = LoliIrConfig(
    method="cg", accelerate=False, cg_tol=1e-9, tol=1e-7
)

#: Deployment sizes benchmarked by default; the 6 m square is the 100-cell
#: grid of the PR-1 acceptance criterion.
DEFAULT_SIZES = ("paper", "square-6m", "square-12m")

BENCH_SEED = 2016

#: The seconds-scale ``run_perf_bench`` keywords of ``bench_perf.py
#: --smoke`` (every ``make *-smoke`` target): one tiny size, toy survey
#: density, and per section at least the sites, shard count and replica
#: count its smoke gates were specified against. The tier-1 gate test
#: runs this same configuration.
SMOKE_KNOBS: Dict[str, object] = {
    "sizes": ("square-3m",),
    "frames": 24,
    "samples_per_cell": 2,
    "repeat": 1,
    "serving_sites": ("square-3m", "square-4m"),
    "frontend_sites": ("square-3m", "square-4m"),
    "frontend_shards": (1, 2),
    "frontend_async_sites": ("square-3m", "square-4m"),
    "frontend_async_connections": (1, 2),
    "resilience_sites": ("square-3m", "square-4m", "square-5m"),
    "resilience_shards": 3,
    "resilience_replicas": 2,
    "trust_sites": ("square-3m", "square-4m"),
    "loadgen_sites": ("square-3m",),
    "loadgen_transports": ("http", "aio"),
    "loadgen_shards": (1,),
    "loadgen_requests": 60,
    "loadgen_start_qps": 50.0,
    "loadgen_max_qps": 2000.0,
    "loadgen_soak_sites": 200,
}


@dataclass(frozen=True)
class BenchConfig:
    """Every knob of every registered section, in one frozen object.

    Sections read only their own fields; ``None`` on a ``*_sites`` /
    ``engine_jobs`` field means that section is skipped (the historical
    ``run_perf_bench`` keyword contract, preserved verbatim so committed
    ``BENCH_PR*.json`` files stay comparable).
    """

    sizes: Sequence[str] = DEFAULT_SIZES
    frames: int = 500
    samples_per_cell: int = 10
    repeat: int = 3
    seed: int = BENCH_SEED
    engine_jobs: Optional[int] = None
    engine_scenario: Union[str, ScenarioSpec] = "paper"
    serving_sites: Optional[Sequence[str]] = None
    frontend_sites: Optional[Sequence[str]] = None
    frontend_shards: Sequence[int] = (1, 2)
    frontend_async_sites: Optional[Sequence[str]] = None
    frontend_async_connections: Sequence[int] = (1, 2, 4)
    resilience_sites: Optional[Sequence[str]] = None
    resilience_replicas: int = 2
    resilience_shards: int = 3
    trust_sites: Optional[Sequence[str]] = None
    # --- loadgen section (PR-10) -------------------------------------
    loadgen_sites: Optional[Sequence[str]] = None
    loadgen_transports: Sequence[str] = ("http", "aio")
    loadgen_shards: Sequence[int] = (1, 2)
    loadgen_slo_ms: float = 50.0
    loadgen_percentile: str = "p99_ms"
    loadgen_requests: int = 240
    loadgen_start_qps: float = 100.0
    loadgen_max_qps: float = 50_000.0
    loadgen_zipf_s: float = 1.1
    loadgen_arrival: str = "open"
    loadgen_process: str = "poisson"
    loadgen_clients: int = 4
    loadgen_soak_sites: int = 0
    loadgen_perturb: bool = True

    extras: Dict[str, object] = field(default_factory=dict)


def bench_spec(size: str) -> ScenarioSpec:
    """Scenario spec for a named benchmark size.

    Any registered scenario name works (``warehouse``, ``atrium``, …), plus
    the generic ``square-<edge>m`` pattern — the bench rows carry the
    resolved scenario name so cross-environment runs stay attributable.
    """
    try:
        return get_scenario_spec(size)
    except KeyError as error:
        raise ValueError(str(error)) from None


def build_bench_deployment(size: str) -> Deployment:
    """Deployment for a named benchmark size."""
    return build_deployment(bench_spec(size).geometry)


def site_workloads(
    specs: Mapping[str, ScenarioSpec],
    protocol: CollectionProtocol,
    frames: int,
    seed: int,
    *,
    offset: int,
    label: str,
) -> Dict[str, np.ndarray]:
    """One seeded live-trace RSS workload of ``frames`` frames per site.

    Site ``i`` draws its cells from ``counter_stream(seed, offset + i)``
    and its RSS from a collector seeded ``task_key(seed, label, site)``;
    each section keeps its own ``(offset, label)`` pair so its workloads
    (and every committed number measured on them) never move.
    """
    workloads: Dict[str, np.ndarray] = {}
    for index, (site, spec) in enumerate(specs.items()):
        scenario = cached_scenario(spec, build_scenario)
        cells = counter_stream(seed, offset + index).integers(
            0, scenario.deployment.cell_count, size=frames
        )
        workloads[site] = RssCollector(
            scenario, protocol, seed=task_key(seed, label, site)
        ).live_trace(0.0, cells).rss
    return workloads


def respawned(fleet, index: int, timeout_s: float) -> bool:
    """Poll a ``ShardedService`` until shard ``index`` is alive again.

    The fleet's ``health()`` poll is what drives a background respawn;
    returns ``False`` if the shard is still down after ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        fleet.health()
        if fleet._shards[index].alive():
            return True
        time.sleep(0.02)
    return False


def identical(result, reference) -> bool:
    """Whether ``result`` answers exactly like ``reference``.

    Cells and positions always; scores too whenever ``result`` carries
    them (a wire answer asked for ``include_scores``, any in-process or
    shard answer). This is the one bit-identity test every gate uses.
    """
    return bool(
        np.array_equal(result.cells, reference.cells)
        and np.array_equal(result.positions, reference.positions)
        and (
            result.scores is None
            or np.array_equal(result.scores, reference.scores)
        )
    )


def best_of(fn: Callable[[], object], repeat: int) -> float:
    """Best (minimum) wall time of ``repeat`` runs of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def host_metadata() -> Dict[str, object]:
    """Host facts stamped into every benchmark section.

    Throughput numbers from a 1-core CI container and a 16-core
    workstation are not comparable; recording ``cpu_count`` and the
    platform string next to every section keeps the committed
    ``BENCH_*`` trajectory attributable to the host that produced it.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class StageTiming:
    """Batch-vs-loop wall time of one benchmark stage."""

    batch_s: float
    loop_s: float

    @property
    def speedup(self) -> float:
        if self.batch_s <= 0:
            return float("inf")
        return self.loop_s / self.batch_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_s": self.batch_s,
            "loop_s": self.loop_s,
            "speedup": self.speedup,
        }
