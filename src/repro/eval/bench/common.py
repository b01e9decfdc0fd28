"""Shared vocabulary of the gate-section registry.

The helpers here (spec resolution, host metadata, seeded site
workloads, the bit-identity test, the respawn poll) are the pieces
sections used to duplicate; they live in one place so a new section is
*only* its gate run, its gate conditions and a ``register()`` call.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Mapping

import numpy as np

from repro.eval.engine import cached_scenario
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import ScenarioSpec, build_scenario, get_scenario_spec
from repro.util.rng import counter_stream, task_key

__all__ = [
    "BENCH_SEED",
    "bench_spec",
    "host_metadata",
    "identical",
    "respawned",
    "site_workloads",
]

BENCH_SEED = 2016


def bench_spec(size: str) -> ScenarioSpec:
    """Scenario spec for a named site: a registry name or ``square-<edge>m``."""
    try:
        return get_scenario_spec(size)
    except KeyError as error:
        raise ValueError(str(error)) from None


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
    never move.
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


def host_metadata() -> Dict[str, object]:
    """Host facts stamped into the report's ``environment``."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
