"""The ``serving`` gate section: the multi-site in-process service."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.pipeline import TafLoc
from repro.eval.bench.common import bench_spec
from repro.eval.bench.registry import BenchSection, register
from repro.eval.engine import cached_scenario
from repro.serve import (
    LocalizationService,
    pipeline_seed,
    reconstructor_seed,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario
from repro.util.rng import counter_stream, task_key

__all__ = ["bench_serving"]

SITES = ("square-3m", "square-4m")
FRAMES = 24
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=10)


def bench_serving(seed: int) -> Dict[str, object]:
    """Service answers vs a standalone pipeline, per site.

    One :class:`~repro.serve.service.LocalizationService` holds every
    site; ``bit_identical`` is whether its batch answers equal a
    standalone :class:`~repro.core.pipeline.TafLoc` built with the same
    derived seeds (:func:`repro.serve.manager.pipeline_seed` /
    :func:`~repro.serve.manager.reconstructor_seed`).
    """
    specs = {name: bench_spec(name) for name in SITES}
    service = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed
    )
    per_site: Dict[str, object] = {}
    for index, (site, spec) in enumerate(specs.items()):
        scenario = cached_scenario(spec, build_scenario)
        cells = counter_stream(seed, 100 + index).integers(
            0, scenario.deployment.cell_count, size=FRAMES
        )
        trace = RssCollector(
            scenario, PROTOCOL, seed=task_key(seed, "serving-workload", site)
        ).live_trace(0.0, cells)
        service.warm([site])
        direct = TafLoc(
            RssCollector(scenario, PROTOCOL, seed=pipeline_seed(spec, seed)),
            seed=reconstructor_seed(spec, seed),
        )
        direct.commission(0.0)
        served = service.query_batch(site, trace.rss, 0.0)
        reference = direct.localize_trace(trace)
        per_site[site] = {
            "bit_identical": bool(
                np.array_equal(served.cells, reference.cells)
                and np.array_equal(served.positions, reference.positions)
            )
        }
    return {"per_site": per_site}


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    if not all(row["bit_identical"] for row in record["per_site"].values()):
        return ["serving answers differ from direct TafLoc calls"]
    return []


register(
    BenchSection(name="serving", run=bench_serving, smoke_gates=_smoke_gates)
)
