"""The ``solve`` gate section: warm-started LoLi-IR updates.

A high-frequency refresh loop (6-hourly updates) solved cold and then
warm-started; the gate is that no warm solve takes more sweeps than its
cold twin. The run also checks that the batch matching kernel gives
every frame of a live trace the bits of a lone per-frame query.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.fingerprint import FingerprintMatrix
from repro.core.matching import KnnMatcher
from repro.core.pipeline import TafLoc, TafLocConfig
from repro.core.reconstruction import ReconstructionConfig
from repro.eval.bench.common import bench_spec
from repro.eval.bench.registry import BenchSection, register
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario
from repro.util.rng import counter_stream

__all__ = ["bench_solve"]

SIZE = "square-3m"
FRAMES = 24
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=10)


def bench_solve(seed: int) -> Dict[str, object]:
    """Cold vs warm-started update iterations on one small site."""
    spec = bench_spec(SIZE)
    scenario = build_scenario(spec.with_seed(seed))

    def iterations(warm_start: bool) -> List[int]:
        config = TafLocConfig(
            reconstruction=ReconstructionConfig(warm_start=warm_start)
        )
        system = TafLoc(
            RssCollector(scenario, PROTOCOL, seed=2), config, seed=3
        )
        system.commission(0.0)
        return [
            system.update(30.0 + 0.25 * step).reconstruction.solver_result.iterations
            for step in range(4)
        ]

    cold_iterations = iterations(False)
    warm_iterations = iterations(True)

    cells = counter_stream(seed, 1).integers(
        0, scenario.deployment.cell_count, size=FRAMES
    )
    collector = RssCollector(scenario, PROTOCOL, seed=4)
    survey = collector.collect_full_survey(0.0).survey
    matcher = KnnMatcher(
        FingerprintMatrix(values=survey.matrix, empty_rss=survey.empty_rss),
        scenario.deployment.grid,
    )
    trace = collector.live_trace(0.0, cells)
    batch = matcher.match_batch(trace.rss)
    for index, frame in enumerate(trace.rss):
        single = matcher.match(frame)
        if int(batch.cells[index]) != single.cell or (
            batch.scores[index].tobytes() != single.scores.tobytes()
        ):
            raise AssertionError(
                f"batch and per-frame matching disagree on frame {index}"
            )

    return {
        "scenario": spec.name,
        "cold_iterations": cold_iterations,
        "warm_iterations": warm_iterations,
        "warm_le_cold": all(
            w <= c for w, c in zip(warm_iterations, cold_iterations)
        ),
    }


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    if not record["warm_le_cold"]:
        return [
            "solve: warm-start iterations exceed cold on "
            f"{record['scenario']}"
        ]
    return []


register(BenchSection(name="solve", run=bench_solve, smoke_gates=_smoke_gates))
