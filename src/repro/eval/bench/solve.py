"""The ``solve`` bench section: survey / LoLi-IR solve / trace matching.

Times the three production-critical operations on every configured
deployment size, comparing the fast implementations against their
reference counterparts (per-frame/per-cell loops; the matrix-free CG
solver). Report key ``sizes`` (one row per scenario, host-stamped per
row) — the shape the very first committed ``BENCH_PR*.json`` used.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.fingerprint import FingerprintMatrix
from repro.core.loli_ir import LoliIrConfig
from repro.core.matching import KnnMatcher
from repro.core.pipeline import TafLoc, TafLocConfig
from repro.core.reconstruction import ReconstructionConfig
from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    LEGACY_SOLVER,
    StageTiming,
    bench_spec,
    best_of,
)
from repro.eval.bench.registry import BenchSection, register
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.scenario import Scenario
from repro.sim.specs import build_scenario
from repro.util.rng import counter_stream

__all__ = ["bench_size"]


def bench_size(
    size: str,
    *,
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Benchmark one scenario/size; returns a plain-data record."""
    spec = bench_spec(size)
    scenario: Scenario = build_scenario(spec.with_seed(seed))
    deployment = scenario.deployment
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )

    # --- simulation: full commissioning survey, batch vs per-cell loop ---
    # Both sides get the same best-of treatment so warm-up noise cannot
    # inflate the reported speedup.
    survey = StageTiming(
        batch_s=best_of(
            lambda: RssCollector(
                scenario, protocol, seed=1, vectorized=True
            ).collect_full_survey(0.0),
            repeat,
        ),
        loop_s=best_of(
            lambda: RssCollector(
                scenario, protocol, seed=1, vectorized=False
            ).collect_full_survey(0.0),
            repeat,
        ),
    )

    # --- reconstruction: LoLi-IR update, legacy vs fast, cold vs warm ---
    def updates(warm_start: bool, solver: Optional[LoliIrConfig] = None) -> List[int]:
        config = TafLocConfig(
            reconstruction=ReconstructionConfig(
                warm_start=warm_start,
                solver=solver if solver is not None else LoliIrConfig(),
            )
        )
        system = TafLoc(
            RssCollector(scenario, protocol, seed=2), config, seed=3
        )
        system.commission(0.0)
        iterations = []
        # A high-frequency refresh loop: 6-hourly updates, the regime the
        # warm start is built for.
        for step in range(4):
            report = system.update(30.0 + 0.25 * step)
            iterations.append(report.reconstruction.solver_result.iterations)
        return iterations

    start = time.perf_counter()
    legacy_iterations = updates(False, LEGACY_SOLVER)
    legacy_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    cold_iterations = updates(False)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm_iterations = updates(True)
    warm_s = time.perf_counter() - start

    # --- serving: trace-level matching, batch vs per-frame loop ---------
    workload_rng = counter_stream(seed, 1)
    cells = workload_rng.integers(0, deployment.cell_count, size=frames)
    collector = RssCollector(scenario, protocol, seed=4)
    result = collector.collect_full_survey(0.0)
    fingerprint = FingerprintMatrix(
        values=result.survey.matrix, empty_rss=result.survey.empty_rss
    )
    trace = collector.live_trace(0.0, cells)
    matcher = KnnMatcher(fingerprint, deployment.grid)
    batch_out = matcher.match_batch(trace.rss)
    loop_out = [matcher.match(frame) for frame in trace.rss]
    for index, single in enumerate(loop_out):
        # The batch kernel is batch-invariant: every row has the lone
        # query's bits, exact distance ties included.
        if int(batch_out.cells[index]) != single.cell or (
            batch_out.scores[index].tobytes() != single.scores.tobytes()
        ):
            raise AssertionError(
                f"batch and per-frame matching disagree on frame {index}"
            )
    matching = StageTiming(
        batch_s=best_of(lambda: matcher.match_batch(trace.rss), repeat),
        loop_s=best_of(
            lambda: [matcher.match(frame) for frame in trace.rss], repeat
        ),
    )

    return {
        "scenario": spec.name,
        "links": deployment.link_count,
        "cells": deployment.cell_count,
        "frames": int(frames),
        "samples_per_cell": int(samples_per_cell),
        "survey": survey.as_dict(),
        "solve": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "legacy_cold_s": legacy_cold_s,
            "speedup": legacy_cold_s / cold_s if cold_s > 0 else float("inf"),
            "cold_iterations": cold_iterations,
            "warm_iterations": warm_iterations,
            "legacy_iterations": legacy_iterations,
            "warm_le_cold": all(
                w <= c for w, c in zip(warm_iterations, cold_iterations)
            ),
        },
        "match_trace": matching.as_dict(),
    }


def _run(config: BenchConfig) -> Dict[str, object]:
    record: Dict[str, object] = {}
    for size in config.sizes:
        record[size] = bench_size(
            size,
            frames=config.frames,
            samples_per_cell=config.samples_per_cell,
            repeat=config.repeat,
            seed=config.seed,
        )
    return record


def _format(record: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    header = (
        f"{'size':<12} {'links':>5} {'cells':>6} "
        f"{'survey x':>9} {'match x':>8} {'solve x':>8} "
        f"{'cold/warm [s]':>14}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for size, row in record.items():
        survey = row["survey"]
        match = row["match_trace"]
        solve = row["solve"]
        lines.append(
            f"{size:<12} {row['links']:>5} {row['cells']:>6} "
            f"{survey['speedup']:>9.1f} {match['speedup']:>8.1f} "
            f"{solve.get('speedup', float('nan')):>8.1f} "
            f"{solve['cold_s']:>7.2f}/{solve['warm_s']:.2f}"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    for size, row in record.items():
        if not row["solve"]["warm_le_cold"]:
            failures.append(
                f"solve: warm-start iterations exceed cold on {size}"
            )
    return failures


register(
    BenchSection(
        name="solve",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="sizes",
        host_stamp="rows",
    )
)
