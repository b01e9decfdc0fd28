"""Ablation: LoLi-IR convergence behaviour and runtime scaling.

The solver alternates exact half-step solves (closed-form per-row ``k×k``
blocks, plus block-Cholesky-preconditioned CG on the coupled half-steps)
with a monotone objective; this benchmark records (a) the per-sweep
objective decrease on a real update instance and (b) wall-time scaling of
one update as the monitored area (and thus the matrix) grows. EXPERIMENTS.md
says how to run it.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, emit
from repro.core.pipeline import TafLoc, TafLocConfig
from repro.eval.reporting import format_series, format_table
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.deployment import build_square_deployment
from repro.sim.scenario import build_paper_scenario
from repro.util.rng import spawn_children


@pytest.fixture(scope="module")
def update_report(bench_scenario):
    collector_rng, system_rng = spawn_children(BENCH_SEED + 3, 2)
    system = TafLoc(
        RssCollector(
            bench_scenario,
            CollectionProtocol(samples_per_cell=20, empty_room_samples=20),
            seed=collector_rng,
        ),
        TafLocConfig(),
        seed=system_rng,
    )
    system.commission(0.0)
    return system.update(45.0)


def run_update_for_edge(edge: float, seed: int) -> float:
    """Seconds for one LoLi-IR update on a square area of the given edge."""
    deployment = build_square_deployment(edge)
    scenario = build_paper_scenario(seed=seed, deployment=deployment)
    collector_rng, system_rng = spawn_children(seed, 2)
    protocol = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
    system = TafLoc(
        RssCollector(scenario, protocol, seed=collector_rng),
        TafLocConfig(),
        seed=system_rng,
    )
    system.commission(0.0)
    start = time.perf_counter()
    system.update(30.0)
    return time.perf_counter() - start


def test_solver_convergence(benchmark, capsys, update_report):
    history = benchmark.pedantic(
        lambda: update_report.reconstruction.solver_result.objective_history,
        rounds=1,
        iterations=1,
    )
    emit(
        capsys,
        "[Ablation] LoLi-IR objective per outer sweep (45-day update)\n"
        + format_series(
            "objective", list(range(len(history))), history.tolist(), precision=1
        ),
    )
    # Monotone non-increasing, with a material drop from the initialization.
    assert np.all(np.diff(history) <= 1e-6 * np.maximum(1.0, history[:-1]))
    assert history[-1] < history[0]


def test_solver_runtime_scaling(benchmark, capsys):
    seconds = {}
    for edge in (6.0, 9.0, 12.0):
        seconds[edge] = run_update_for_edge(edge, BENCH_SEED)

    benchmark.pedantic(
        run_update_for_edge, args=(6.0, BENCH_SEED + 1), rounds=1, iterations=1
    )

    rows = [
        [int(edge), int((edge / 0.6) ** 2), secs]
        for edge, secs in seconds.items()
    ]
    emit(
        capsys,
        "[Ablation] One TafLoc update wall time vs area size\n"
        + format_table(["edge [m]", "cells", "update [s]"], rows, precision=2),
    )

    # The solve stays practical at 4x the paper's cell count.
    assert seconds[12.0] < 120.0
