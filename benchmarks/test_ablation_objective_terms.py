"""Ablation: which terms of the TafLoc objective earn their keep.

The objective stacks three priors — rank minimization (property i), the
low-rank representation anchor (property ii), and the continuity/similarity
smoothers (property iii). The poster motivates each but publishes no
ablation, so this is a design-choice experiment (EXPERIMENTS.md, "Figure
reproductions"). We rerun the Fig. 3 workload at a 45-day gap with terms
toggled and report the mean reconstruction error of each arm.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, emit
from repro.core.pipeline import TafLocConfig
from repro.core.reconstruction import ReconstructionConfig
from repro.eval.experiments import run_fig3_reconstruction_error
from repro.eval.reporting import format_table
from repro.sim.scenario import build_paper_scenario

ARMS = {
    "full objective": ReconstructionConfig(),
    "no smoothness": ReconstructionConfig(use_smoothness=False),
    "no LRR": ReconstructionConfig(use_lrr=False),
    "rank-min only": ReconstructionConfig(use_lrr=False, use_smoothness=False),
}


def run_arm(config: ReconstructionConfig, seed: int) -> float:
    scenario = build_paper_scenario(seed=seed)
    results = run_fig3_reconstruction_error(
        days=(45.0,),
        seed=seed,
        scenario=scenario,
        config=TafLocConfig(reconstruction=config),
    )
    return results[0].oracle_mean_error


@pytest.fixture(scope="module")
def ablation_results():
    seeds = (BENCH_SEED, BENCH_SEED + 1)
    return {
        name: float(np.mean([run_arm(config, seed) for seed in seeds]))
        for name, config in ARMS.items()
    }


def test_ablation_benchmark(benchmark):
    error = benchmark.pedantic(
        run_arm, args=(ARMS["full objective"], BENCH_SEED + 9), rounds=1,
        iterations=1,
    )
    assert error > 0


def test_ablation_report(benchmark, capsys, ablation_results):
    rows = benchmark.pedantic(
        lambda: [[name, err] for name, err in ablation_results.items()],
        rounds=1,
        iterations=1,
    )
    emit(
        capsys,
        "[Ablation] Objective terms, 45-day reconstruction error vs "
        "noise-free truth (2-seed mean)\n"
        + format_table(["arm", "mean err [dB]"], rows, precision=2),
    )

    full = ablation_results["full objective"]
    rank_only = ablation_results["rank-min only"]
    no_lrr = ablation_results["no LRR"]
    # The full objective beats the property-(i)-only arm, and removing the
    # LRR anchor (the paper's central labor-saving idea) hurts the most.
    assert full < rank_only
    assert no_lrr > full
