"""Golden digests and iteration budgets of the LoLi-IR solver.

Every reconstructed epoch the server answers from is a LoLi-IR solve, so a
change to the solver's arithmetic moves the bits of every epoch. This
module pins them: it hashes the inputs and the outputs (factors, matrix,
objective history, sweep and inner-iteration counts) of ``paper``-scale
solves on three update days, and compares the hashes with the committed
``loli_ir_bits_golden.json``. A moved ``inputs`` digest means the problem
changed upstream of the solver; a moved ``solve`` digest alone means the
solver did.

It also pins, per site of the ``interactive`` fleet, the LoLi-IR sweeps
and inner CG iterations of a fixed-seed commission and five updates as
upper bounds: a kernel change must not buy speed with extra iterations.

Regenerate the golden file only for a change that is *meant* to move the
solver's bits or to lower a budget (it prints the budgets, old and new,
on stderr)::

    PYTHONPATH=src python tests/core/test_loli_ir_bits.py > /tmp/golden.json \
        && mv /tmp/golden.json tests/core/loli_ir_bits_golden.json

Bits are a contract of one numpy build and of the BLAS kernels it picks
for the CPU, so the comparison is skipped when the installed numpy or the
CPU's vector features differ from the ones the golden file was written
with.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.fingerprint import FingerprintMatrix
from repro.core.loli_ir import LoliIrProblem, LoliIrResult
from repro.core.pipeline import TafLoc
from repro.core.reconstruction import ReconstructionConfig, Reconstructor
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario

GOLDEN = Path(__file__).with_name("loli_ir_bits_golden.json")

SOLVE_DAYS = (5.0, 30.0, 90.0)
BUDGET_SITES = ("paper", "square-8m", "square-12m", "square-16m", "square-20m")
BUDGET_DAYS = (2.0, 4.0, 6.0, 8.0, 10.0)
PROTOCOL = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)


def _cpu() -> str:
    """The machine and the vector features its BLAS picks kernels by."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    simd = [name for name in ("FMA3", "AVX2", "AVX512F") if features.get(name)]
    return " ".join([platform.machine(), *simd])


def _paper_solves() -> List[Tuple[LoliIrProblem, LoliIrResult]]:
    """The serving pipeline's solver on ``paper`` updates at ``SOLVE_DAYS``."""
    scenario = build_scenario("paper", seed=5)
    collector = RssCollector(scenario, PROTOCOL, seed=2)
    survey = collector.collect_full_survey(0.0).survey
    initial = FingerprintMatrix(
        values=survey.matrix, empty_rss=survey.empty_rss, day=0.0
    )
    reconstructor = Reconstructor(
        scenario.deployment, initial, ReconstructionConfig(), seed=0
    )
    solves = []
    for day in SOLVE_DAYS:
        refs = collector.collect_survey(day, reconstructor.references.cells)
        empty = collector.collect_empty_room(day)
        problem = reconstructor._build_problem(refs.survey.matrix, empty)
        solves.append((problem, reconstructor._solver.solve(problem)))
    return solves


def _hash(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        if hasattr(array, "toarray"):
            array = array.toarray()
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _inputs_digest(problem: LoliIrProblem) -> str:
    return _hash(
        problem.observed_mask,
        problem.observed_values,
        problem.lrr_target,
        problem.continuity_op,
        problem.continuity_weights,
        problem.similarity_op,
        problem.similarity_weights,
    )


def _solve_digest(result: LoliIrResult) -> str:
    return _hash(
        result.left,
        result.right,
        result.matrix,
        result.objective_history,
        [result.iterations],
        result.inner_iterations,
    )


def solver_digests() -> Dict[str, Dict[str, str]]:
    digests = {}
    for day, (problem, result) in zip(SOLVE_DAYS, _paper_solves()):
        digests[f"paper-day{day:g}"] = {
            "inputs": _inputs_digest(problem),
            "solve": _solve_digest(result),
        }
    return digests


def site_counts(site: str) -> Dict[str, int]:
    """Sweeps and inner iterations of a fixed-seed commission + updates."""
    system = TafLoc(RssCollector(build_scenario(site, seed=1), PROTOCOL, seed=2))
    system.commission(0.0)
    sweeps = inner = 0
    for day in BUDGET_DAYS:
        result = system.update(day).reconstruction.solver_result
        sweeps += result.iterations
        inner += int(result.inner_iterations.sum())
    return {"sweeps": sweeps, "inner_iterations": inner}


def golden_record() -> Dict[str, object]:
    return {
        "numpy": np.__version__,
        "cpu": _cpu(),
        "digests": solver_digests(),
        "budgets": {site: site_counts(site) for site in BUDGET_SITES},
    }


@pytest.fixture(scope="module")
def golden():
    record = json.loads(GOLDEN.read_text())
    if (record["numpy"], record["cpu"]) != (np.__version__, _cpu()):
        pytest.skip(
            f"golden bits were taken with numpy {record['numpy']} on "
            f"{record['cpu']!r}, this is numpy {np.__version__} on {_cpu()!r}"
        )
    return record


@pytest.fixture(scope="module")
def digests():
    return solver_digests()


@pytest.mark.parametrize("day", SOLVE_DAYS)
def test_paper_solve_bits_match_the_golden_digest(golden, digests, day):
    key = f"paper-day{day:g}"
    assert digests[key]["inputs"] == golden["digests"][key]["inputs"]
    assert digests[key]["solve"] == golden["digests"][key]["solve"]


@pytest.mark.parametrize("site", BUDGET_SITES)
def test_site_iterations_stay_within_budget(golden, site):
    budget = golden["budgets"][site]
    counts = site_counts(site)
    assert counts["sweeps"] <= budget["sweeps"], counts
    assert counts["inner_iterations"] <= budget["inner_iterations"], counts


if __name__ == "__main__":
    record = golden_record()
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text()).get("budgets", {})
        for site, new in record["budgets"].items():
            before = old.get(site, {})
            for name, value in new.items():
                sys.stderr.write(
                    f"{site:12s} {name:17s} {before.get(name, '-'):>6} -> {value}\n"
                )
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
