"""A LoLi-IR update over the Reconstructor's pair operators is bit-identical
to the same update over the dense operator definitions.

The dense twin is built from the original per-pair loops (dense ``G``/``H``
and loop-built gate weights), so this pins both the pair operators and the
vectorized gate weights to the answers the dense construction gave.
"""

import numpy as np
import pytest

from repro.core.fingerprint import FingerprintMatrix
from repro.core.loli_ir import LoliIrProblem
from repro.core.operators import PairOperator
from repro.core.reconstruction import ReconstructionConfig, Reconstructor
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario

from tests.property.test_sparse_operators import (
    dense_continuity,
    dense_similarity,
    loop_continuity_weights,
    loop_similarity_weights,
)


@pytest.fixture(scope="module", params=["paper", "square-12m"])
def update(request):
    """A Reconstructor plus one day-30 update's fresh measurements."""
    scenario = build_scenario(request.param, seed=5)
    protocol = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
    collector = RssCollector(scenario, protocol, seed=2)
    survey = collector.collect_full_survey(0.0).survey
    initial = FingerprintMatrix(
        values=survey.matrix, empty_rss=survey.empty_rss, day=0.0
    )
    reconstructor = Reconstructor(
        scenario.deployment, initial, ReconstructionConfig(), seed=0
    )
    refs = collector.collect_survey(30.0, reconstructor.references.cells)
    empty = collector.collect_empty_room(30.0)
    return scenario.deployment, reconstructor, refs.survey.matrix, empty


def dense_twin(deployment, reconstructor, problem):
    mask = reconstructor.profile.largely_distorted
    g = dense_continuity(deployment.grid)
    h = dense_similarity(deployment)
    return LoliIrProblem(
        observed_mask=problem.observed_mask,
        observed_values=problem.observed_values,
        lrr_target=problem.lrr_target,
        continuity_op=g,
        continuity_weights=loop_continuity_weights(mask, g),
        similarity_op=h,
        similarity_weights=loop_similarity_weights(mask, h),
    )


def test_reconstructor_holds_no_dense_operator(update):
    _, reconstructor, refs, empty = update
    problem = reconstructor._build_problem(refs, empty)
    operators = (
        reconstructor._continuity_op,
        reconstructor._similarity_op,
        problem.continuity_op,
        problem.similarity_op,
    )
    for operator in operators:
        assert isinstance(operator, PairOperator)
        # Only the pair ends: no array spans nodes × pairs.
        pairs = operator.shape[operator.pair_axis]
        arrays = [v for v in vars(operator).values() if isinstance(v, np.ndarray)]
        assert arrays
        assert all(array.shape == (pairs,) for array in arrays)
    for weights in (
        reconstructor._continuity_weights,
        reconstructor._similarity_weights,
    ):
        assert isinstance(weights, np.ndarray)
        assert weights.flags.c_contiguous


def test_sparse_and_dense_problems_solve_bit_identically(update):
    deployment, reconstructor, refs, empty = update
    sparse = reconstructor._build_problem(refs, empty)
    dense = dense_twin(deployment, reconstructor, sparse)
    solver = reconstructor._solver
    ours, theirs = solver.solve(sparse), solver.solve(dense)
    assert np.array_equal(ours.matrix, theirs.matrix)
    assert np.array_equal(ours.objective_history, theirs.objective_history)
    assert np.array_equal(ours.inner_iterations, theirs.inner_iterations)
    assert ours.iterations == theirs.iterations
