"""Unit tests for the LoLi-IR alternating solver."""

import numpy as np
import pytest

from repro.core.loli_ir import LoliIrConfig, LoliIrProblem, LoliIrSolver


def make_problem(links=8, cells=24, rank=3, observe=0.5, seed=0, with_lrr=True):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(links, rank)) @ rng.normal(size=(rank, cells))
    mask = rng.random((links, cells)) < observe
    lrr_target = truth + 0.2 * rng.standard_normal(truth.shape) if with_lrr else None
    problem = LoliIrProblem(
        observed_mask=mask,
        observed_values=np.where(mask, truth, 0.0),
        lrr_target=lrr_target,
    )
    return truth, problem


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rank": 0},
        {"lam": 0.0},
        {"observed_weight": -1.0},
        {"outer_iterations": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LoliIrConfig(**kwargs)


class TestProblemValidation:
    def test_mask_value_shape_mismatch(self):
        with pytest.raises(ValueError, match="observed_mask"):
            LoliIrProblem(
                observed_mask=np.zeros((2, 3), dtype=bool),
                observed_values=np.zeros((2, 4)),
            )

    def test_lrr_shape_mismatch(self):
        with pytest.raises(ValueError, match="lrr_target"):
            LoliIrProblem(
                observed_mask=np.ones((2, 3), dtype=bool),
                observed_values=np.zeros((2, 3)),
                lrr_target=np.zeros((2, 4)),
            )

    def test_continuity_pieces_come_together(self):
        with pytest.raises(ValueError, match="come together"):
            LoliIrProblem(
                observed_mask=np.ones((2, 3), dtype=bool),
                observed_values=np.zeros((2, 3)),
                continuity_op=np.zeros((3, 2)),
            )

    def test_continuity_shapes_checked(self):
        with pytest.raises(ValueError, match="continuity_op"):
            LoliIrProblem(
                observed_mask=np.ones((2, 3), dtype=bool),
                observed_values=np.zeros((2, 3)),
                continuity_op=np.zeros((4, 2)),
                continuity_weights=np.zeros((2, 2)),
            )

    def test_similarity_shapes_checked(self):
        with pytest.raises(ValueError, match="similarity_op"):
            LoliIrProblem(
                observed_mask=np.ones((2, 3), dtype=bool),
                observed_values=np.zeros((2, 3)),
                similarity_op=np.zeros((1, 5)),
                similarity_weights=np.zeros((1, 3)),
            )


class TestSolve:
    def test_objective_monotone_nonincreasing(self):
        _, problem = make_problem()
        result = LoliIrSolver(LoliIrConfig(rank=3, outer_iterations=15)).solve(problem)
        history = result.objective_history
        assert np.all(np.diff(history) <= 1e-6 * np.maximum(1.0, history[:-1]))

    def test_recovers_low_rank_matrix(self):
        truth, problem = make_problem()
        result = LoliIrSolver(
            LoliIrConfig(rank=3, lam=1e-4, outer_iterations=30)
        ).solve(problem)
        unobserved = ~problem.observed_mask
        error = np.abs(result.matrix - truth)[unobserved].mean()
        assert error < 0.25 * np.abs(truth).mean()

    def test_mask_only_problem_solvable(self):
        """With the default λ, rank-only masked factorization (the paper's
        property-i arm) recovers a well-observed low-rank matrix. A tiny λ
        would overfit the unobserved entries — that's what the LRR and
        smoothness terms guard against in the real problem."""
        truth, problem = make_problem(
            links=12, cells=40, observe=0.7, with_lrr=False
        )
        result = LoliIrSolver(
            LoliIrConfig(rank=3, lam=1e-2, outer_iterations=60)
        ).solve(problem)
        error = np.abs(result.matrix - truth)[~problem.observed_mask].mean()
        assert error < 0.2 * np.abs(truth).mean()

    def test_factors_multiply_to_matrix(self):
        _, problem = make_problem()
        result = LoliIrSolver(LoliIrConfig(rank=3)).solve(problem)
        np.testing.assert_allclose(result.matrix, result.left @ result.right.T)

    def test_rank_clipped_to_dimensions(self):
        _, problem = make_problem(links=4, cells=10)
        result = LoliIrSolver(LoliIrConfig(rank=99)).solve(problem)
        assert result.left.shape[1] <= 4

    def test_early_stop_flag(self):
        _, problem = make_problem()
        result = LoliIrSolver(
            LoliIrConfig(rank=3, outer_iterations=100, tol=1e-3)
        ).solve(problem)
        assert result.converged
        assert result.iterations < 100

    def test_smoothness_terms_pull_toward_smooth_solutions(self):
        """With continuity active on a pair of unobserved neighbor columns,
        their values end up closer than without the penalty."""
        rng = np.random.default_rng(1)
        links, cells = 6, 10
        truth = rng.normal(size=(links, 2)) @ rng.normal(size=(2, cells))
        mask = np.ones((links, cells), dtype=bool)
        mask[:, 4:6] = False  # two hidden columns
        # G penalizing the difference of columns 4 and 5 on all links.
        g = np.zeros((cells, 1))
        g[4, 0], g[5, 0] = -1.0, 1.0
        weights = np.ones((links, 1))

        def solve(weight):
            problem = LoliIrProblem(
                observed_mask=mask,
                observed_values=np.where(mask, truth, 0.0),
                continuity_op=g,
                continuity_weights=weights,
            )
            config = LoliIrConfig(
                rank=2, lam=1e-4, continuity_weight=weight, outer_iterations=30
            )
            return LoliIrSolver(config).solve(problem).matrix

        without = solve(0.0)
        with_penalty = solve(10.0)
        gap_without = np.abs(without[:, 4] - without[:, 5]).mean()
        gap_with = np.abs(with_penalty[:, 4] - with_penalty[:, 5]).mean()
        assert gap_with < gap_without + 1e-9

    def test_similarity_terms_pull_rows_together(self):
        rng = np.random.default_rng(2)
        links, cells = 6, 8
        truth = rng.normal(size=(links, 2)) @ rng.normal(size=(2, cells))
        mask = np.ones((links, cells), dtype=bool)
        mask[2:4, :] = False  # two hidden rows
        h = np.zeros((1, links))
        h[0, 2], h[0, 3] = -1.0, 1.0
        weights = np.ones((1, cells))

        def solve(weight):
            problem = LoliIrProblem(
                observed_mask=mask,
                observed_values=np.where(mask, truth, 0.0),
                similarity_op=h,
                similarity_weights=weights,
            )
            config = LoliIrConfig(
                rank=2, lam=1e-4, similarity_weight=weight, outer_iterations=30
            )
            return LoliIrSolver(config).solve(problem).matrix

        without = solve(0.0)
        with_penalty = solve(10.0)
        gap_without = np.abs(without[2] - without[3]).mean()
        gap_with = np.abs(with_penalty[2] - with_penalty[3]).mean()
        assert gap_with < gap_without + 1e-9

    def test_deterministic(self):
        _, problem = make_problem()
        solver = LoliIrSolver(LoliIrConfig(rank=3))
        a = solver.solve(problem).matrix
        b = solver.solve(problem).matrix
        np.testing.assert_array_equal(a, b)
