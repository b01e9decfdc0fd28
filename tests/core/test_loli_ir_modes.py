"""LoLi-IR's solver against a dense least-squares oracle of each
half-step, and its safeguarded extrapolation."""

import dataclasses

import numpy as np
import pytest

from repro.core.loli_ir import (
    LoliIrConfig,
    LoliIrProblem,
    LoliIrSolver,
    _CompiledProblem,
)


def make_problem(links=8, cells=24, rank=3, observe=0.5, seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.normal(0, 1, size=(links, rank)) @ rng.normal(
        0, 1, size=(rank, cells)
    )
    mask = rng.random((links, cells)) < observe
    mask[:, 0] = True  # keep at least one fully observed column
    return truth, LoliIrProblem(
        observed_mask=mask,
        observed_values=np.where(mask, truth, 0.0),
        lrr_target=truth + rng.normal(0, 0.05, size=truth.shape),
    )


def make_smooth_problem(links=8, cells=24, rank=3, seed=3):
    """A problem exercising every objective term, including the couplings."""
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(links, rank)) @ rng.normal(size=(rank, cells))
    mask = rng.random((links, cells)) < 0.5
    pairs_g, pairs_h = 30, 6
    g = np.zeros((cells, pairs_g))
    for p in range(pairs_g):
        a, b = rng.choice(cells, 2, replace=False)
        g[a, p], g[b, p] = -1.0, 1.0
    h = np.zeros((pairs_h, links))
    for q in range(pairs_h):
        a, b = rng.choice(links, 2, replace=False)
        h[q, a], h[q, b] = -1.0, 1.0
    return LoliIrProblem(
        observed_mask=mask,
        observed_values=np.where(mask, truth, 0.0),
        lrr_target=truth + 0.2 * rng.standard_normal(truth.shape),
        continuity_op=g,
        continuity_weights=(rng.random((links, pairs_g)) < 0.5).astype(float),
        similarity_op=h,
        similarity_weights=(rng.random((pairs_h, cells)) < 0.5).astype(float),
    )


def dense_half_step(problem, config, fixed, side):
    """One half-step solved exactly as a single dense least-squares system.

    Every objective term is a weighted residual that is linear in the
    estimate ``X̂ = L Rᵀ``, and ``design`` maps the free factor (raveled
    C-order) to ``vec(X̂)``: ``kron(I_links, R)`` for the L-step; for the
    R-step ``kron(L, I_cells)``, whose columns index ``vec(Rᵀ)``, permuted to
    index ``vec(R)``. The rows ``√λ·I``, ``√w_b·B∘(·)``, ``√μ·I``,
    ``√γ_g·W_g∘(·G)`` and ``√γ_h·W_h∘(H·)`` stack into one ``min ||A x − b||``.

    Returns the minimizing factor and the full objective there (the fixed
    factor's ``λ||·||²`` included).
    """
    links, cells = problem.shape
    k = fixed.shape[1]
    if side == "left":
        design = np.kron(np.eye(links), fixed)
    else:
        to_right = np.arange(k * cells).reshape(k, cells).T.ravel()
        design = np.kron(fixed, np.eye(cells))[:, to_right]
    rows, targets = [], []

    def add(weight, block, target):
        rows.append(np.sqrt(weight) * block)
        targets.append(np.sqrt(weight) * target)

    add(config.lam, np.eye(design.shape[1]), np.zeros(design.shape[1]))
    mask = problem.observed_mask.ravel()
    add(
        config.observed_weight,
        design * mask[:, None],
        np.where(mask, problem.observed_values.ravel(), 0.0),
    )
    if problem.lrr_target is not None:
        add(config.lrr_weight, design, problem.lrr_target.ravel())
    if problem.continuity_op is not None:
        along = np.kron(np.eye(links), problem.continuity_op.toarray().T)
        block = problem.continuity_weights.ravel()[:, None] * (along @ design)
        add(config.continuity_weight, block, np.zeros(len(block)))
    if problem.similarity_op is not None:
        across = np.kron(problem.similarity_op.toarray(), np.eye(cells))
        block = problem.similarity_weights.ravel()[:, None] * (across @ design)
        add(config.similarity_weight, block, np.zeros(len(block)))
    matrix, target = np.vstack(rows), np.concatenate(targets)
    solution = np.linalg.lstsq(matrix, target, rcond=None)[0]
    objective = float(np.sum(np.square(matrix @ solution - target)))
    objective += config.lam * float(np.sum(np.square(fixed)))
    return solution.reshape(-1, k), objective


def oracle_problems():
    smooth = make_smooth_problem()
    rng = np.random.default_rng(9)
    truth = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 15))
    return {
        "every-term": smooth,
        "no-coupling": make_problem()[1],
        "continuity-only": dataclasses.replace(
            smooth, similarity_op=None, similarity_weights=None
        ),
        "similarity-only": dataclasses.replace(
            smooth, continuity_op=None, continuity_weights=None
        ),
        # Every row of each half-step shares one k×k block.
        "fully-observed": LoliIrProblem(
            observed_mask=np.ones_like(truth, dtype=bool),
            observed_values=truth,
        ),
    }


ORACLE_PROBLEMS = oracle_problems()


class TestDenseOracle:
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_half_steps_match_dense_least_squares(self, name):
        """Each half-step's closed-form rows and preconditioned CG reach the
        exact minimizer, and the solver's objective bookkeeping scores it as
        the oracle does."""
        problem = ORACLE_PROBLEMS[name]
        config = LoliIrConfig(rank=3, cg_tol=1e-12)
        solver = LoliIrSolver(config)
        compiled = _CompiledProblem(problem, config, 3)
        links, cells = problem.shape
        rng = np.random.default_rng(5)
        left = rng.normal(size=(links, 3))
        right = rng.normal(size=(cells, 3))

        solved_left, _ = solver._solve_left(compiled, left, right)
        expected_left, objective = dense_half_step(problem, config, right, "left")
        assert np.max(np.abs(solved_left - expected_left)) <= 1e-8
        scored = solver._objective(compiled, expected_left, right)
        assert scored == pytest.approx(objective, rel=1e-10)

        solved_right, _ = solver._solve_right(compiled, left, right)
        expected_right, objective = dense_half_step(problem, config, left, "right")
        assert np.max(np.abs(solved_right - expected_right)) <= 1e-8
        scored = solver._objective(compiled, left, expected_right)
        assert scored == pytest.approx(objective, rel=1e-10)


class TestGramMethod:
    def test_acceleration_never_increases_objective(self):
        problem = make_smooth_problem(seed=11)
        result = LoliIrSolver(LoliIrConfig(rank=3, outer_iterations=25)).solve(problem)
        history = result.objective_history
        assert np.all(np.diff(history) <= 1e-9 * np.maximum(1.0, history[:-1]))

    def test_acceleration_does_not_worsen_final_objective(self, monkeypatch):
        problem = make_smooth_problem(seed=12)
        solver = LoliIrSolver(LoliIrConfig(rank=3, outer_iterations=40))
        fast = solver.solve(problem)

        def keep_the_sweep(self, compiled, older_left, older_right, *sweep):
            return sweep

        monkeypatch.setattr(LoliIrSolver, "_extrapolate", keep_the_sweep)
        plain = solver.solve(problem)
        assert fast.final_objective <= plain.final_objective * (1 + 1e-4)

    def test_convergence_history_exposed(self):
        problem = make_smooth_problem()
        result = LoliIrSolver(LoliIrConfig(rank=3)).solve(problem)
        assert result.sweep_seconds.shape == (result.iterations,)
        assert np.all(result.sweep_seconds > 0)
        assert result.inner_iterations.shape == (result.iterations,)
        assert result.solve_seconds >= float(result.sweep_seconds.sum())

    def test_closed_form_rows_report_zero_inner_iterations(self):
        _, problem = make_problem()  # no couplings ⇒ no inner CG at all
        result = LoliIrSolver(LoliIrConfig(rank=3)).solve(problem)
        assert np.all(result.inner_iterations == 0)

    def test_coupled_rows_report_inner_iterations(self):
        """Both couplings active ⇒ every sweep runs the block-Cholesky
        PCG on its coupled half-steps and counts the iterations."""
        problem = make_smooth_problem(seed=7)
        result = LoliIrSolver(LoliIrConfig(rank=3)).solve(problem)
        assert np.all(result.inner_iterations > 0)

    def test_solver_instance_keeps_no_state_between_solves(self):
        """A refresh loop reuses one solver: its second solve of a problem
        has the first one's bits."""
        problem = make_smooth_problem(seed=17)
        solver = LoliIrSolver(LoliIrConfig(rank=3))
        first = solver.solve(problem)
        second = solver.solve(problem)
        assert first.matrix.tobytes() == second.matrix.tobytes()
        assert first.iterations == second.iterations

