"""Solver modes of LoLi-IR: the Gram fast path (block-Cholesky PCG on
the coupled half-steps) vs the matrix-free CG reference, float32, and
warm-started solves."""

import numpy as np
import pytest

from repro.core.loli_ir import LoliIrConfig, LoliIrProblem, LoliIrSolver
from repro.core.reconstruction import ReconstructionConfig, Reconstructor
from repro.core.fingerprint import FingerprintMatrix
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.scenario import build_paper_scenario


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


class TestGramMethod:
    def test_method_validated(self):
        with pytest.raises(ValueError, match="method"):
            LoliIrConfig(method="newton")

    def test_matches_cg_reference_on_full_objective(self):
        """Both backends solve the same normal equations; with acceleration
        off and a tight inner tolerance they must agree to solver precision
        on a problem exercising every term (couplings included)."""
        problem = make_smooth_problem()
        kwargs = dict(rank=3, accelerate=False, cg_tol=1e-11, tol=1e-8)
        gram = LoliIrSolver(LoliIrConfig(method="gram", **kwargs)).solve(problem)
        cg = LoliIrSolver(LoliIrConfig(method="cg", **kwargs)).solve(problem)
        assert gram.iterations == cg.iterations
        np.testing.assert_allclose(gram.matrix, cg.matrix, atol=1e-6)
        assert gram.final_objective == pytest.approx(
            cg.final_objective, rel=1e-9
        )

    def test_matches_cg_without_couplings(self):
        _, problem = make_problem()
        kwargs = dict(rank=3, accelerate=False, cg_tol=1e-11, tol=1e-8)
        gram = LoliIrSolver(LoliIrConfig(method="gram", **kwargs)).solve(problem)
        cg = LoliIrSolver(LoliIrConfig(method="cg", **kwargs)).solve(problem)
        np.testing.assert_allclose(gram.matrix, cg.matrix, atol=1e-6)

    def test_uniform_rows_fast_path_exact(self):
        """Fully observed + no smoothness ⇒ every row shares one k×k system;
        the shared-factorization fast path must agree with the reference."""
        rng = np.random.default_rng(9)
        truth = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 15))
        problem = LoliIrProblem(
            observed_mask=np.ones_like(truth, dtype=bool),
            observed_values=truth,
        )
        kwargs = dict(rank=3, accelerate=False, cg_tol=1e-11, tol=1e-8)
        gram = LoliIrSolver(LoliIrConfig(method="gram", **kwargs)).solve(problem)
        cg = LoliIrSolver(LoliIrConfig(method="cg", **kwargs)).solve(problem)
        np.testing.assert_allclose(gram.matrix, cg.matrix, atol=1e-6)

    def test_acceleration_never_increases_objective(self):
        problem = make_smooth_problem(seed=11)
        result = LoliIrSolver(
            LoliIrConfig(rank=3, accelerate=True, outer_iterations=25)
        ).solve(problem)
        history = result.objective_history
        assert np.all(np.diff(history) <= 1e-9 * np.maximum(1.0, history[:-1]))

    def test_acceleration_does_not_worsen_final_objective(self):
        problem = make_smooth_problem(seed=12)
        plain = LoliIrSolver(
            LoliIrConfig(rank=3, accelerate=False, outer_iterations=40)
        ).solve(problem)
        fast = LoliIrSolver(
            LoliIrConfig(rank=3, accelerate=True, outer_iterations=40)
        ).solve(problem)
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
        result = LoliIrSolver(LoliIrConfig(rank=3, accelerate=False)).solve(problem)
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


class TestFloat32Mode:
    def test_dtype_validated(self):
        with pytest.raises(ValueError, match="dtype"):
            LoliIrConfig(dtype="float16")

    def test_float32_solution_close_to_float64(self):
        truth, problem = make_problem()
        result64 = LoliIrSolver(LoliIrConfig(rank=3)).solve(problem)
        result32 = LoliIrSolver(LoliIrConfig(rank=3, dtype="float32")).solve(problem)
        assert result32.matrix.dtype == np.float32
        np.testing.assert_allclose(
            result32.matrix, result64.matrix, atol=5e-2, rtol=5e-2
        )

    def test_float32_objective_monotone(self):
        _, problem = make_problem()
        result = LoliIrSolver(
            LoliIrConfig(rank=3, dtype="float32", outer_iterations=10)
        ).solve(problem)
        history = result.objective_history
        assert np.all(np.diff(history) <= 1e-3 * np.maximum(1.0, history[:-1]))


class TestWarmFactors:
    def test_warm_factors_reused(self):
        _, problem = make_problem()
        solver = LoliIrSolver(LoliIrConfig(rank=3))
        cold = solver.solve(problem)
        warm = solver.solve(problem, warm_factors=(cold.left, cold.right))
        # Restarting at the optimum must terminate almost immediately…
        assert warm.iterations <= 3
        # …without degrading the solution.
        assert warm.final_objective <= cold.final_objective * (1 + 1e-6)

    def test_mismatched_warm_factors_ignored(self):
        _, problem = make_problem()
        solver = LoliIrSolver(LoliIrConfig(rank=3))
        bad = (np.zeros((2, 3)), np.zeros((5, 3)))
        result = solver.solve(problem, warm_factors=bad)
        assert result.objective_history[-1] <= result.objective_history[0]

    def test_reconstructor_warm_start_quality(self):
        scenario = build_paper_scenario(seed=77)
        protocol = CollectionProtocol(samples_per_cell=5, empty_room_samples=8)
        collector = RssCollector(scenario, protocol, seed=1)
        survey = collector.collect_full_survey(0.0)
        initial = FingerprintMatrix(
            values=survey.survey.matrix, empty_rss=survey.survey.empty_rss
        )

        def run(warm_start):
            reconstructor = Reconstructor(
                scenario.deployment,
                initial,
                ReconstructionConfig(warm_start=warm_start),
                seed=2,
            )
            errors = []
            probe = RssCollector(scenario, protocol, seed=3)
            for day in (30.0, 30.25, 30.5):
                refs = probe.collect_survey(day, reconstructor.references.cells)
                empty = probe.collect_empty_room(day)
                report = reconstructor.reconstruct(
                    refs.survey.matrix, empty, day=day
                )
                truth = scenario.true_fingerprint_matrix(day)
                errors.append(
                    float(np.abs(report.fingerprint.values - truth).mean())
                )
            return errors

        cold = run(False)
        warm = run(True)
        # Warm starting must not cost reconstruction quality.
        for c, w in zip(cold, warm):
            assert w <= c + 0.25

    def test_warm_never_exceeds_cold_iterations(self):
        """Regression guard for the PR-1 warm-start pathology (warm solves
        crawling to the sweep cap while cold converged in half the sweeps).

        The probe design makes this structural: a warm solve either finishes
        in one sweep or replays the cold trajectory, so on every update of
        the incremental path its outer-iteration count is ≤ the cold one.
        """
        scenario = build_paper_scenario(seed=2016)
        protocol = CollectionProtocol(samples_per_cell=10, empty_room_samples=10)
        collector = RssCollector(scenario, protocol, seed=1)
        survey = collector.collect_full_survey(0.0)
        initial = FingerprintMatrix(
            values=survey.survey.matrix, empty_rss=survey.survey.empty_rss
        )

        def run(warm_start):
            reconstructor = Reconstructor(
                scenario.deployment,
                initial,
                ReconstructionConfig(warm_start=warm_start),
                seed=2,
            )
            probe = RssCollector(scenario, protocol, seed=3)
            iterations = []
            # The 6-hourly refresh loop the warm start is built for.
            for day in (30.0, 30.25, 30.5, 30.75):
                refs = probe.collect_survey(day, reconstructor.references.cells)
                empty = probe.collect_empty_room(day)
                report = reconstructor.reconstruct(
                    refs.survey.matrix, empty, day=day
                )
                iterations.append(report.solver_result.iterations)
            return iterations

        cold = run(False)
        warm = run(True)
        for w, c in zip(warm, cold):
            assert w <= c, f"warm {warm} exceeded cold {cold}"
