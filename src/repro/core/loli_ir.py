"""LoLi-IR: the alternating solver for the TafLoc objective.

The paper reconstructs the fingerprint matrix as a rank-``k`` factorization
``X̂ = L Rᵀ`` minimizing::

    f(L, R) = λ (||L||_F² + ||R||_F²)                (factored rank surrogate)
            + w_b ||B ∘ (L Rᵀ) − X_I||_F²            (known undistorted entries)
            + μ   ||L Rᵀ − X_R Z||_F²                (low-rank representation)
            + γ_g ||W_g ∘ ((L Rᵀ) G)||_F²            (continuity along links)
            + γ_h ||W_h ∘ (H (L Rᵀ))||_F²            (similarity across links)

``λ(||L||² + ||R||²)`` is the standard factored surrogate of the nuclear norm
(rank minimization), so all five paper terms appear literally. The problem is
non-convex jointly but convex in each factor, so LoLi-IR alternates between
exact solves of the two convex sub-problems; the objective is monotonically
non-increasing — asserted by the unit tests.

Two half-step backends are available (``LoliIrConfig.method``):

* ``"gram"`` (default) — the key structural observation is that every
  objective term except one decouples **row-wise** in each factor. With ``R``
  fixed, link-row ``ℓ_i`` of ``L`` sees the ``k×k`` normal equations

      [λI + w_b Rᵀdiag(B_i)R + μ RᵀR + γ_g Σ_p w²_{ip} v_p v_pᵀ] ℓ_i = (rhs R)_i

  with ``v_p = Rᵀ g_p``; only the similarity term couples rows of ``L``
  (through ``H``), and symmetrically only the continuity term couples rows of
  ``R`` (through ``G``). The per-row blocks are assembled in a handful of
  GEMMs over cached Gram structure and solved closed-form in one batched
  ``k×k`` dense solve (collapsing to a *single* shared factorization when the
  rows are uniform). When a coupling term is active, the same blocks —
  augmented with the coupling's exact diagonal — become a block-Cholesky
  preconditioner for a matrix-free CG on the coupled system, which converges
  in a few iterations because the coupling weights (γ) are small against the
  per-row curvature.

  The smoothness operators ``G``/``H`` stay ``scipy.sparse`` CSR throughout:
  an application costs ``O(links·pairs)``, and no update densifies them.

* ``"cg"`` — the original matrix-free conjugate-gradient solve of each
  half-step, kept as the reference implementation for cross-validation and
  for benchmarking the fast path's speedup.

Following the paper, the factors are initialized from an SVD of a rough
completion (``X̂₀ = UΣVᵀ, L = UΣ^{1/2}, R = VΣ^{1/2}``). When a caller
supplies ``warm_factors`` from a previous related solve, the solver runs a
one-sweep probe from the observation-refreshed warm start and accepts it only
if that sweep already converges; otherwise it falls back to the cold
trajectory, so a warm solve provably never takes more outer iterations than a
cold one (see :meth:`LoliIrSolver.solve`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array, issparse

from repro.core.completion import mean_fill
from repro.util.linalg import (
    balanced_factors,
    conjugate_gradient,
    preconditioned_conjugate_gradient,
)
from repro.util.validation import check_matrix, check_positive


@dataclass(frozen=True)
class LoliIrConfig:
    """Hyper-parameters of the LoLi-IR solve.

    The poster does not publish values; these defaults were chosen by the
    ablation benchmarks (see EXPERIMENTS.md) and are stable across the
    deployment sizes used in the paper's figures.

    Attributes:
        rank: Factorization rank ``k``.
        lam: Weight λ of the Frobenius (rank-surrogate) term.
        observed_weight: Weight on the known undistorted entries (``w_b``).
        lrr_weight: Weight μ of the low-rank-representation anchor term.
        continuity_weight: Weight γ_g of the along-link continuity term.
        similarity_weight: Weight γ_h of the across-link similarity term.
        outer_iterations: Number of (L-step, R-step) sweeps.
        tol: Relative objective-decrease tolerance for early stopping.
        cg_tol / cg_max_iter: Inner (preconditioned) CG controls. The inner
            solves may be truncated freely: CG started from the current
            iterate never increases its quadratic, which *is* the full
            objective restricted to that factor, so outer monotonicity holds
            at any inner tolerance.
        method: Half-step backend: ``"gram"`` (precomputed Gram structure,
            closed-form ``k×k`` solves, block-Cholesky-preconditioned CG
            for the coupled half-steps — continuity couples the R-step's
            cell rows, similarity the L-step's link rows) or ``"cg"`` (the
            original matrix-free CG reference).
        accelerate: Safeguarded extrapolation of the outer loop. The
            alternating map converges linearly with a stable contraction
            ratio (one dominant error direction), so after each sweep the
            solver probes steps ``x + β(x − x_prev)`` for doubling ``β`` and
            keeps the best strictly-improving candidate. The safeguard
            (accept only on objective decrease) preserves monotonicity by
            construction; on the paper workload it roughly halves the sweeps
            of the hard updates.
        dtype: Arithmetic precision of the solve: ``"float64"`` (default) or
            ``"float32"``. Single precision halves memory traffic — worthwhile
            on large deployments — at the cost of a coarser attainable
            tolerance; the objective bookkeeping always accumulates in
            float64.
    """

    rank: int = 6
    lam: float = 1e-2
    observed_weight: float = 1.0
    lrr_weight: float = 1.0
    continuity_weight: float = 0.3
    similarity_weight: float = 0.1
    outer_iterations: int = 30
    tol: float = 1e-6
    cg_tol: float = 1e-7
    cg_max_iter: int = 200
    method: str = "gram"
    accelerate: bool = True
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.method not in ("gram", "cg"):
            raise ValueError(f"method must be gram or cg, got {self.method!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be float32 or float64, got {self.dtype!r}"
            )
        check_positive("lam", self.lam)
        check_positive("observed_weight", self.observed_weight, strict=False)
        check_positive("lrr_weight", self.lrr_weight, strict=False)
        check_positive("continuity_weight", self.continuity_weight, strict=False)
        check_positive("similarity_weight", self.similarity_weight, strict=False)
        if self.outer_iterations < 1:
            raise ValueError(
                f"outer_iterations must be >= 1, got {self.outer_iterations}"
            )


@dataclass(frozen=True)
class LoliIrResult:
    """Outcome of a LoLi-IR solve.

    Attributes:
        matrix: The reconstruction ``L @ R.T``.
        left / right: The factors.
        objective_history: Objective value after initialization and after
            each outer sweep (non-increasing).
        iterations: Outer sweeps performed.
        converged: Whether the relative-decrease tolerance was met before the
            iteration cap.
        sweep_seconds: Wall time of each outer sweep — the per-sweep
            convergence cost that feeds the Fig. 4 true-update-cost account.
        inner_iterations: Inner CG iterations spent in each outer sweep
            (0 for sweeps solved entirely closed-form).
        solve_seconds: Total wall time of the solve, initialization included.
        warm_started: Whether the supplied warm factors were actually used
            (they are discarded when the cold initialization scores a lower
            starting objective).
    """

    matrix: np.ndarray
    left: np.ndarray
    right: np.ndarray
    objective_history: np.ndarray
    iterations: int
    converged: bool
    sweep_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    inner_iterations: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=int)
    )
    solve_seconds: float = 0.0
    warm_started: bool = False

    @property
    def final_objective(self) -> float:
        return float(self.objective_history[-1])


@dataclass
class LoliIrProblem:
    """The data of one reconstruction instance.

    Any of the optional terms may be omitted (``None`` / zero weight), which
    is how the objective-ablation benchmark switches terms off.

    Attributes:
        observed_mask: Boolean ``B``, shape ``(links, cells)``.
        observed_values: ``X_I`` with valid data where ``B`` is True.
        lrr_target: ``X_R @ Z`` transferred estimate, shape ``(links, cells)``.
        continuity_op: ``G``, shape ``(cells, pairs_g)``.
        continuity_weights: ``W_g``, shape ``(links, pairs_g)``.
        similarity_op: ``H``, shape ``(pairs_h, links)``.
        similarity_weights: ``W_h``, shape ``(pairs_h, cells)``.

    The operators may be given dense or sparse; they are stored as
    ``scipy.sparse.csr_array`` (a dense one is converted once, here).
    """

    observed_mask: np.ndarray
    observed_values: np.ndarray
    lrr_target: Optional[np.ndarray] = None
    continuity_op: Optional[csr_array] = None
    continuity_weights: Optional[np.ndarray] = None
    similarity_op: Optional[csr_array] = None
    similarity_weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        mask = np.asarray(self.observed_mask, dtype=bool)
        values = check_matrix("observed_values", self.observed_values)
        if mask.shape != values.shape:
            raise ValueError(
                f"observed_mask shape {mask.shape} does not match values "
                f"shape {values.shape}"
            )
        self.observed_mask = mask
        self.observed_values = values
        links, cells = values.shape
        if self.lrr_target is not None:
            target = check_matrix("lrr_target", self.lrr_target)
            if target.shape != values.shape:
                raise ValueError(
                    f"lrr_target shape {target.shape} must be {values.shape}"
                )
            self.lrr_target = target
        if (self.continuity_op is None) != (self.continuity_weights is None):
            raise ValueError("continuity_op and continuity_weights come together")
        if self.continuity_op is not None:
            g = _as_csr("continuity_op", self.continuity_op)
            w = check_matrix(
                "continuity_weights", self.continuity_weights, allow_empty=True
            )
            if g.shape[0] != cells:
                raise ValueError(
                    f"continuity_op has {g.shape[0]} rows, expected {cells}"
                )
            if w.shape != (links, g.shape[1]):
                raise ValueError(
                    f"continuity_weights shape {w.shape} must be "
                    f"({links}, {g.shape[1]})"
                )
            self.continuity_op = g
            self.continuity_weights = w
        if (self.similarity_op is None) != (self.similarity_weights is None):
            raise ValueError("similarity_op and similarity_weights come together")
        if self.similarity_op is not None:
            h = _as_csr("similarity_op", self.similarity_op)
            w = check_matrix(
                "similarity_weights", self.similarity_weights, allow_empty=True
            )
            if h.shape[1] != links:
                raise ValueError(
                    f"similarity_op has {h.shape[1]} columns, expected {links}"
                )
            if w.shape != (h.shape[0], cells):
                raise ValueError(
                    f"similarity_weights shape {w.shape} must be "
                    f"({h.shape[0]}, {cells})"
                )
            self.similarity_op = h
            self.similarity_weights = w

    @property
    def shape(self):
        return self.observed_values.shape


def _as_csr(name: str, operator) -> csr_array:
    """A smoothness operator as a float CSR matrix (dense input converted)."""
    if not issparse(operator):
        operator = check_matrix(name, operator, allow_empty=True)
    return csr_array(operator, dtype=float)


def _outer_rows(matrix: np.ndarray) -> np.ndarray:
    """Flattened per-row outer products: ``(r, k) -> (r, k*k)``.

    Row ``i`` of the result is ``x_i x_iᵀ`` raveled, so a weighted sum of
    rank-one Gram blocks becomes one GEMM: ``W @ _outer_rows(X)``.
    """
    return (matrix[:, :, None] * matrix[:, None, :]).reshape(matrix.shape[0], -1)


class _CompiledProblem:
    """Per-solve cache of everything the half-step solves touch repeatedly.

    The raw :class:`LoliIrProblem` already holds the smoothness operators as
    CSR, so nothing here is densified. This cache derives, once per solve:

    * the CSR transposes ``Gᵀ``/``Hᵀ`` — every application of a difference
      operator costs ``O(links·pairs)``;
    * the squared operators ``G∘G`` / ``H∘H`` (CSR) and squared gate weights
      ``W²`` — the fixed quadratic structure from which the ``"gram"`` method
      assembles its per-row normal-equation blocks and the exact diagonal of
      the coupling terms (for the block-Cholesky CG preconditioner);
    * the observation mask as a float matrix (GEMM operand for the per-row
      observed Gram ``Rᵀ diag(B_i) R``) and the right-hand-side matrix.

    All arrays are cast to the configured dtype so a float32 solve never
    mixes precisions inside the hot loop.
    """

    def __init__(self, problem: LoliIrProblem, config: LoliIrConfig) -> None:
        dtype = np.dtype(config.dtype)
        self.shape = problem.shape
        self.dtype = dtype
        self.observed_mask = problem.observed_mask
        self.mask_float = problem.observed_mask.astype(dtype)
        self.observed_values = problem.observed_values.astype(dtype)
        self.observed_scaled = (
            config.observed_weight
            * np.where(problem.observed_mask, problem.observed_values, 0.0)
        ).astype(dtype)

        self.lrr_target: Optional[np.ndarray] = None
        if problem.lrr_target is not None and config.lrr_weight > 0:
            self.lrr_target = problem.lrr_target.astype(dtype)

        self.continuity_weights: Optional[np.ndarray] = None
        self.continuity_weights_sq: Optional[np.ndarray] = None
        if (
            problem.continuity_op is not None
            and problem.continuity_op.shape[1] > 0  # zero pairs ⇒ zero term
            and config.continuity_weight > 0
        ):
            weights = problem.continuity_weights.astype(dtype)
            self.continuity_weights = weights
            self.continuity_weights_sq = weights * weights
            self._g = problem.continuity_op.astype(dtype, copy=False)
            self._gt = self._g.T.tocsr()
            self._g_sq = self._g.power(2)

        self.similarity_weights: Optional[np.ndarray] = None
        self.similarity_weights_sq: Optional[np.ndarray] = None
        if (
            problem.similarity_op is not None
            and problem.similarity_op.shape[0] > 0  # zero pairs ⇒ zero term
            and config.similarity_weight > 0
        ):
            weights = problem.similarity_weights.astype(dtype)
            self.similarity_weights = weights
            self.similarity_weights_sq = weights * weights
            self._h = problem.similarity_op.astype(dtype, copy=False)
            self._ht = self._h.T.tocsr()
            self._h_sq_t = self._ht.power(2)

        # d(objective)/dX̂ right-hand side, computed once per solve.
        rhs = self.observed_scaled
        if self.lrr_target is not None:
            rhs = rhs + config.lrr_weight * self.lrr_target
        self.rhs = rhs.astype(dtype)

    # -- operator applications ----------------------------------------
    def apply_g(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix @ G`` (column differences across cell pairs)."""
        return (self._gt @ matrix.T).T

    def apply_gt(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix @ G.T`` (adjoint scatter back onto cells)."""
        return (self._g @ matrix.T).T

    def apply_h(self, matrix: np.ndarray) -> np.ndarray:
        """``H @ matrix`` (row differences across link pairs)."""
        return self._h @ matrix

    def apply_ht(self, matrix: np.ndarray) -> np.ndarray:
        """``H.T @ matrix``."""
        return self._ht @ matrix

    # -- Gram-structure applications (the "gram" method) ----------------
    def g_gather(self, factor: np.ndarray) -> np.ndarray:
        """``Gᵀ @ factor``: per-pair differences of R-factor rows, (P, k)."""
        return self._gt @ factor

    def g_scatter(self, pair_rows: np.ndarray) -> np.ndarray:
        """``G @ pair_rows``: adjoint scatter onto cell rows, (cells, k)."""
        return self._g @ pair_rows

    def g_sq_diag(self, pair_blocks: np.ndarray) -> np.ndarray:
        """Exact cell-diagonal of the continuity coupling: ``(G∘G) @ S``."""
        pairs = pair_blocks.shape[0]
        return self._g_sq @ pair_blocks.reshape(pairs, -1)

    def h_sq_diag(self, pair_blocks: np.ndarray) -> np.ndarray:
        """Exact link-diagonal of the similarity coupling: ``(H∘H)ᵀ @ S``."""
        pairs = pair_blocks.shape[0]
        return self._h_sq_t @ pair_blocks.reshape(pairs, -1)


class LoliIrSolver:
    """Alternating solver for :class:`LoliIrProblem` (see module docstring)."""

    def __init__(self, config: Optional[LoliIrConfig] = None) -> None:
        self.config = config if config is not None else LoliIrConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: LoliIrProblem,
        *,
        initial: Optional[np.ndarray] = None,
        warm_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> LoliIrResult:
        """Run LoLi-IR to (local) convergence.

        Args:
            problem: The reconstruction instance.
            initial: Optional full-matrix warm start; defaults to the LRR
                target where available, falling back to row-mean fill of the
                observed entries (the paper's "roughly reconstructed by
                rank-minimization" starting point).
            warm_factors: Optional ``(left, right)`` factors from a previous
                solve of a related instance (e.g. the previous update day).
                The solver refreshes them with this problem's observations
                and runs a one-sweep probe: if that sweep already converges,
                the solve finishes in one outer iteration; otherwise the
                probe is discarded and the solve proceeds bit-identically to
                a cold one. A warm solve therefore provably never takes more
                outer iterations than a cold solve of the same problem
                (regression-tested). Ignored when the shapes do not fit this
                problem.
        """
        started = time.perf_counter()
        cfg = self.config
        links, cells = problem.shape
        rank = min(cfg.rank, links, cells)
        compiled = _CompiledProblem(problem, cfg)

        warm_pair = None
        if warm_factors is not None and initial is None:
            warm_left, warm_right = warm_factors
            if warm_left.shape == (links, rank) and warm_right.shape == (cells, rank):
                warm_pair = (
                    np.array(warm_left, dtype=compiled.dtype, copy=True),
                    np.array(warm_right, dtype=compiled.dtype, copy=True),
                )
        start = (
            self._initial_matrix(problem)
            if initial is None
            else np.asarray(initial, dtype=float)
        )
        if start.shape != problem.shape:
            raise ValueError(
                f"initial shape {start.shape} does not match problem shape "
                f"{problem.shape}"
            )
        cold_left, cold_right = balanced_factors(start, rank)
        left = cold_left.astype(compiled.dtype)
        right = cold_right.astype(compiled.dtype)
        if warm_pair is not None:
            # Warm-start probe. Refresh the previous solution with today's
            # observations (it is stale exactly where this problem has fresh
            # data), re-factor, and run ONE probe sweep from it. Accept the
            # warm start only when that single sweep already meets the
            # convergence criterion — the near-identical-problem regime the
            # warm start is built for — in which case the solve finishes in
            # exactly one outer iteration, provably no more than any cold
            # solve (which runs at least one). Otherwise the probe is
            # discarded and the solve below is bit-identical to a cold one,
            # so a warm solve can never take more outer iterations than cold
            # (the regression guarantee that replaced the PR-1 behavior of
            # warm solves crawling to the sweep cap).
            warm_matrix = warm_pair[0] @ warm_pair[1].T
            refreshed = np.where(
                problem.observed_mask, compiled.observed_values, warm_matrix
            )
            warm_left, warm_right = balanced_factors(
                np.asarray(refreshed, dtype=float), rank
            )
            warm_left = warm_left.astype(compiled.dtype)
            warm_right = warm_right.astype(compiled.dtype)
            cold_objective = self._objective(compiled, left, right)
            warm_objective = self._objective(compiled, warm_left, warm_right)
            if warm_objective < cold_objective:
                sweep = self._sweep_gram if cfg.method == "gram" else self._sweep_cg
                probe_started = time.perf_counter()
                probe_left, probe_right, inner = sweep(
                    compiled, warm_left, warm_right
                )
                probe_objective = self._objective(
                    compiled, probe_left, probe_right
                )
                probe_seconds = time.perf_counter() - probe_started
                if warm_objective - probe_objective <= cfg.tol * max(
                    1.0, abs(warm_objective)
                ):
                    return LoliIrResult(
                        matrix=probe_left @ probe_right.T,
                        left=probe_left,
                        right=probe_right,
                        objective_history=np.array(
                            [warm_objective, probe_objective]
                        ),
                        iterations=1,
                        converged=True,
                        sweep_seconds=np.array([probe_seconds]),
                        inner_iterations=np.array([inner], dtype=int),
                        solve_seconds=time.perf_counter() - started,
                        warm_started=True,
                    )

        history: List[float] = [self._objective(compiled, left, right)]
        sweep_seconds: List[float] = []
        inner_iterations: List[int] = []
        converged = False
        iterations = 0
        # Iterate from two sweeps back — the base point of the extrapolation
        # direction (see _extrapolate for why it spans two sweeps).
        older_left: Optional[np.ndarray] = None
        older_right: Optional[np.ndarray] = None
        sweep = self._sweep_gram if cfg.method == "gram" else self._sweep_cg
        for iterations in range(1, cfg.outer_iterations + 1):
            sweep_started = time.perf_counter()
            new_left, new_right, inner = sweep(compiled, left, right)
            objective = self._objective(compiled, new_left, new_right)
            if cfg.accelerate and older_left is not None:
                new_left, new_right, objective = self._extrapolate(
                    compiled, older_left, older_right,
                    new_left, new_right, objective,
                )
            older_left, older_right = left, right
            left, right = new_left, new_right
            sweep_seconds.append(time.perf_counter() - sweep_started)
            inner_iterations.append(inner)
            history.append(objective)
            previous = history[-2]
            if previous - objective <= cfg.tol * max(1.0, abs(previous)):
                converged = True
                break

        return LoliIrResult(
            matrix=left @ right.T,
            left=left,
            right=right,
            objective_history=np.array(history),
            iterations=iterations,
            converged=converged,
            sweep_seconds=np.array(sweep_seconds),
            inner_iterations=np.array(inner_iterations, dtype=int),
            solve_seconds=time.perf_counter() - started,
            warm_started=False,
        )

    # ------------------------------------------------------------------
    # objective pieces
    # ------------------------------------------------------------------
    def _residual_operator(
        self, compiled: _CompiledProblem, estimate: np.ndarray
    ) -> np.ndarray:
        """``S(X̂)``: the PSD part of d(objective)/dX̂ (without the rhs)."""
        cfg = self.config
        out = cfg.observed_weight * np.where(compiled.observed_mask, estimate, 0.0)
        if compiled.lrr_target is not None:
            out = out + cfg.lrr_weight * estimate
        if compiled.continuity_weights is not None:
            weighted = compiled.continuity_weights * compiled.apply_g(estimate)
            out = out + cfg.continuity_weight * compiled.apply_gt(
                compiled.continuity_weights * weighted
            )
        if compiled.similarity_weights is not None:
            weighted = compiled.similarity_weights * compiled.apply_h(estimate)
            out = out + cfg.similarity_weight * compiled.apply_ht(
                compiled.similarity_weights * weighted
            )
        return out

    def _objective(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> float:
        cfg = self.config
        estimate = left @ right.T

        def sumsq(array: np.ndarray) -> float:
            # Accumulate in float64 even for float32 solves, so the
            # convergence test is not at the mercy of single-precision
            # reduction error.
            return float(np.sum(np.square(array, dtype=np.float64)))

        value = cfg.lam * (sumsq(left) + sumsq(right))
        residual = np.where(
            compiled.observed_mask, estimate - compiled.observed_values, 0.0
        )
        value += cfg.observed_weight * sumsq(residual)
        if compiled.lrr_target is not None:
            value += cfg.lrr_weight * sumsq(estimate - compiled.lrr_target)
        if compiled.continuity_weights is not None:
            value += cfg.continuity_weight * sumsq(
                compiled.continuity_weights * compiled.apply_g(estimate)
            )
        if compiled.similarity_weights is not None:
            value += cfg.similarity_weight * sumsq(
                compiled.similarity_weights * compiled.apply_h(estimate)
            )
        return value

    def _extrapolate(
        self,
        compiled: _CompiledProblem,
        previous_left: np.ndarray,
        previous_right: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        objective: float,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Greedy safeguarded extrapolation along the two-sweep direction.

        Probes ``x + β(x − x_older)`` for β = 1, 2, 4, … and keeps the best
        strictly-improving candidate. ``x_older`` is the iterate from *two*
        sweeps back, so the direction spans two applications of the
        alternating map — the squared map. That matters: L/R alternation
        introduces an odd/even zigzag in the error, and the squared-map
        direction cancels it (the single-sweep direction measurably slows
        small-link-count deployments). Rejected candidates leave the iterate
        untouched, so the objective stays monotone whatever the local
        geometry.
        """
        delta_left = left - previous_left
        delta_right = right - previous_right
        beta = 1.0
        while beta <= 1024.0:
            candidate_left = left + beta * delta_left
            candidate_right = right + beta * delta_right
            candidate = self._objective(compiled, candidate_left, candidate_right)
            if candidate >= objective:
                break
            left, right, objective = candidate_left, candidate_right, candidate
            beta *= 2.0
        return left, right, objective

    # ------------------------------------------------------------------
    # "gram" method: closed-form k×k rows + preconditioned CG coupling
    # ------------------------------------------------------------------
    def _sweep_gram(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        left, inner_left = self._solve_left_gram(compiled, left, right)
        right, inner_right = self._solve_right_gram(compiled, left, right)
        return left, right, inner_left + inner_right

    def _solve_left_gram(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """L-step: per-link ``k×k`` normal equations; H couples link rows."""
        cfg = self.config
        links = compiled.shape[0]
        k = right.shape[1]
        dtype = compiled.dtype
        right_outer = _outer_rows(right)  # (cells, k*k)

        shared = cfg.lam * np.eye(k, dtype=dtype)
        if compiled.lrr_target is not None:
            shared = shared + cfg.lrr_weight * (right.T @ right)
        blocks = cfg.observed_weight * (compiled.mask_float @ right_outer)
        blocks = blocks + shared.ravel()
        if compiled.continuity_weights_sq is not None:
            pair_rows = compiled.g_gather(right)  # v_p = Rᵀ g_p, (P, k)
            blocks = blocks + cfg.continuity_weight * (
                compiled.continuity_weights_sq @ _outer_rows(pair_rows)
            )
        blocks = blocks.reshape(links, k, k)
        rhs = compiled.rhs @ right

        if compiled.similarity_weights_sq is None:
            return _solve_blocks(blocks, rhs), 0

        # Similarity couples link rows: S_q = Σ_j w²_{qj} r_j r_jᵀ.
        coupling_blocks = (compiled.similarity_weights_sq @ right_outer).reshape(
            -1, k, k
        )

        def operator(candidate: np.ndarray) -> np.ndarray:
            out = (blocks @ candidate[:, :, None])[:, :, 0]
            pair_rows = compiled.apply_h(candidate)  # (Q, k)
            weighted = (coupling_blocks @ pair_rows[:, :, None])[:, :, 0]
            return out + cfg.similarity_weight * compiled.apply_ht(weighted)

        preconditioner_blocks = blocks + cfg.similarity_weight * (
            compiled.h_sq_diag(coupling_blocks).reshape(links, k, k)
        )
        return self._coupled_solve(operator, rhs, preconditioner_blocks, x0=left)

    def _solve_right_gram(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """R-step: per-cell ``k×k`` normal equations; G couples cell rows."""
        cfg = self.config
        cells = compiled.shape[1]
        k = left.shape[1]
        dtype = compiled.dtype
        left_outer = _outer_rows(left)  # (links, k*k)

        shared = cfg.lam * np.eye(k, dtype=dtype)
        if compiled.lrr_target is not None:
            shared = shared + cfg.lrr_weight * (left.T @ left)
        blocks = cfg.observed_weight * (compiled.mask_float.T @ left_outer)
        blocks = blocks + shared.ravel()
        if compiled.similarity_weights_sq is not None:
            pair_rows = compiled.apply_h(left)  # m_q = (H L)_q, (Q, k)
            blocks = blocks + cfg.similarity_weight * (
                compiled.similarity_weights_sq.T @ _outer_rows(pair_rows)
            )
        blocks = blocks.reshape(cells, k, k)
        rhs = compiled.rhs.T @ left

        if compiled.continuity_weights_sq is None:
            return _solve_blocks(blocks, rhs), 0

        # Continuity couples cell rows: C_p = Σ_i w²_{ip} ℓ_i ℓ_iᵀ.
        coupling_blocks = (compiled.continuity_weights_sq.T @ left_outer).reshape(
            -1, k, k
        )

        def operator(candidate: np.ndarray) -> np.ndarray:
            out = (blocks @ candidate[:, :, None])[:, :, 0]
            pair_rows = compiled.g_gather(candidate)  # (P, k)
            weighted = (coupling_blocks @ pair_rows[:, :, None])[:, :, 0]
            return out + cfg.continuity_weight * compiled.g_scatter(weighted)

        preconditioner_blocks = blocks + cfg.continuity_weight * (
            compiled.g_sq_diag(coupling_blocks).reshape(cells, k, k)
        )
        return self._coupled_solve(operator, rhs, preconditioner_blocks, x0=right)

    def _inner_tol(self, rhs: np.ndarray) -> float:
        """Inner tolerance, clamped to the precision floor: float32 cannot
        reach the float64 default, so stop there instead of spinning."""
        return max(self.config.cg_tol, 10.0 * float(np.finfo(rhs.dtype).eps))

    def _coupled_solve(
        self,
        operator: Callable[[np.ndarray], np.ndarray],
        rhs: np.ndarray,
        preconditioner_blocks: np.ndarray,
        *,
        x0: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Block-Cholesky-preconditioned CG for a coupled half-step."""
        cfg = self.config
        chol = np.linalg.cholesky(preconditioner_blocks)
        chol_inv = np.linalg.inv(chol)  # P⁻¹ = L⁻ᵀ L⁻¹ per block
        inv_blocks = chol_inv.transpose(0, 2, 1) @ chol_inv

        def preconditioner(residual: np.ndarray) -> np.ndarray:
            return (inv_blocks @ residual[:, :, None])[:, :, 0]

        tol = self._inner_tol(rhs)
        result = preconditioned_conjugate_gradient(
            operator,
            rhs,
            preconditioner=preconditioner,
            x0=x0,
            tol=tol,
            max_iter=cfg.cg_max_iter,
        )
        return result.solution, result.iterations

    # ------------------------------------------------------------------
    # "cg" method: the original matrix-free half-steps (reference)
    # ------------------------------------------------------------------
    def _sweep_cg(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        cfg = self.config

        def left_operator(candidate: np.ndarray) -> np.ndarray:
            return cfg.lam * candidate + self._residual_operator(
                compiled, candidate @ right.T
            ) @ right

        left_result = conjugate_gradient(
            left_operator,
            compiled.rhs @ right,
            x0=left,
            tol=cfg.cg_tol,
            max_iter=cfg.cg_max_iter,
        )
        left = left_result.solution

        def right_operator(candidate: np.ndarray) -> np.ndarray:
            return cfg.lam * candidate + self._residual_operator(
                compiled, left @ candidate.T
            ).T @ left

        right_result = conjugate_gradient(
            right_operator,
            compiled.rhs.T @ left,
            x0=right,
            tol=cfg.cg_tol,
            max_iter=cfg.cg_max_iter,
        )
        return left, right_result.solution, (
            left_result.iterations + right_result.iterations
        )

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _initial_matrix(self, problem: LoliIrProblem) -> np.ndarray:
        if problem.lrr_target is not None:
            start = np.array(problem.lrr_target, copy=True)
            start[problem.observed_mask] = problem.observed_values[
                problem.observed_mask
            ]
            return start
        return mean_fill(problem.observed_values, problem.observed_mask)


def _solve_blocks(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the decoupled per-row ``k×k`` normal equations closed-form.

    When every row shares the same block — uniform observation weighting and
    uniform (or absent) smoothness gates — one factorization serves all rows;
    otherwise the systems are solved in a single batched dense call.
    """
    if len(blocks) > 1 and np.array_equiv(blocks, blocks[0]):
        return np.linalg.solve(blocks[0], rhs.T).T
    return np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
