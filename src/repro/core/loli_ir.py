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

The key structural observation is that every objective term except one
decouples **row-wise** in each factor. With ``R`` fixed, link-row ``ℓ_i`` of
``L`` sees the ``k×k`` normal equations

    [λI + w_b Rᵀdiag(B_i)R + μ RᵀR + γ_g Σ_p w²_{ip} v_p v_pᵀ] ℓ_i = (rhs R)_i

with ``v_p = Rᵀ g_p``; only the similarity term couples rows of ``L``
(through ``H``), and symmetrically only the continuity term couples rows of
``R`` (through ``G``). The per-row blocks are assembled in a handful of GEMMs
over cached Gram structure, **batch last**: a ``(k*k, rows)`` stack, viewed
as ``(k, k, rows)``. When a coupling term is active, the same blocks —
augmented with the coupling's exact diagonal — become a block-Jacobi
preconditioner for a matrix-free CG on the coupled system, which converges
in a few iterations because the coupling weights (γ) are small against the
per-row curvature. The CG iterate is a ``(k, rows)`` array, so every block
product is one contiguous ``einsum`` over the rows, and the preconditioner's
block inverses come from one batched Cholesky factorization and a ``k``-step
vectorized inversion of its factor (:func:`_spd_block_inverse`): no LAPACK or
BLAS call per ``k×k`` block. The smoothness operators reach the iterate
through its flat rows, one gather per application with no transpose copy.
Without a coupling term (the objective ablations) the rows are independent
and are solved closed-form in one batched ``k×k`` dense solve.

The smoothness operators ``G``/``H`` are ±1 pair incidences held as their
pair ends (:class:`~repro.core.operators.PairOperator`): applying one is a
gather ``x[..., b] − x[..., a]``, its adjoint a gather-and-add of each
node's terms, at ``O(rows·pairs)`` each, and no update densifies them. Each
product equals, bit for bit, the same product with the operator as a
canonical CSR matrix: the sums add the same terms from 0.0 in the same
order, which keeps the solve's bits independent of the representation.

Following the paper, the factors are initialized from an SVD of a rough
completion (``X̂₀ = UΣVᵀ, L = UΣ^{1/2}, R = VΣ^{1/2}``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.completion import mean_fill
from repro.core.operators import PairOperator
from repro.util.linalg import balanced_factors, conjugate_gradient
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

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
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

    The operators may be given as :class:`PairOperator` or as dense ±1
    incidence matrices; a dense one is converted once, here.
    """

    observed_mask: np.ndarray
    observed_values: np.ndarray
    lrr_target: Optional[np.ndarray] = None
    continuity_op: Optional[PairOperator] = None
    continuity_weights: Optional[np.ndarray] = None
    similarity_op: Optional[PairOperator] = None
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
            g = _operator_input("continuity_op", self.continuity_op)
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
            self.continuity_op = _as_pairs("continuity_op", g, pair_axis=1)
            self.continuity_weights = w
        if (self.similarity_op is None) != (self.similarity_weights is None):
            raise ValueError("similarity_op and similarity_weights come together")
        if self.similarity_op is not None:
            h = _operator_input("similarity_op", self.similarity_op)
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
            self.similarity_op = _as_pairs("similarity_op", h, pair_axis=0)
            self.similarity_weights = w

    @property
    def shape(self):
        return self.observed_values.shape


def _operator_input(name: str, operator):
    """A smoothness operator as given: a :class:`PairOperator`, or a dense
    matrix checked for its shape."""
    if isinstance(operator, PairOperator):
        return operator
    return check_matrix(name, operator, allow_empty=True)


def _as_pairs(name: str, operator, pair_axis: int) -> PairOperator:
    if isinstance(operator, PairOperator):
        return operator
    return PairOperator.from_dense(name, operator, pair_axis)


def _outer_rows(matrix: np.ndarray) -> np.ndarray:
    """Flattened per-row outer products: ``(r, k) -> (r, k*k)``.

    Row ``i`` of the result is ``x_i x_iᵀ`` raveled, so a weighted sum of
    rank-one Gram blocks becomes one GEMM: ``W @ _outer_rows(X)``.
    """
    return (matrix[:, :, None] * matrix[:, None, :]).reshape(matrix.shape[0], -1)


def _block_products(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per-column ``k×k`` products, batch last: ``(k, k, n), (k, n) -> (k, n)``."""
    return np.einsum("ijn,jn->in", blocks, vectors)


def _spd_block_inverse(blocks: np.ndarray) -> np.ndarray:
    """Inverses of SPD ``k×k`` blocks, batch last: ``(k, k, n) -> (k, k, n)``.

    One batched Cholesky ``P = L Lᵀ``; then ``L⁻¹`` row by row, each row a
    vectorized forward substitution across the whole batch
    (``(L⁻¹)_i = (e_i − Σ_{j<i} L_ij (L⁻¹)_j) / L_ii``); then
    ``P⁻¹ = L⁻ᵀ L⁻¹`` in one contraction. ``k`` steps in all, none of them a
    per-block LAPACK or BLAS call. A block that is not SPD raises
    :class:`numpy.linalg.LinAlgError` from the factorization.
    """
    factor = np.linalg.cholesky(blocks.transpose(2, 0, 1))
    factor = np.ascontiguousarray(factor.transpose(1, 2, 0))
    inverse = np.zeros_like(factor)
    for i in range(factor.shape[0]):
        row = -np.einsum("jn,jmn->mn", factor[i, :i], inverse[:i])
        row[i] += 1.0
        inverse[i] = row / factor[i, i]
    return np.einsum("ian,ibn->abn", inverse, inverse)


class _PairEnds:
    """A pair operator's ends, indexed for the solver's products.

    A gather is ``x[..., b] − x[..., a]``; ``a_rows`` / ``b_rows`` offset
    the ends for each row of a flat, C-ordered ``(k, nodes)`` iterate. The
    adjoint scatter is a gather too: :func:`_node_slots` lists each node's
    pairs in pair order, slot ``j`` holding every node's ``j``-th pair and
    its sign (``+1`` at the ``b`` end, ``−1`` at the ``a`` end, ``0`` past
    the node's last pair). Summing the signed slots in order from 0.0 adds
    each node's terms as a CSR matvec does, so the sums are the same bits.
    """

    def __init__(self, operator: PairOperator, rank: int) -> None:
        self.a, self.b = operator.a, operator.b
        pairs = len(self.a)
        nodes = operator.shape[1 - operator.pair_axis]
        row = np.arange(rank)[:, None]
        self.a_rows = self.a + nodes * row
        self.b_rows = self.b + nodes * row
        self.slots, self.signs = _node_slots(self.a, self.b, nodes)
        # A slot past a node's last pair points one past the last pair: at
        # the zero row of the squared scatter's staging array, and (clipped
        # to a real pair, weighted by a 0 sign) nowhere in the scatter.
        self.slot_rows = np.minimum(self.slots, pairs - 1)[:, None, :] + pairs * row
        # The squared scatter stages its operand pair-first here; fresh
        # staging arrays cost more in page faults than the gathers.
        self._by_pair = np.zeros((pairs + 1, rank * rank))
        self._by_node = np.empty((nodes, rank * rank))

    def gather(self, by_node: np.ndarray) -> np.ndarray:
        """Per-pair differences of the rows of ``by_node``: ``(nodes, …) ->
        (P, …)``."""
        differences = by_node.take(self.b, axis=0)
        differences -= by_node.take(self.a, axis=0)
        return _signless(differences)

    def gather_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(k, nodes) -> (k, P)``, through the flat row offsets."""
        flat = rows.ravel()
        differences = flat.take(self.b_rows)
        differences -= flat.take(self.a_rows)
        return _signless(differences)

    def scatter_rows(self, values: np.ndarray) -> np.ndarray:
        """The adjoint of :meth:`gather_rows`: ``(k, P) -> (k, nodes)``."""
        terms = values.ravel().take(self.slot_rows)
        # einsum sums the slot axis in order, from a zeroed output.
        return np.einsum("jkn,jn->kn", terms, self.signs)

    def sq_rows(self, values: np.ndarray) -> np.ndarray:
        """The unsigned scatter (the squared operator): ``(k*k, P) ->
        (k*k, nodes)``.

        Pair first inside, so each slot gathers whole contiguous rows; the
        sums come back as a transposed view.
        """
        pairs = values.shape[1]
        np.copyto(self._by_pair[:pairs], values.T)
        sums = self._by_pair.take(self.slots[0], axis=0)
        for slot in self.slots[1:]:
            # mode="clip": the slots are in range by construction, and the
            # default "raise" copies ``out`` before it writes to it.
            terms = self._by_pair.take(slot, axis=0, out=self._by_node, mode="clip")
            sums += terms
        return _signless(sums).T


def _node_slots(a: np.ndarray, b: np.ndarray, nodes: int):
    """Each node's pairs in pair order, and their signs, both ``(max degree,
    nodes)``: pair ``p`` with ``+1`` where the node is its ``b`` end and
    ``−1`` where it is its ``a`` end; past the node's last pair, ``len(a)``
    with sign 0."""
    pairs = len(a)
    ends = np.stack([a, b], axis=1).ravel()  # a₀ b₀ a₁ b₁ …
    order = np.argsort(ends, kind="stable")  # by node, pair order kept
    degree = np.bincount(ends, minlength=nodes)
    level = np.arange(2 * pairs) - np.repeat(np.cumsum(degree) - degree, degree)
    slots = np.full((degree.max(), nodes), pairs)
    signs = np.zeros(slots.shape)
    slots[level, ends[order]] = order // 2
    signs[level, ends[order]] = np.where(order % 2 == 1, 1.0, -1.0)
    return slots, signs


def _signless(array: np.ndarray) -> np.ndarray:
    """``+0.0`` for ``-0.0``, in place. A CSR product sums from ``+0.0`` and
    so never returns ``-0.0``; ``x[b] − x[a]`` can, and so can a sum that
    starts from its first term. Past that, the two agree bit for bit: they
    differ only while every term so far is a zero."""
    array += 0.0
    return array


class _CompiledProblem:
    """Per-solve cache of everything the half-step solves touch repeatedly.

    The raw :class:`LoliIrProblem` holds the smoothness operators as pair
    ends, so nothing here is densified. This cache derives, once per solve:

    * each operator's :class:`_PairEnds` — its pair ends, their flat
      per-row-offset copies and each node's slots, which take a batch-last
      ``(k, rows)`` CG iterate through the operator or its adjoint, and a
      ``(k*k, P)`` block stack through its square ``G∘G`` / ``H∘H``;
    * the squared gate weights ``W²`` — the fixed quadratic structure from
      which the half-steps assemble their per-row normal-equation blocks and
      the exact diagonal of the coupling terms (for the block-Cholesky CG
      preconditioner);
    * the observation mask as a float matrix (GEMM operand for the per-row
      observed Gram ``Rᵀ diag(B_i) R``) and the right-hand-side matrix.
    """

    def __init__(
        self, problem: LoliIrProblem, config: LoliIrConfig, rank: int
    ) -> None:
        self.shape = problem.shape
        self.observed_mask = problem.observed_mask
        self.mask_float = problem.observed_mask.astype(float)
        self.observed_values = problem.observed_values

        self.lrr_target: Optional[np.ndarray] = None
        if problem.lrr_target is not None and config.lrr_weight > 0:
            self.lrr_target = problem.lrr_target

        self.continuity_weights: Optional[np.ndarray] = None
        self.continuity_weights_sq: Optional[np.ndarray] = None
        if (
            problem.continuity_op is not None
            and problem.continuity_op.shape[1] > 0  # zero pairs ⇒ zero term
            and config.continuity_weight > 0
        ):
            weights = problem.continuity_weights
            self.continuity_weights = weights
            self.continuity_weights_sq = weights * weights
            self._g = _PairEnds(problem.continuity_op, rank)

        self.similarity_weights: Optional[np.ndarray] = None
        self.similarity_weights_sq: Optional[np.ndarray] = None
        if (
            problem.similarity_op is not None
            and problem.similarity_op.shape[0] > 0  # zero pairs ⇒ zero term
            and config.similarity_weight > 0
        ):
            weights = problem.similarity_weights
            self.similarity_weights = weights
            self.similarity_weights_sq = weights * weights
            self._h = _PairEnds(problem.similarity_op, rank)

        # d(objective)/dX̂ right-hand side, computed once per solve.
        rhs = config.observed_weight * np.where(
            problem.observed_mask, problem.observed_values, 0.0
        )
        if self.lrr_target is not None:
            rhs = rhs + config.lrr_weight * self.lrr_target
        self.rhs = rhs

    # -- operator applications ----------------------------------------
    def apply_g(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix @ G`` (column differences across cell pairs)."""
        return self._g.gather(np.ascontiguousarray(matrix.T)).T

    def apply_h(self, matrix: np.ndarray) -> np.ndarray:
        """``H @ matrix`` (row differences across link pairs)."""
        return self._h.gather(matrix)

    # -- Gram-structure applications ----------------------------------
    # The coupled half-steps work batch last: an iterate is a C-ordered
    # ``(k, rows)`` array and a block stack is ``(k*k, rows)``.
    def g_gather(self, factor: np.ndarray) -> np.ndarray:
        """``Gᵀ @ factor``: per-pair differences of R-factor rows, (P, k)."""
        return self._g.gather(factor)

    def g_gather_last(self, iterate: np.ndarray) -> np.ndarray:
        """``iterate @ G``, batch last: ``(k, cells) -> (k, P)``."""
        return self._g.gather_rows(iterate)

    def g_scatter_last(self, pairs: np.ndarray) -> np.ndarray:
        """``pairs @ Gᵀ``, the adjoint scatter: ``(k, P) -> (k, cells)``."""
        return self._g.scatter_rows(pairs)

    def h_gather_last(self, iterate: np.ndarray) -> np.ndarray:
        """``iterate @ Hᵀ``, batch last: ``(k, links) -> (k, Q)``."""
        return self._h.gather_rows(iterate)

    def h_scatter_last(self, pairs: np.ndarray) -> np.ndarray:
        """``pairs @ H``, the adjoint scatter: ``(k, Q) -> (k, links)``."""
        return self._h.scatter_rows(pairs)

    def g_sq_diag(self, pair_blocks: np.ndarray) -> np.ndarray:
        """Exact cell-diagonal of the continuity coupling, batch last:
        ``S (G∘G)ᵀ`` for ``S`` of shape ``(k*k, P)``."""
        return self._g.sq_rows(pair_blocks)

    def h_sq_diag(self, pair_blocks: np.ndarray) -> np.ndarray:
        """Exact link-diagonal of the similarity coupling, batch last:
        ``S (H∘H)`` for ``S`` of shape ``(k*k, Q)``."""
        return self._h.sq_rows(pair_blocks)


class LoliIrSolver:
    """Alternating solver for :class:`LoliIrProblem` (see module docstring)."""

    def __init__(self, config: Optional[LoliIrConfig] = None) -> None:
        self.config = config if config is not None else LoliIrConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, problem: LoliIrProblem) -> LoliIrResult:
        """Run LoLi-IR to (local) convergence.

        The factors start from the LRR target where available, falling back
        to row-mean fill of the observed entries (the paper's "roughly
        reconstructed by rank-minimization" starting point).
        """
        started = time.perf_counter()
        cfg = self.config
        links, cells = problem.shape
        rank = min(cfg.rank, links, cells)
        compiled = _CompiledProblem(problem, cfg, rank)
        left, right = balanced_factors(self._initial_matrix(problem), rank)

        history: List[float] = [self._objective(compiled, left, right)]
        sweep_seconds: List[float] = []
        inner_iterations: List[int] = []
        converged = False
        iterations = 0
        # Iterate from two sweeps back — the base point of the extrapolation
        # direction (see _extrapolate for why it spans two sweeps).
        older_left: Optional[np.ndarray] = None
        older_right: Optional[np.ndarray] = None
        for iterations in range(1, cfg.outer_iterations + 1):
            sweep_started = time.perf_counter()
            new_left, new_right, inner = self._sweep(compiled, left, right)
            objective = self._objective(compiled, new_left, new_right)
            if older_left is not None:
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
        )

    # ------------------------------------------------------------------
    # objective pieces
    # ------------------------------------------------------------------
    def _objective(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> float:
        cfg = self.config
        estimate = left @ right.T

        def sumsq(array: np.ndarray) -> float:
            return float(np.sum(np.square(array)))

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

        The alternating map converges linearly with a stable contraction
        ratio (one dominant error direction), so after each sweep the solver
        probes ``x + β(x − x_older)`` for β = 1, 2, 4, … and keeps the best
        strictly-improving candidate; on the paper workload this roughly
        halves the sweeps of the hard updates. ``x_older`` is the iterate
        from *two* sweeps back, so the direction spans two applications of
        the alternating map — the squared map. That matters: L/R alternation
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
    # half-steps: closed-form k×k rows + preconditioned CG coupling
    # ------------------------------------------------------------------
    def _sweep(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        left, inner_left = self._solve_left(compiled, left, right)
        right, inner_right = self._solve_right(compiled, left, right)
        return left, right, inner_left + inner_right

    def _solve_left(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """L-step: per-link ``k×k`` normal equations; H couples link rows."""
        cfg = self.config
        links = compiled.shape[0]
        k = right.shape[1]
        right_outer = _outer_rows(right).T  # (k*k, cells)

        shared = cfg.lam * np.eye(k)
        if compiled.lrr_target is not None:
            shared = shared + cfg.lrr_weight * (right.T @ right)
        blocks = cfg.observed_weight * (right_outer @ compiled.mask_float.T)
        blocks += shared.reshape(-1, 1)
        if compiled.continuity_weights_sq is not None:
            pair_rows = compiled.g_gather(right)  # v_p = Rᵀ g_p, (P, k)
            blocks += cfg.continuity_weight * (
                _outer_rows(pair_rows).T @ compiled.continuity_weights_sq.T
            )
        rhs = right.T @ compiled.rhs.T  # (k, links)

        if compiled.similarity_weights_sq is None:
            row_blocks = blocks.reshape(k, k, links).transpose(2, 0, 1)
            return _solve_blocks(row_blocks, rhs.T), 0

        # Similarity couples link rows: S_q = Σ_j w²_{qj} r_j r_jᵀ.
        coupling = right_outer @ compiled.similarity_weights_sq.T  # (k*k, Q)
        block_stack = blocks.reshape(k, k, links)
        coupling_stack = coupling.reshape(k, k, -1)

        def operator(candidate: np.ndarray) -> np.ndarray:
            out = _block_products(block_stack, candidate)
            pairs = compiled.h_gather_last(candidate)  # (k, Q)
            weighted = _block_products(coupling_stack, pairs)
            out += cfg.similarity_weight * compiled.h_scatter_last(weighted)
            return out

        preconditioner_blocks = blocks + cfg.similarity_weight * (
            compiled.h_sq_diag(coupling)
        )
        return self._coupled_solve(
            operator, rhs, preconditioner_blocks.reshape(k, k, links), x0=left
        )

    def _solve_right(
        self, compiled: _CompiledProblem, left: np.ndarray, right: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """R-step: per-cell ``k×k`` normal equations; G couples cell rows."""
        cfg = self.config
        cells = compiled.shape[1]
        k = left.shape[1]
        left_outer = _outer_rows(left).T  # (k*k, links)

        shared = cfg.lam * np.eye(k)
        if compiled.lrr_target is not None:
            shared = shared + cfg.lrr_weight * (left.T @ left)
        blocks = cfg.observed_weight * (left_outer @ compiled.mask_float)
        blocks += shared.reshape(-1, 1)
        if compiled.similarity_weights_sq is not None:
            pair_rows = compiled.apply_h(left)  # m_q = (H L)_q, (Q, k)
            blocks += cfg.similarity_weight * (
                _outer_rows(pair_rows).T @ compiled.similarity_weights_sq
            )
        rhs = left.T @ compiled.rhs  # (k, cells)

        if compiled.continuity_weights_sq is None:
            row_blocks = blocks.reshape(k, k, cells).transpose(2, 0, 1)
            return _solve_blocks(row_blocks, rhs.T), 0

        # Continuity couples cell rows: C_p = Σ_i w²_{ip} ℓ_i ℓ_iᵀ.
        coupling = left_outer @ compiled.continuity_weights_sq  # (k*k, P)
        block_stack = blocks.reshape(k, k, cells)
        coupling_stack = coupling.reshape(k, k, -1)

        def operator(candidate: np.ndarray) -> np.ndarray:
            out = _block_products(block_stack, candidate)
            pairs = compiled.g_gather_last(candidate)  # (k, P)
            weighted = _block_products(coupling_stack, pairs)
            out += cfg.continuity_weight * compiled.g_scatter_last(weighted)
            return out

        preconditioner_blocks = blocks + cfg.continuity_weight * (
            compiled.g_sq_diag(coupling)
        )
        return self._coupled_solve(
            operator, rhs, preconditioner_blocks.reshape(k, k, cells), x0=right
        )

    def _coupled_solve(
        self,
        operator: Callable[[np.ndarray], np.ndarray],
        rhs: np.ndarray,
        preconditioner_blocks: np.ndarray,
        *,
        x0: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Block-Cholesky-preconditioned CG for a coupled half-step.

        Batch last: ``rhs`` and the iterate are ``(k, rows)``, the
        preconditioner blocks ``(k, k, rows)``. ``x0`` and the returned
        factor are the usual ``(rows, k)``.
        """
        cfg = self.config
        inverse_blocks = _spd_block_inverse(preconditioner_blocks)

        def preconditioner(residual: np.ndarray) -> np.ndarray:
            return _block_products(inverse_blocks, residual)

        result = conjugate_gradient(
            operator,
            rhs,
            x0=np.ascontiguousarray(x0.T),
            tol=cfg.cg_tol,
            max_iter=cfg.cg_max_iter,
            preconditioner=preconditioner,
        )
        return np.ascontiguousarray(result.solution.T), result.iterations

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
    """Solve the decoupled per-row ``k×k`` normal equations closed-form, in
    one batched dense call."""
    return np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
