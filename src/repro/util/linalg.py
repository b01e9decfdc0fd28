"""Dense linear-algebra helpers used by the reconstruction solvers.

Everything here is deliberately dependency-light: plain numpy plus a
hand-rolled conjugate-gradient loop that works on *any* symmetric
positive-semidefinite linear operator expressed as a Python callable, so the
LoLi-IR sub-problems never need to materialize their (huge) normal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.util.validation import check_matrix, check_positive

#: A symmetric positive-semidefinite operator acting on arrays of fixed shape.
LinearOperator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve.

    Attributes:
        solution: The approximate minimizer ``x`` of ``0.5 x'Ax - b'x``.
        iterations: Number of CG iterations actually performed.
        residual_norm: Final residual norm ``||b - Ax||``.
        converged: Whether the residual tolerance was reached.
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def conjugate_gradient(
    operator: LinearOperator,
    rhs: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    preconditioner: Optional[LinearOperator] = None,
) -> CgResult:
    """Solve ``A x = rhs`` for a symmetric PSD operator ``A``.

    ``operator`` and ``rhs`` may be matrices (the Frobenius inner product is
    used), which lets callers solve matrix-valued normal equations without
    vectorizing.

    Args:
        operator: Callable evaluating ``A @ x`` for an array shaped like
            ``rhs``. Must be symmetric positive semidefinite.
        rhs: Right-hand side.
        x0: Optional warm start (defaults to zeros).
        tol: Relative residual tolerance ``||r|| <= tol * ||rhs||``.
        max_iter: Iteration cap.
        preconditioner: Optional callable applying an SPD approximation of
            ``A⁻¹`` (e.g. inverted block-diagonal Cholesky factors). A good
            preconditioner collapses the iteration count when ``A`` is a
            strongly diagonal-dominant block system — the shape of the
            LoLi-IR half-step normal equations, where the per-row ``k×k``
            blocks carry most of the curvature and only weak smoothness
            terms couple rows. ``None`` is plain CG.

    Returns:
        A :class:`CgResult`; ``converged`` is False if the cap was hit first.
    """
    rhs = np.asarray(rhs)
    if not np.issubdtype(rhs.dtype, np.floating):
        rhs = rhs.astype(float)
    x = (
        np.zeros_like(rhs)
        if x0 is None
        else np.array(x0, dtype=rhs.dtype, copy=True)
    )
    if x.shape != rhs.shape:
        raise ValueError(f"x0 shape {x.shape} does not match rhs shape {rhs.shape}")
    check_positive("tol", tol)

    residual = rhs - operator(x)
    z = residual if preconditioner is None else preconditioner(residual)
    direction = z.copy()
    rz_old = float(np.vdot(residual, z))
    rs = float(np.vdot(residual, residual))
    rhs_norm = float(np.linalg.norm(rhs))
    threshold = tol * max(rhs_norm, 1e-30)

    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.sqrt(rs) <= threshold:
            iterations -= 1
            break
        a_direction = operator(direction)
        curvature = float(np.vdot(direction, a_direction))
        if curvature <= 0:
            # Operator is only PSD; the current direction has hit its null
            # space, so the iterate cannot improve along it.
            break
        step = rz_old / curvature
        x += step * direction
        residual -= step * a_direction
        rs = float(np.vdot(residual, residual))
        z = residual if preconditioner is None else preconditioner(residual)
        rz_new = float(np.vdot(residual, z))
        direction = z + (rz_new / rz_old) * direction
        rz_old = rz_new

    residual_norm = float(np.sqrt(rs))
    return CgResult(
        solution=x,
        iterations=iterations,
        residual_norm=residual_norm,
        converged=residual_norm <= threshold,
    )


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise soft-thresholding operator ``sign(v) * max(|v| - t, 0)``."""
    check_positive("threshold", threshold, strict=False)
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def svd_shrink(matrix: np.ndarray, threshold: float) -> Tuple[np.ndarray, int]:
    """Singular-value soft-thresholding (the proximal operator of the
    nuclear norm).

    Returns the shrunk matrix and the number of singular values that survive.
    """
    matrix = check_matrix("matrix", matrix)
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    shrunk = np.maximum(sigma - threshold, 0.0)
    rank = int(np.count_nonzero(shrunk))
    if rank == 0:
        return np.zeros_like(matrix), 0
    return (u[:, :rank] * shrunk[:rank]) @ vt[:rank], rank


def truncated_svd(matrix: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-``rank`` factors ``(U, s, Vt)`` of ``matrix``.

    ``rank`` is clipped to ``min(matrix.shape)``; singular values are returned
    unsquared so ``U * s @ Vt`` reconstructs the truncation.
    """
    matrix = check_matrix("matrix", matrix)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rank = min(rank, min(matrix.shape))
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :rank], sigma[:rank], vt[:rank]


def balanced_factors(matrix: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``matrix ~= L @ R.T`` with the singular weight shared evenly.

    The balanced split (both factors scaled by ``sqrt(sigma)``) is the
    stationary point of the Frobenius regularizer ``||L||^2 + ||R||^2`` and is
    the standard initialization for bi-factor matrix completion.
    """
    u, sigma, vt = truncated_svd(matrix, rank)
    root = np.sqrt(sigma)
    return u * root, vt.T * root


def nuclear_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False).sum())


def stable_rank(matrix: np.ndarray) -> float:
    """``||A||_F^2 / ||A||_2^2`` — a smooth proxy for numerical rank."""
    matrix = np.asarray(matrix, dtype=float)
    spectral = float(np.linalg.norm(matrix, 2))
    if spectral == 0.0:
        return 0.0
    return float(np.linalg.norm(matrix, "fro") ** 2 / spectral**2)


def effective_rank(matrix: np.ndarray, energy: float = 0.99) -> int:
    """Smallest ``k`` whose top-``k`` singular values hold ``energy`` of the
    squared spectral mass. Used to report the paper's "approximately low
    rank" property quantitatively."""
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must lie in (0, 1], got {energy}")
    sigma = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    total = float(np.sum(sigma**2))
    if total == 0.0:
        return 0
    cumulative = np.cumsum(sigma**2) / total
    return int(np.searchsorted(cumulative, energy) + 1)


def first_difference_matrix(size: int) -> np.ndarray:
    """The ``(size-1) x size`` forward-difference operator ``D``.

    ``(D @ x)[i] = x[i+1] - x[i]``; used to build the continuity/similarity
    regularizers G and H of the TafLoc objective.
    """
    if size < 2:
        raise ValueError(f"need size >= 2 to difference, got {size}")
    matrix = np.zeros((size - 1, size))
    idx = np.arange(size - 1)
    matrix[idx, idx] = -1.0
    matrix[idx, idx + 1] = 1.0
    return matrix
