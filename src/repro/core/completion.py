"""Plain low-rank matrix completion (the paper's property i, alone).

The paper's first observation is that the fingerprint matrix is approximately
low rank, so the masked entries can be "roughly reconstructed by
rank-minimization". These solvers implement exactly that rough baseline:

* :func:`svt_complete` — Singular Value Thresholding (Cai, Candès & Shen
  2010): iterate shrinkage of the singular values with projection onto the
  observed entries.
* :func:`soft_impute` — SoftImpute (Mazumder, Hastie & Tibshirani 2010):
  iterative fill-in with SVD shrinkage; more robust on noisy observations.

Inside TafLoc they serve two roles: initialization of the LoLi-IR factors and
the "rank-minimization only" arm of the objective ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.linalg import svd_shrink
from repro.util.validation import check_matrix, check_positive


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of a matrix-completion solve.

    Attributes:
        matrix: The completed matrix estimate.
        rank: Numerical rank of the final iterate.
        iterations: Iterations performed.
        converged: Whether the relative-change tolerance was reached.
    """

    matrix: np.ndarray
    rank: int
    iterations: int
    converged: bool


def svt_complete(
    observed: np.ndarray,
    mask: np.ndarray,
    *,
    threshold: Optional[float] = None,
    step: float = 1.9,
    max_iter: int = 2000,
    tol: float = 1e-4,
) -> CompletionResult:
    """Singular Value Thresholding on ``P_Omega(X) = P_Omega(observed)``.

    Args:
        observed: Matrix with valid values wherever ``mask`` is True.
        mask: Boolean observation mask (True = known entry).
        threshold: Singular-value shrinkage threshold; defaults to the
            classical recommendation ``5 * sqrt(m * n)`` of Cai et al.
        step: Gradient step on the dual variable.
        max_iter: Iteration cap.
        tol: Relative change in the observed-entry residual for convergence.
    """
    observed, mask = _check_inputs(observed, mask)
    check_positive("step", step)
    if threshold is None:
        threshold = 5.0 * float(np.sqrt(np.prod(observed.shape)))
    check_positive("threshold", threshold)

    dual = np.zeros_like(observed)
    estimate = np.zeros_like(observed)
    rank = 0
    observed_norm = float(np.linalg.norm(observed[mask])) or 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        estimate, rank = svd_shrink(dual, threshold)
        residual = np.where(mask, observed - estimate, 0.0)
        dual = dual + step * residual
        if float(np.linalg.norm(residual[mask])) <= tol * observed_norm:
            converged = True
            break
    return CompletionResult(
        matrix=estimate, rank=rank, iterations=iterations, converged=converged
    )


def soft_impute(
    observed: np.ndarray,
    mask: np.ndarray,
    *,
    shrinkage: Optional[float] = None,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> CompletionResult:
    """SoftImpute: alternate fill-in of missing entries and SVD shrinkage.

    More tolerant of observation noise than SVT because it never forces exact
    agreement on the observed entries.
    """
    observed, mask = _check_inputs(observed, mask)
    if shrinkage is None:
        # Shrink relative to the spectrum of the zero-filled observation.
        top = float(
            np.linalg.svd(np.where(mask, observed, 0.0), compute_uv=False)[0]
        )
        shrinkage = 0.05 * top
    check_positive("shrinkage", shrinkage, strict=False)

    estimate = np.zeros_like(observed)
    rank = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        filled = np.where(mask, observed, estimate)
        updated, rank = svd_shrink(filled, shrinkage)
        change = float(np.linalg.norm(updated - estimate))
        scale = float(np.linalg.norm(estimate)) or 1.0
        estimate = updated
        if change <= tol * scale:
            converged = True
            break
    return CompletionResult(
        matrix=estimate, rank=rank, iterations=iterations, converged=converged
    )


def mean_fill(observed: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill unobserved entries with their row mean (fallback/warm start).

    Rows with no observed entries fall back to the global observed mean.
    """
    observed, mask = _check_inputs(observed, mask)
    filled = np.array(observed, dtype=float, copy=True)
    any_observed = mask.any()
    global_mean = float(observed[mask].mean()) if any_observed else 0.0
    for i in range(observed.shape[0]):
        row_mask = mask[i]
        fill_value = float(observed[i, row_mask].mean()) if row_mask.any() else global_mean
        filled[i, ~row_mask] = fill_value
    return filled


def _check_inputs(observed: np.ndarray, mask: np.ndarray):
    observed = check_matrix("observed", observed)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != observed.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match observed shape {observed.shape}"
        )
    return observed, mask
