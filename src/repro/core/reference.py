"""Reference-location selection (the paper's property ii).

TafLoc refreshes the fingerprint database by re-measuring only ``n ≪ N``
*reference locations*. The paper selects "locations with RSS measurements
corresponding to the maximum linearly independent vectors" of the fingerprint
matrix — the classical column-subset-selection problem, for which
rank-revealing pivoted QR is the standard solution and is the default here.

Alternative strategies (greedy residual, k-means in column space, uniform
random) are provided for the ablation benchmark
``benchmarks/test_ablation_reference_selection.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_matrix


@dataclass(frozen=True)
class ReferenceSelection:
    """The outcome of a reference-location selection.

    Attributes:
        cells: Selected cell indices, in selection order.
        scores: Per-selected-cell importance score (strategy-specific;
            pivoted QR reports the magnitude of the R diagonal).
        strategy: Which selector produced this.
    """

    cells: np.ndarray
    scores: np.ndarray
    strategy: str

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=int)
        scores = np.asarray(self.scores, dtype=float)
        if cells.ndim != 1 or scores.shape != cells.shape:
            raise ValueError(
                f"cells {cells.shape} and scores {scores.shape} must be equal-length "
                "1-D arrays"
            )
        if len(np.unique(cells)) != len(cells):
            raise ValueError("selected cells contain duplicates")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "scores", scores)

    @property
    def count(self) -> int:
        return len(self.cells)


def select_references_pivoted_qr(matrix: np.ndarray, count: int) -> ReferenceSelection:
    """Column subset selection via rank-revealing QR with column pivoting.

    The first ``count`` pivot columns of QR-with-pivoting are a numerically
    robust realization of "the maximum linearly independent vectors" of the
    matrix: each pivot is the column with the largest residual norm once the
    previously chosen columns are projected out.

    At most ``rank(matrix)`` pivots carry information — at most one per
    link. When ``count`` exceeds that (10 references on a 5-link
    ``square-6m`` site), the remaining cells are whatever order the pivoting
    swaps leave the unpivoted columns in (cells 5–9 there, as with LAPACK)
    and score ``0.0``; they are neither chosen for independence nor spread
    over the floor.
    """
    matrix = check_matrix("matrix", matrix)
    count = _check_count(count, matrix.shape[1])
    # Centering removes the large common offset (all RSS near e.g. -45 dBm)
    # so pivoting responds to fingerprint *structure*, not the shared mean.
    centered = matrix - matrix.mean(axis=1, keepdims=True)
    pivots, diag = _pivoted_qr(centered)
    cells = pivots[:count]
    scores = np.pad(np.abs(diag), (0, max(0, count - diag.size)))[:count]
    return ReferenceSelection(cells=cells, scores=scores, strategy="pivoted_qr")


def _pivoted_qr(matrix: np.ndarray):
    """Householder QR with column pivoting: the column order and ``diag(R)``.

    A port of LAPACK's unblocked ``dlaqp2``, the path ``dgeqp3`` takes
    while ``min(rows, columns)`` is within its 32-column block size (a
    site's ``links`` is), with its column-swap bookkeeping and its rule for
    when a downdated column norm is recomputed (``tol3z``, LAPACK Working
    Note 176). After ``min(rows, columns)`` steps the remaining columns stay
    in the order the swaps left them.
    """
    a = np.array(matrix, dtype=float)
    rows, columns = a.shape
    order = np.arange(columns)
    norms = np.linalg.norm(a, axis=0)
    exact = norms.copy()  # each norm when last computed in full
    tol3z = np.sqrt(np.finfo(float).eps)
    diag = np.zeros(min(rows, columns))
    for i in range(diag.size):
        pivot = i + int(np.argmax(norms[i:]))
        if pivot != i:
            a[:, [i, pivot]] = a[:, [pivot, i]]
            order[[i, pivot]] = order[[pivot, i]]
            norms[pivot], exact[pivot] = norms[i], exact[i]
        # Reflector H = I − τ v vᵀ taking a[i:, i] to (β, 0, …, 0).
        alpha, tail = a[i, i], a[i + 1 :, i]
        tail_norm = np.linalg.norm(tail)
        diag[i] = alpha
        if tail_norm > 0.0:
            beta = -np.copysign(np.hypot(alpha, tail_norm), alpha)
            v = np.concatenate(([1.0], tail / (alpha - beta)))
            rest = a[i:, i + 1 :]
            rest -= ((beta - alpha) / beta) * np.outer(v, v @ rest)
            diag[i] = beta
        # Downdate the remaining norms; recompute the ones that lost too much.
        live = i + 1 + np.flatnonzero(norms[i + 1 :])
        ratio = np.maximum(1.0 - (np.abs(a[i, live]) / norms[live]) ** 2, 0.0)
        stale = ratio * (norms[live] / exact[live]) ** 2 <= tol3z
        norms[live] *= np.sqrt(ratio)
        redo = live[stale]
        norms[redo] = np.linalg.norm(a[i + 1 :, redo], axis=0)
        exact[redo] = norms[redo]
    return order, diag


def select_references_greedy(matrix: np.ndarray, count: int) -> ReferenceSelection:
    """Greedy column selection by maximum residual after projection.

    The same criterion as pivoted QR up to the matrix's numerical rank,
    implemented as an explicit greedy loop; kept as an independently coded
    cross-check (the ablation test asserts the two agree on easy instances)
    and as a template for custom scoring rules. It stops at the numerical
    rank, so where ``count`` exceeds it, it returns fewer cells than asked,
    and pivoted QR's leftover cells have no greedy counterpart.
    """
    matrix = check_matrix("matrix", matrix)
    count = _check_count(count, matrix.shape[1])
    residual = matrix - matrix.mean(axis=1, keepdims=True)
    floor = 1e-9 * max(float(np.linalg.norm(residual)), 1.0)
    chosen: list[int] = []
    scores: list[float] = []
    for _ in range(count):
        norms = np.linalg.norm(residual, axis=0)
        norms[chosen] = -1.0
        pick = int(np.argmax(norms))
        norm = float(norms[pick])
        if norm <= floor:
            # Remaining columns are numerically dependent on the chosen set.
            break
        chosen.append(pick)
        scores.append(norm)
        direction = residual[:, pick] / norm
        residual = residual - np.outer(direction, direction @ residual)
    return ReferenceSelection(
        cells=np.array(chosen), scores=np.array(scores), strategy="greedy"
    )


def select_references_kmeans(
    matrix: np.ndarray, count: int, *, seed: RandomState = 0, iterations: int = 50
) -> ReferenceSelection:
    """Cluster columns with k-means and pick the column nearest each centroid.

    Spreads references across distinct fingerprint "shapes" rather than
    maximizing independence; competitive when noise dominates.
    """
    matrix = check_matrix("matrix", matrix)
    count = _check_count(count, matrix.shape[1])
    rng = as_generator(seed)
    columns = matrix.T  # observations are columns of the fingerprint matrix
    n = columns.shape[0]
    centroids = columns[rng.choice(n, size=count, replace=False)]
    assignment = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(columns[:, None, :] - centroids[None, :, :], axis=2)
        new_assignment = np.argmin(distances, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in range(count):
            members = columns[assignment == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
    distances = np.linalg.norm(columns[:, None, :] - centroids[None, :, :], axis=2)
    cells: list[int] = []
    scores: list[float] = []
    for k in range(count):
        order = np.argsort(distances[:, k])
        pick = next((int(i) for i in order if int(i) not in cells), None)
        if pick is None:
            continue
        cells.append(pick)
        scores.append(float(-distances[pick, k]))
    return ReferenceSelection(
        cells=np.array(cells), scores=np.array(scores), strategy="kmeans"
    )


def select_references_random(
    matrix: np.ndarray, count: int, *, seed: RandomState = 0
) -> ReferenceSelection:
    """Uniform random selection — the ablation floor."""
    matrix = check_matrix("matrix", matrix)
    count = _check_count(count, matrix.shape[1])
    rng = as_generator(seed)
    cells = rng.choice(matrix.shape[1], size=count, replace=False)
    return ReferenceSelection(
        cells=np.asarray(cells, dtype=int),
        scores=np.zeros(count),
        strategy="random",
    )


_STRATEGIES: Dict[str, Callable[..., ReferenceSelection]] = {
    "pivoted_qr": select_references_pivoted_qr,
    "greedy": select_references_greedy,
    "kmeans": select_references_kmeans,
    "random": select_references_random,
}


def select_references(
    matrix: np.ndarray,
    count: int,
    *,
    strategy: str = "pivoted_qr",
    seed: RandomState = 0,
) -> ReferenceSelection:
    """Dispatch to a named selection strategy.

    Args:
        matrix: Fingerprint matrix, shape ``(links, cells)``.
        count: Number of reference locations to pick (the paper uses 10).
        strategy: One of ``pivoted_qr`` (default, the paper's criterion),
            ``greedy``, ``kmeans``, ``random``.
        seed: Randomness for the stochastic strategies.
    """
    try:
        selector = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    if strategy in ("kmeans", "random"):
        return selector(matrix, count, seed=seed)
    return selector(matrix, count)


def _check_count(count: int, cells: int) -> int:
    if not 1 <= count <= cells:
        raise ValueError(f"count must lie in [1, {cells}], got {count}")
    return int(count)
