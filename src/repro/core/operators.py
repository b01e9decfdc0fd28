"""Continuity (G) and similarity (H) operators (the paper's property iii).

The TafLoc objective contains two smoothness penalties on the
largely-distorted entries ``X_D``:

* ``||X_D G||_F^2`` — **continuity along a link**: within one row (one link),
  RSS at spatially neighboring locations should be close. ``G`` acts on the
  right, differencing columns; but only column pairs that are spatial
  neighbors *and* both largely distorted on that link should be penalized,
  so our ``G`` is built per deployment grid and the mask is folded in by the
  solver.
* ``||H X_D||_F^2`` — **similarity across adjacent links**: within one column
  (one location), adjacent links see similar RSS. ``H`` acts on the left,
  differencing the rows of spatially adjacent link pairs.

Both are incidence operators with one ``-1`` and one ``+1`` per pair, so
they are held as :class:`PairOperator` — the two ends of every pair, in pair
order — and a product with one is a gather (``x[..., b] − x[..., a]``) or
its adjoint scatter, never a matrix product. Call ``.toarray()`` where the
dense matrix is wanted.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.deployment import Deployment
from repro.sim.geometry import Grid


class PairOperator:
    """A ±1 pair-incidence operator, held as the two ends of each pair.

    Pair ``p`` takes ``b[p]`` (its ``+1`` end) minus ``a[p]`` (its ``-1``
    end), in the given pair order. ``pair_axis`` is the axis of ``shape``
    that runs over the pairs: 1 for ``G`` (cells × pairs, applied on the
    right), 0 for ``H`` (pairs × links, applied on the left).
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, shape: Tuple[int, int], pair_axis: int
    ) -> None:
        self.a = np.asarray(a, dtype=np.intp)
        self.b = np.asarray(b, dtype=np.intp)
        self.shape = (int(shape[0]), int(shape[1]))
        self.pair_axis = pair_axis

    @classmethod
    def from_dense(
        cls, name: str, matrix: np.ndarray, pair_axis: int
    ) -> "PairOperator":
        """The operator of a dense incidence matrix: one ``-1`` and one
        ``+1`` per pair, zeros elsewhere."""
        by_pair = matrix if pair_axis == 0 else matrix.T
        minus, plus = by_pair == -1.0, by_pair == 1.0
        if not np.all(
            (minus.sum(axis=1) == 1)
            & (plus.sum(axis=1) == 1)
            & (np.count_nonzero(by_pair, axis=1) == 2)
        ):
            raise ValueError(f"{name} must hold one -1 and one +1 per pair")
        return cls(minus.argmax(axis=1), plus.argmax(axis=1), matrix.shape, pair_axis)

    @property
    def pairs(self) -> np.ndarray:
        """``(P, 2)`` array of each pair's ``(a, b)`` ends."""
        return np.stack([self.a, self.b], axis=1)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        by_pair = dense if self.pair_axis == 0 else dense.T
        index = np.arange(len(self.a))
        by_pair[index, self.a] = -1.0
        by_pair[index, self.b] = 1.0
        return dense


def continuity_operator(grid: Grid) -> PairOperator:
    """Column-difference operator ``G`` of shape ``(cells, pairs)``.

    ``(X @ G)[:, p]`` is the RSS difference across the ``p``-th pair of
    4-adjacent grid cells. Penalizing its Frobenius norm pulls neighboring
    columns of the reconstruction together, implementing "RSS measurements at
    neighbor locations along a particular link are continuous".
    """
    pairs = _pair_array(_adjacent_cell_pairs(grid))
    return PairOperator(
        pairs[:, 0], pairs[:, 1], (grid.cell_count, len(pairs)), pair_axis=1
    )


def similarity_operator(
    deployment: Deployment,
    *,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> PairOperator:
    """Row-difference operator ``H`` of shape ``(pairs, links)``.

    ``(H @ X)[p, :]`` is the RSS difference between the ``p``-th pair of
    spatially adjacent links. Penalizing it implements "measurements at a
    specific location from adjacent links are similar". ``pairs`` overrides
    the deployment's own adjacency (useful in tests).
    """
    link_pairs = _pair_array(
        pairs if pairs is not None else deployment.adjacent_link_pairs()
    )
    bad = (link_pairs < 0) | (link_pairs >= deployment.link_count)
    bad = bad.any(axis=1) | (link_pairs[:, 0] == link_pairs[:, 1])
    if bad.any():
        pair = tuple(link_pairs[bad.argmax()].tolist())
        raise ValueError(f"link pair {pair} out of range or degenerate")
    return PairOperator(
        link_pairs[:, 0],
        link_pairs[:, 1],
        (len(link_pairs), deployment.link_count),
        pair_axis=0,
    )


def masked_pair_weights(
    mask: np.ndarray, pairs: np.ndarray, *, axis: int
) -> np.ndarray:
    """Gate weights restricting a smoothness penalty to distorted entries.

    ``pairs`` is a ``(P, 2)`` array of index pairs along ``axis`` of the
    ``(links, cells)`` distortion ``mask``: cell pairs (``axis=1``) give the
    continuity weights ``W_g`` of shape ``(links, P)``, link pairs
    (``axis=0``) the similarity weights ``W_h`` of shape ``(P, cells)``. An
    entry is 1 when *both* ends of its pair are largely distorted — only
    there does the paper's smoothness property apply. The result is
    C-contiguous float64, the layout the solver's GEMMs expect.
    """
    mask = np.asarray(mask, dtype=bool)
    pairs = _pair_array(pairs)
    both = np.take(mask, pairs[:, 0], axis=axis) & np.take(
        mask, pairs[:, 1], axis=axis
    )
    return np.ascontiguousarray(both, dtype=float)


def _pair_array(pairs) -> np.ndarray:
    return np.asarray(pairs, dtype=np.intp).reshape(-1, 2)


def _adjacent_cell_pairs(grid: Grid) -> list:
    """All unordered 4-adjacent cell pairs of the grid, (low, high) order."""
    pairs = []
    for cell in range(grid.cell_count):
        for neighbor in grid.neighbors_of(cell):
            if neighbor > cell:
                pairs.append((cell, neighbor))
    return pairs
