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

Both are incidence matrices with two nonzeros per pair, so they are built
directly as canonical ``scipy.sparse.csr_array`` matrices — sorted indices,
no duplicates, the same ``indptr``/``indices``/``data`` as ``csr_array`` of
the dense definition — and stay sparse through the solve. Call
``.toarray()`` where dense math is wanted.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_array

from repro.sim.deployment import Deployment
from repro.sim.geometry import Grid


def continuity_operator(grid: Grid) -> csr_array:
    """Column-difference operator ``G`` of shape ``(cells, pairs)``.

    ``(X @ G)[:, p]`` is the RSS difference across the ``p``-th pair of
    4-adjacent grid cells. Penalizing its Frobenius norm pulls neighboring
    columns of the reconstruction together, implementing "RSS measurements at
    neighbor locations along a particular link are continuous".
    """
    pairs = _pair_array(_adjacent_cell_pairs(grid))
    index, ends, data = _incidence_entries(pairs)
    return csr_array((data, (ends, index)), shape=(grid.cell_count, len(pairs)))


def similarity_operator(
    deployment: Deployment,
    *,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> csr_array:
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
    index, ends, data = _incidence_entries(link_pairs)
    return csr_array(
        (data, (index, ends)), shape=(len(link_pairs), deployment.link_count)
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
    # int32 indices: the index dtype csr_array picks for a dense matrix.
    return np.asarray(pairs, dtype=np.int32).reshape(-1, 2)


def _incidence_entries(pairs: np.ndarray):
    """COO entries of a pair-incidence operator: ``-1`` at the first end and
    ``+1`` at the second end of every pair (``csr_array`` sorts them)."""
    index = np.repeat(np.arange(len(pairs), dtype=np.int32), 2)
    data = np.tile([-1.0, 1.0], len(pairs))
    return index, pairs.ravel(), data


def _adjacent_cell_pairs(grid: Grid) -> list:
    """All unordered 4-adjacent cell pairs of the grid, (low, high) order."""
    pairs = []
    for cell in range(grid.cell_count):
        for neighbor in grid.neighbors_of(cell):
            if neighbor > cell:
                pairs.append((cell, neighbor))
    return pairs
