"""Unit tests for the continuity (G) and similarity (H) operators.

The operators hold each pair's two ends; the unit tests check their dense
form (``.toarray()``) against the paper's definitions.
"""

import numpy as np
import pytest

from repro.core.operators import (
    continuity_operator,
    masked_pair_weights,
    similarity_operator,
)
from repro.sim.deployment import build_paper_deployment
from repro.sim.geometry import Grid, Room


@pytest.fixture()
def small_grid():
    # 3 columns x 2 rows = 6 cells.
    return Grid(Room(1.8, 1.2), 0.6)


class TestContinuityOperator:
    def test_shape(self, small_grid):
        g = continuity_operator(small_grid).toarray()
        # 3x2 grid: horizontal pairs 2*2=4, vertical pairs 3*1=3 → 7 pairs.
        assert g.shape == (6, 7)

    def test_each_pair_is_a_difference(self, small_grid):
        g = continuity_operator(small_grid).toarray()
        for p in range(g.shape[1]):
            column = g[:, p]
            assert np.sum(column == 1.0) == 1
            assert np.sum(column == -1.0) == 1
            assert np.sum(column != 0.0) == 2

    def test_pairs_are_grid_neighbors(self, small_grid):
        g = continuity_operator(small_grid).toarray()
        for p in range(g.shape[1]):
            a, b = np.flatnonzero(g[:, p])
            assert b in small_grid.neighbors_of(int(a))

    def test_smooth_field_has_small_penalty(self, small_grid):
        """A linear-in-position field must have a much smaller continuity
        penalty than a random one."""
        g = continuity_operator(small_grid).toarray()
        centers = small_grid.centers()
        smooth = np.array([[c.x + c.y for c in centers]])
        rough = np.random.default_rng(0).normal(size=(1, 6)) * 3.0
        assert np.sum((smooth @ g) ** 2) < np.sum((rough @ g) ** 2)

    def test_constant_field_zero_penalty(self, small_grid):
        g = continuity_operator(small_grid).toarray()
        constant = np.full((2, 6), 7.0)
        np.testing.assert_allclose(constant @ g, 0.0, atol=1e-12)


class TestSimilarityOperator:
    def test_shape_on_paper_deployment(self):
        deployment = build_paper_deployment()
        h = similarity_operator(deployment).toarray()
        assert h.shape == (len(deployment.adjacent_link_pairs()), 10)

    def test_rows_are_differences(self):
        deployment = build_paper_deployment()
        h = similarity_operator(deployment).toarray()
        for p in range(h.shape[0]):
            row = h[p]
            assert np.sum(row == 1.0) == 1
            assert np.sum(row == -1.0) == 1

    def test_equal_links_zero_penalty(self):
        deployment = build_paper_deployment()
        h = similarity_operator(deployment).toarray()
        same = np.tile(np.linspace(-50, -40, 96), (10, 1))
        np.testing.assert_allclose(h @ same, 0.0, atol=1e-12)

    def test_custom_pairs(self):
        deployment = build_paper_deployment()
        h = similarity_operator(deployment, pairs=[(0, 3), (2, 5)]).toarray()
        assert h.shape == (2, 10)
        assert h[0, 0] == -1.0 and h[0, 3] == 1.0

    def test_invalid_pairs_rejected(self):
        deployment = build_paper_deployment()
        with pytest.raises(ValueError, match="out of range"):
            similarity_operator(deployment, pairs=[(0, 99)])

    def test_degenerate_pair_rejected(self):
        deployment = build_paper_deployment()
        with pytest.raises(ValueError, match="degenerate"):
            similarity_operator(deployment, pairs=[(0, 3), (2, 2)])


class TestMaskedPairWeights:
    def test_pair_active_only_when_both_cells_masked(self, small_grid):
        mask = np.zeros((2, 6), dtype=bool)
        mask[0, 0] = True
        mask[0, 1] = True  # cells 0-1 are horizontal neighbors
        mask[1, 0] = True  # link 1 has only cell 0 → no active pair
        g = continuity_operator(small_grid).toarray()
        pairs = continuity_operator(small_grid).pairs
        weights = masked_pair_weights(mask, pairs, axis=1)
        # Find the pair column for (0, 1).
        pair_idx = next(
            p
            for p in range(g.shape[1])
            if set(np.flatnonzero(g[:, p]).tolist()) == {0, 1}
        )
        assert weights[0, pair_idx] == 1.0
        assert weights[1, pair_idx] == 0.0
        # Self-pairs along the link axis gate exactly the mask itself.
        self_pairs = np.repeat(np.arange(mask.shape[0]), 2)
        row_mask = masked_pair_weights(mask, self_pairs, axis=0)
        np.testing.assert_array_equal(row_mask, mask.astype(float))

    def test_all_masked_gives_all_pairs(self, small_grid):
        mask = np.ones((1, 6), dtype=bool)
        pairs = continuity_operator(small_grid).pairs
        weights = masked_pair_weights(mask, pairs, axis=1)
        np.testing.assert_array_equal(weights, np.ones_like(weights))
