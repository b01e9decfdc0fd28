"""Unit tests for reference-location selection."""

import numpy as np
import pytest
import scipy.linalg

from repro.core.reference import (
    ReferenceSelection,
    select_references,
    select_references_greedy,
    select_references_kmeans,
    select_references_pivoted_qr,
    select_references_random,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario, scenario_names

#: Every registered scenario plus the smallest and largest square sites.
QR_SITES = [*scenario_names(), "square-3m", "square-20m"]


def low_rank_matrix(links=8, cells=40, rank=4, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(links, rank)) @ rng.normal(size=(rank, cells))
    if noise:
        matrix = matrix + noise * rng.standard_normal((links, cells))
    return matrix


class TestReferenceSelection:
    def test_validates_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            ReferenceSelection(
                cells=np.array([1, 1]), scores=np.zeros(2), strategy="x"
            )

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            ReferenceSelection(
                cells=np.array([1, 2]), scores=np.zeros(3), strategy="x"
            )

    def test_count(self):
        sel = ReferenceSelection(
            cells=np.array([3, 1]), scores=np.ones(2), strategy="x"
        )
        assert sel.count == 2


class TestPivotedQr:
    def test_selects_requested_count(self):
        sel = select_references_pivoted_qr(low_rank_matrix(), 5)
        assert sel.count == 5
        assert sel.strategy == "pivoted_qr"

    def test_selection_spans_low_rank_matrix(self):
        """With rank-4 data, 4 selected columns must span the column space:
        regressing the matrix on them leaves ~zero residual."""
        matrix = low_rank_matrix(rank=4)
        sel = select_references_pivoted_qr(matrix, 4)
        reference = matrix[:, sel.cells]
        coeffs, *_ = np.linalg.lstsq(reference, matrix, rcond=None)
        residual = matrix - reference @ coeffs
        assert np.abs(residual).max() < 1e-8

    def test_beats_worst_case_random(self):
        """QR column selection yields lower projection residual than the
        worst random pick (sanity of the 'maximum linear independence'
        criterion)."""
        matrix = low_rank_matrix(rank=6, noise=0.05, seed=3)

        def residual(cells):
            ref = matrix[:, cells]
            coeffs, *_ = np.linalg.lstsq(ref, matrix, rcond=None)
            return float(np.linalg.norm(matrix - ref @ coeffs))

        qr_res = residual(select_references_pivoted_qr(matrix, 4).cells)
        worst = max(
            residual(select_references_random(matrix, 4, seed=s).cells)
            for s in range(10)
        )
        assert qr_res <= worst + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("site", QR_SITES)
    def test_matches_lapack_pivoted_qr(self, site, seed):
        """The numpy port picks LAPACK's pivots (scipy is the oracle),
        including the leftover columns past a site's rank."""
        protocol = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
        collector = RssCollector(build_scenario(site, seed=seed), protocol, seed=seed)
        matrix = collector.collect_full_survey(0.0).survey.matrix
        count = min(10, matrix.shape[1])
        centered = matrix - matrix.mean(axis=1, keepdims=True)
        _, r, pivots = scipy.linalg.qr(centered, mode="economic", pivoting=True)
        selection = select_references_pivoted_qr(matrix, count)
        np.testing.assert_array_equal(selection.cells, pivots[:count])
        diag = np.abs(np.diag(r))[:count]
        expected = np.pad(diag, (0, count - diag.size))
        np.testing.assert_allclose(selection.scores, expected, rtol=1e-9, atol=1e-9)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            select_references_pivoted_qr(low_rank_matrix(), 0)
        with pytest.raises(ValueError):
            select_references_pivoted_qr(low_rank_matrix(cells=10), 11)


class TestGreedy:
    def test_agrees_with_qr_on_easy_instance(self):
        """Within the matrix's rank, greedy max-residual and pivoted QR apply
        the same criterion; on a well-separated instance they pick the same
        set. Greedy stops at the numerical rank, so past it they differ."""
        matrix = low_rank_matrix(rank=3, seed=7)
        qr_cells = set(select_references_pivoted_qr(matrix, 3).cells.tolist())
        greedy_cells = set(select_references_greedy(matrix, 3).cells.tolist())
        assert qr_cells == greedy_cells

    def test_scores_decrease(self):
        sel = select_references_greedy(low_rank_matrix(noise=0.1), 5)
        assert all(a >= b for a, b in zip(sel.scores, sel.scores[1:]))

    def test_stops_when_matrix_exhausted(self):
        # Rank-1 centered matrix: only one meaningful direction.
        column = np.linspace(1, 2, 6)[:, None]
        weights = np.linspace(-1, 1, 8)[None, :]
        sel = select_references_greedy(column @ weights, 5)
        assert sel.count <= 2


class TestKmeans:
    def test_selects_requested_count(self):
        sel = select_references_kmeans(low_rank_matrix(noise=0.2), 5, seed=0)
        assert sel.count == 5
        assert len(set(sel.cells.tolist())) == 5

    def test_deterministic_per_seed(self):
        matrix = low_rank_matrix(noise=0.2)
        a = select_references_kmeans(matrix, 4, seed=9)
        b = select_references_kmeans(matrix, 4, seed=9)
        np.testing.assert_array_equal(a.cells, b.cells)


class TestRandom:
    def test_deterministic_per_seed(self):
        matrix = low_rank_matrix()
        a = select_references_random(matrix, 6, seed=1)
        b = select_references_random(matrix, 6, seed=1)
        np.testing.assert_array_equal(a.cells, b.cells)

    def test_within_range(self):
        sel = select_references_random(low_rank_matrix(cells=15), 10, seed=0)
        assert sel.cells.min() >= 0
        assert sel.cells.max() < 15


class TestDispatch:
    @pytest.mark.parametrize(
        "strategy", ["pivoted_qr", "greedy", "kmeans", "random"]
    )
    def test_all_strategies_dispatch(self, strategy):
        sel = select_references(low_rank_matrix(), 4, strategy=strategy)
        assert sel.count == 4
        assert sel.strategy == strategy

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            select_references(low_rank_matrix(), 4, strategy="magic")
