"""Batch/loop equivalence of the matching layer.

These tests pin the batch kernels to an explicit per-frame reference
computation (re-implementing the original loop semantics), so a regression
in the broadcasting cannot hide. The per-frame ``match`` kernel is pinned
bit for bit to ``match_batch`` by ``test_match_row_kernel.py``.
"""

import numpy as np
import pytest

import repro.core.matching as matching
from repro.core.fingerprint import FingerprintMatrix
from repro.core.matching import (
    BatchMatchResult,
    KnnMatcher,
    NearestNeighborMatcher,
    ProbabilisticMatcher,
)
from repro.core.multi_target import MultiTargetMatcher
from repro.sim.geometry import Grid, Room


@pytest.fixture()
def grid():
    return Grid(Room(3.0, 2.4), 0.6)  # 5 x 4 = 20 cells


@pytest.fixture()
def fingerprint(grid):
    rng = np.random.default_rng(7)
    values = rng.normal(-50.0, 6.0, size=(8, grid.cell_count))
    return FingerprintMatrix(values=values, empty_rss=np.full(8, -44.0))


@pytest.fixture()
def frames(fingerprint):
    rng = np.random.default_rng(11)
    return rng.normal(-50.0, 6.0, size=(40, fingerprint.link_count))


def reference_euclidean_distances(values, vector):
    deltas = values - vector[:, None]
    return np.sqrt(np.sum(deltas**2, axis=0))


class TestNearestNeighborBatch:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_batch_equals_per_frame_reference(self, fingerprint, grid, frames, metric):
        matcher = NearestNeighborMatcher(fingerprint, grid, metric=metric)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            deltas = fingerprint.values - frame[:, None]
            if metric == "euclidean":
                distances = np.sqrt(np.sum(deltas**2, axis=0))
            else:
                distances = np.sum(np.abs(deltas), axis=0)
            assert batch.cells[index] == np.argmin(distances)
            # The batch kernel computes euclidean distances via the Gram
            # expansion (BLAS matmul), so agreement is tight-tolerance
            # rather than bitwise.
            np.testing.assert_allclose(
                batch.scores[index], -distances, rtol=1e-9, atol=1e-9
            )
            center = grid.center_of(int(batch.cells[index]))
            np.testing.assert_array_equal(
                batch.positions[index], [center.x, center.y]
            )

    def test_match_is_wrapper_over_batch(self, fingerprint, grid, frames):
        matcher = NearestNeighborMatcher(fingerprint, grid)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            single = matcher.match(frame)
            assert single.cell == batch.cells[index]
            # The stacked-matmul kernel is batch-invariant: a row of a
            # batch-of-N has the batch-of-one bits.
            assert single.scores.tobytes() == batch.scores[index].tobytes()

    def test_dips_mode_batch(self, fingerprint, grid, frames):
        live_empty = fingerprint.empty_rss + 1.5
        matcher = NearestNeighborMatcher(
            fingerprint, grid, use_dips=True, live_empty_rss=live_empty
        )
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            assert matcher.match(frame).cell == batch.cells[index]

    def test_frame_shape_validated(self, fingerprint, grid, frames):
        matcher = NearestNeighborMatcher(fingerprint, grid)
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(frames[:, :-1])
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(frames[0])

    def test_chunked_scoring_identical(self, fingerprint, grid, frames, monkeypatch):
        # Manhattan is the metric that takes the chunked delta-tensor path.
        matcher = NearestNeighborMatcher(fingerprint, grid, metric="manhattan")
        full = matcher.match_batch(frames)
        # Force the blocked code path: at most ~1 frame per chunk.
        monkeypatch.setattr(matching, "_BLOCK_ELEMENTS", 1)
        chunked = matcher.match_batch(frames)
        np.testing.assert_array_equal(full.cells, chunked.cells)
        np.testing.assert_array_equal(full.scores, chunked.scores)


class TestKnnBatch:
    def test_batch_equals_per_frame_reference(self, fingerprint, grid, frames):
        matcher = KnnMatcher(fingerprint, grid, k=3)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            distances = reference_euclidean_distances(fingerprint.values, frame)
            order = np.argsort(distances)[:3]
            weights = 1.0 / (distances[order] + matcher.epsilon)
            weights = weights / weights.sum()
            xs = [grid.center_of(int(c)).x for c in order]
            ys = [grid.center_of(int(c)).y for c in order]
            assert batch.cells[index] == order[0]
            np.testing.assert_allclose(
                batch.positions[index],
                [np.dot(weights, xs), np.dot(weights, ys)],
                rtol=1e-10,
            )

    def test_k_equal_cell_count(self, fingerprint, grid, frames):
        matcher = KnnMatcher(fingerprint, grid, k=grid.cell_count)
        batch = matcher.match_batch(frames[:5])
        for index in range(5):
            distances = reference_euclidean_distances(
                fingerprint.values, frames[index]
            )
            assert batch.cells[index] == np.argmin(distances)


class TestProbabilisticBatch:
    def test_log_likelihoods_batch_matches_reference(
        self, fingerprint, grid, frames
    ):
        matcher = ProbabilisticMatcher(fingerprint, grid, sigma_db=2.5)
        batch = matcher.log_likelihoods_batch(frames)
        for index, frame in enumerate(frames):
            deltas = fingerprint.values - frame[:, None]
            reference = -0.5 * np.sum(deltas**2, axis=0) / 2.5**2
            np.testing.assert_allclose(
                batch[index], reference, rtol=1e-9, atol=1e-9
            )

    def test_posterior_batch_rows_normalized(self, fingerprint, grid, frames):
        matcher = ProbabilisticMatcher(fingerprint, grid)
        posteriors = matcher.posterior_batch(frames)
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0)
        for index, frame in enumerate(frames):
            np.testing.assert_allclose(
                posteriors[index], matcher.posterior(frame), rtol=1e-8, atol=1e-15
            )

    def test_match_batch_cells(self, fingerprint, grid, frames):
        matcher = ProbabilisticMatcher(fingerprint, grid)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            assert batch.cells[index] == matcher.match(frame).cell


class TestBatchMatchResult:
    def test_sequence_protocol(self, fingerprint, grid, frames):
        batch = NearestNeighborMatcher(fingerprint, grid).match_batch(frames)
        assert isinstance(batch, BatchMatchResult)
        assert len(batch) == len(frames)
        assert batch.frame_count == len(frames)
        collected = list(batch)
        assert len(collected) == len(frames)
        assert collected[3].cell == batch.cells[3]
        assert batch[-1].cell == batch.cells[-1]
        sliced = batch[1:4]
        assert [r.cell for r in sliced] == list(batch.cells[1:4])
        with pytest.raises(IndexError):
            batch[len(frames)]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="positions"):
            BatchMatchResult(
                cells=np.zeros(3, dtype=int),
                positions=np.zeros((2, 2)),
                scores=np.zeros((3, 5)),
            )
        with pytest.raises(ValueError, match="scores"):
            BatchMatchResult(
                cells=np.zeros(3, dtype=int),
                positions=np.zeros((3, 2)),
                scores=np.zeros((2, 5)),
            )


class TestMultiTargetBatch:
    def test_match_batch_equals_per_frame(self, fingerprint, grid, frames):
        matcher = MultiTargetMatcher(fingerprint, grid, prune_keep=8)
        results = matcher.match_batch(frames[:10])
        assert len(results) == 10
        for frame, batched in zip(frames[:10], results):
            single = matcher.match(frame)
            assert batched.count == single.count
            assert batched.cells == single.cells
            assert batched.residual == pytest.approx(single.residual)

    def test_frames_validated(self, fingerprint, grid):
        matcher = MultiTargetMatcher(fingerprint, grid)
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(np.zeros((4, 3)))

    def test_row_sweep_pair_search_matches_broadcast(
        self, fingerprint, grid, frames, monkeypatch
    ):
        import repro.core.multi_target as multi_target

        matcher = MultiTargetMatcher(fingerprint, grid, prune_keep=None)
        broadcast = [matcher.match(frame) for frame in frames[:6]]
        # Force the memory-bounded row-at-a-time path.
        monkeypatch.setattr(multi_target, "_PAIR_BLOCK_ELEMENTS", 1)
        swept = [matcher.match(frame) for frame in frames[:6]]
        for a, b in zip(broadcast, swept):
            assert a.cells == b.cells
            assert a.residual == pytest.approx(b.residual)

    def test_pruned_pair_search_matches_exhaustive(self, fingerprint, grid):
        rng = np.random.default_rng(3)
        dips = fingerprint.dips()
        frame = fingerprint.empty_rss - (
            dips[:, 4] + dips[:, 17] + rng.normal(0, 0.05, fingerprint.link_count)
        )
        exhaustive = MultiTargetMatcher(fingerprint, grid, prune_keep=None)
        assert exhaustive.match(frame).cells == (4, 17)


class TestPipelineBatch:
    def test_localize_trace_consistent_with_localize(self, paper_scenario):
        from repro.core.pipeline import TafLoc
        from repro.sim.collector import CollectionProtocol, RssCollector

        protocol = CollectionProtocol(samples_per_cell=5, empty_room_samples=8)
        system = TafLoc(RssCollector(paper_scenario, protocol, seed=1), seed=2)
        system.commission(0.0)
        trace = RssCollector(paper_scenario, protocol, seed=3).live_trace(
            0.0, [5, 20, 60, 90]
        )
        batch = system.localize_trace(trace)
        assert isinstance(batch, BatchMatchResult)
        for index in range(trace.frame_count):
            single = system.localize(trace.rss[index], 0.0)
            assert batch[index].cell == single.cell
            np.testing.assert_allclose(
                [batch[index].position.x, batch[index].position.y],
                [single.position.x, single.position.y],
                rtol=1e-9,
                atol=1e-9,
            )
        errors = system.localization_errors(trace)
        assert errors.shape == (trace.frame_count,)
        reference = [
            batch[i].position.distance_to(
                type(batch[i].position)(*trace.true_positions[i])
            )
            for i in range(trace.frame_count)
        ]
        np.testing.assert_allclose(errors, reference, rtol=1e-12)
