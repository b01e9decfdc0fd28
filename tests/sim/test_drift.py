"""Unit tests for drift processes, including the paper-anchor calibration."""

import numpy as np
import pytest

from repro.sim.drift import (
    CompositeDrift,
    EntryFieldDrift,
    GaussMarkovDrift,
    LinearDrift,
    RandomWalkDrift,
    calibrated_paper_drift,
)


class TestGaussMarkov:
    def test_zero_at_day_zero(self):
        drift = GaussMarkovDrift(links=4, seed=0)
        np.testing.assert_array_equal(drift.offsets(0.0), np.zeros(4))

    def test_deterministic_queries(self):
        drift = GaussMarkovDrift(links=4, seed=0)
        np.testing.assert_array_equal(drift.offsets(10.0), drift.offsets(10.0))

    def test_out_of_order_queries_agree(self):
        a = GaussMarkovDrift(links=3, seed=1)
        b = GaussMarkovDrift(links=3, seed=1)
        first = a.offsets(30.0).copy()
        b.offsets(5.0)
        np.testing.assert_array_equal(b.offsets(30.0), first)

    def test_interpolation_between_days(self):
        drift = GaussMarkovDrift(links=2, seed=2)
        lo, hi = drift.offsets(3.0), drift.offsets(4.0)
        mid = drift.offsets(3.5)
        np.testing.assert_allclose(mid, 0.5 * (lo + hi))

    def test_horizon_enforced(self):
        drift = GaussMarkovDrift(links=2, horizon_days=10, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            drift.offsets(11.0)

    def test_negative_day_rejected(self):
        drift = GaussMarkovDrift(links=2, seed=0)
        with pytest.raises(ValueError):
            drift.offsets(-1.0)

    def test_magnitude_grows_then_saturates(self):
        """Ensemble |drift| grows with day and saturates (mean reversion)."""
        gaps = (2.0, 10.0, 60.0, 300.0)
        means = {g: [] for g in gaps}
        for seed in range(30):
            drift = GaussMarkovDrift(links=6, seed=seed)
            for g in gaps:
                means[g].append(np.abs(drift.offsets(g)).mean())
        averaged = [np.mean(means[g]) for g in gaps]
        assert averaged[0] < averaged[1] < averaged[2]
        # Saturation: growth from 60 to 300 days is modest.
        assert averaged[3] < 2.0 * averaged[2]

    @pytest.mark.parametrize("kwargs", [
        {"links": 0},
        {"links": 2, "rho": 1.0},
        {"links": 2, "link_correlation": 1.5},
        {"links": 2, "horizon_days": 0},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            GaussMarkovDrift(**kwargs)


class TestPaperCalibration:
    def test_anchor_magnitudes(self):
        """The paper: RSS changes ~2.5 dBm after 5 days, ~6 dBm after 45.

        Ensemble means must land within a tolerant band of those anchors.
        """
        five, forty_five = [], []
        for seed in range(40):
            drift = calibrated_paper_drift(10, seed=seed)
            five.append(np.abs(drift.offsets(5.0)).mean())
            forty_five.append(np.abs(drift.offsets(45.0)).mean())
        assert np.mean(five) == pytest.approx(2.5, abs=1.0)
        assert np.mean(forty_five) == pytest.approx(6.0, abs=2.0)

    def test_growth_ordering(self):
        values = []
        for seed in range(20):
            drift = calibrated_paper_drift(10, seed=seed)
            values.append(
                [np.abs(drift.offsets(d)).mean() for d in (5.0, 45.0)]
            )
        means = np.mean(values, axis=0)
        assert means[1] > means[0]


class TestRandomWalk:
    def test_grows_without_saturation(self):
        gaps = (10.0, 40.0, 160.0)
        means = {g: [] for g in gaps}
        for seed in range(30):
            drift = RandomWalkDrift(links=4, horizon_days=200, seed=seed)
            for g in gaps:
                means[g].append(np.abs(drift.offsets(g)).mean())
        averaged = [np.mean(means[g]) for g in gaps]
        assert averaged[0] < averaged[1] < averaged[2]
        # sqrt growth: quadrupling the gap roughly doubles the magnitude.
        assert averaged[2] / averaged[1] == pytest.approx(2.0, rel=0.5)

    def test_zero_at_origin(self):
        drift = RandomWalkDrift(links=3, seed=0)
        np.testing.assert_array_equal(drift.offsets(0.0), np.zeros(3))


class TestLinearDrift:
    def test_exact_values(self):
        drift = LinearDrift(links=3, slope_db_per_day=0.5)
        np.testing.assert_allclose(drift.offsets(4.0), np.full(3, 2.0))

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            LinearDrift(links=1).offsets(-0.1)


class TestCompositeDrift:
    def test_sums_components(self):
        combined = CompositeDrift(
            components=[
                LinearDrift(links=2, slope_db_per_day=1.0),
                LinearDrift(links=2, slope_db_per_day=0.5),
            ]
        )
        np.testing.assert_allclose(combined.offsets(2.0), np.full(2, 3.0))

    def test_link_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            CompositeDrift(
                components=[LinearDrift(links=2), LinearDrift(links=3)]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeDrift(components=[])


class TestEntryFieldDrift:
    def test_zero_at_day_zero(self):
        drift = EntryFieldDrift(links=3, cells=8, seed=0)
        np.testing.assert_array_equal(drift.offsets(0.0), np.zeros((3, 8)))

    def test_shape(self):
        drift = EntryFieldDrift(links=3, cells=8, seed=0)
        assert drift.offsets(5.0).shape == (3, 8)

    def test_query_order_invariance(self):
        a = EntryFieldDrift(links=2, cells=4, seed=3)
        b = EntryFieldDrift(links=2, cells=4, seed=3)
        target = a.offsets(20.0).copy()
        b.offsets(7.0)
        b.offsets(33.0)
        np.testing.assert_array_equal(b.offsets(20.0), target)

    def test_interpolation(self):
        drift = EntryFieldDrift(links=2, cells=4, seed=1)
        lo, hi = drift.offsets(2.0), drift.offsets(3.0)
        np.testing.assert_allclose(drift.offsets(2.25), 0.75 * lo + 0.25 * hi)

    def test_fast_component_saturates_quickly(self):
        magnitudes = []
        for seed in range(20):
            drift = EntryFieldDrift(
                links=4, cells=10, slow_stat_std=0.0, seed=seed
            )
            magnitudes.append(
                [np.abs(drift.offsets(d)).mean() for d in (3.0, 30.0)]
            )
        means = np.mean(magnitudes, axis=0)
        # Fast component (rho=0.6) is essentially stationary by day 3.
        assert means[1] == pytest.approx(means[0], rel=0.2)

    def test_slow_component_keeps_growing(self):
        magnitudes = []
        for seed in range(20):
            drift = EntryFieldDrift(
                links=4, cells=10, fast_stat_std=0.0, seed=seed
            )
            magnitudes.append(
                [np.abs(drift.offsets(d)).mean() for d in (5.0, 90.0)]
            )
        means = np.mean(magnitudes, axis=0)
        assert means[1] > 2.0 * means[0]

    def test_smooth_innovations_are_spatially_correlated(self):
        rough = EntryFieldDrift(links=1, cells=64, seed=5)
        smooth = EntryFieldDrift(
            links=1, cells=64, grid_rows=8, grid_columns=8, seed=5
        )

        def neighbor_corr(field):
            grid = field.reshape(8, 8)
            a = grid[:, :-1].ravel()
            b = grid[:, 1:].ravel()
            return np.corrcoef(a, b)[0, 1]

        # Compare the slow components at a long horizon: simulating up to
        # day 60 leaves the AR(1) state of day 60 in ``_slow``.
        rough.offsets(60.0)
        smooth.offsets(60.0)
        assert neighbor_corr(smooth._slow[0]) > neighbor_corr(rough._slow[0]) + 0.2

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not tile"):
            EntryFieldDrift(links=2, cells=10, grid_rows=3, grid_columns=4)

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            EntryFieldDrift(links=1, cells=1).offsets(-2.0)
