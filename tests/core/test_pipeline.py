"""Unit tests for the end-to-end TafLoc pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import TafLoc, TafLocConfig
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.scenario import build_paper_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_paper_scenario(seed=301)


@pytest.fixture()
def system(scenario):
    protocol = CollectionProtocol(samples_per_cell=5, empty_room_samples=10)
    return TafLoc(RssCollector(scenario, protocol, seed=2), TafLocConfig(), seed=3)


class TestLifecycle:
    def test_not_commissioned_guards(self, system):
        assert not system.commissioned
        with pytest.raises(RuntimeError, match="commission"):
            system.update(1.0)
        with pytest.raises(RuntimeError, match="commission"):
            system.localize(np.zeros(10), 1.0)

    def test_commission_populates_database(self, system):
        fingerprint = system.commission(0.0)
        assert system.commissioned
        assert system.database.epoch_count == 1
        assert fingerprint.source == "survey"
        assert fingerprint.shape == (10, 96)

    def test_update_appends_epoch(self, system):
        system.commission(0.0)
        report = system.update(30.0)
        assert system.database.epoch_count == 2
        assert system.database.latest().source == "reconstruction"
        assert report.day == 30.0

    def test_update_report_cost_accounting(self, system):
        system.commission(0.0)
        report = system.update(30.0)
        protocol = system.collector.protocol
        expected_update = 10 * protocol.samples_per_cell * protocol.sample_period_s
        expected_full = 96 * protocol.samples_per_cell * protocol.sample_period_s
        assert report.seconds_spent == pytest.approx(expected_update)
        assert report.full_survey_seconds == pytest.approx(expected_full)
        assert report.savings_factor == pytest.approx(9.6)

    def test_update_reports_accumulate(self, system):
        system.commission(0.0)
        system.update(10.0)
        system.update(20.0)
        assert len(system.update_reports) == 2


class TestConfig:
    def test_invalid_matcher_rejected(self):
        with pytest.raises(ValueError, match="matcher"):
            TafLocConfig(matcher="oracle")

    @pytest.mark.parametrize("matcher", ["nn", "knn", "probabilistic"])
    def test_matcher_variants_build(self, scenario, matcher):
        protocol = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
        system = TafLoc(
            RssCollector(scenario, protocol, seed=4),
            TafLocConfig(matcher=matcher),
            seed=5,
        )
        system.commission(0.0)
        built = system.matcher_for_day(0.0)
        assert built.fingerprint.day == 0.0


class TestMatcherCache:
    def test_same_day_queries_reuse_one_matcher(self, system):
        """The PR-4 bugfix: repeated same-day queries must not rebuild the
        matcher (object identity, not just equality)."""
        system.commission(0.0)
        first = system.matcher_for_day(0.0)
        assert system.matcher_for_day(0.0) is first
        assert system.matcher_for_day(15.0) is first  # same resolved epoch

    def test_update_invalidates_the_cache(self, system):
        system.commission(0.0)
        stale = system.matcher_for_day(40.0)
        system.update(30.0)
        fresh = system.matcher_for_day(40.0)
        assert fresh is not stale
        assert fresh.fingerprint.day == 30.0
        # Steady state again: the new matcher is reused.
        assert system.matcher_for_day(40.0) is fresh

    def test_epochs_cache_independently(self, system):
        system.commission(0.0)
        system.update(30.0)
        early = system.matcher_for_day(10.0)
        late = system.matcher_for_day(45.0)
        assert early is not late
        assert system.matcher_for_day(10.0) is early
        assert system.matcher_for_day(45.0) is late

    def test_cached_matcher_answers_match_fresh_build(self, system, scenario):
        system.commission(0.0)
        trace = RssCollector(scenario, seed=12).live_trace(0.0, [4, 44, 84])
        cached = system.matcher_for_day(0.0).match_batch(trace.rss)
        fresh = system._build_matcher(system.database.at(0.0)).match_batch(
            trace.rss
        )
        np.testing.assert_array_equal(cached.cells, fresh.cells)
        np.testing.assert_array_equal(cached.positions, fresh.positions)


class TestLocalization:
    def test_localize_returns_result(self, system, scenario):
        system.commission(0.0)
        live = RssCollector(scenario, seed=9).live_vector(0.0, cell=40)
        result = system.localize(live, 0.0)
        assert 0 <= result.cell < 96
        assert scenario.deployment.room.contains(result.position)

    def test_localize_uses_freshest_epoch(self, system):
        system.commission(0.0)
        system.update(30.0)
        matcher_early = system.matcher_for_day(10.0)
        matcher_late = system.matcher_for_day(45.0)
        assert matcher_early.fingerprint.day == 0.0
        assert matcher_late.fingerprint.day == 30.0

    def test_localize_trace(self, system, scenario):
        system.commission(0.0)
        trace = RssCollector(scenario, seed=10).live_trace(0.0, [5, 20, 60])
        results = system.localize_trace(trace)
        assert len(results) == 3

    def test_localize_batch_matches_trace_path(self, system, scenario):
        system.commission(0.0)
        trace = RssCollector(scenario, seed=10).live_trace(0.0, [5, 20, 60])
        from_trace = system.localize_trace(trace)
        from_batch = system.localize_batch(trace.rss, 0.0)
        np.testing.assert_array_equal(from_batch.cells, from_trace.cells)
        np.testing.assert_array_equal(
            from_batch.positions, from_trace.positions
        )

    def test_localize_batch_requires_commissioning(self, system):
        with pytest.raises(RuntimeError, match="commission"):
            system.localize_batch(np.zeros((2, 10)), 0.0)

    def test_localization_errors_reasonable_at_day_zero(self, system, scenario):
        system.commission(0.0)
        cells = list(range(0, 96, 8))
        trace = RssCollector(scenario, seed=11).live_trace(0.0, cells)
        errors = system.localization_errors(trace)
        assert errors.shape == (len(cells),)
        # Room diagonal is ~8.6 m; median error with fresh prints must be
        # far below random guessing (~3 m average).
        assert np.median(errors) < 1.5

    def test_errors_require_ground_truth(self, system, scenario):
        from repro.sim.trace import LiveTrace

        system.commission(0.0)
        bare = LiveTrace(day=0.0, rss=np.zeros((2, 10)))
        with pytest.raises(ValueError, match="ground-truth"):
            system.localization_errors(bare)


class TestUpdateImprovesLateLocalization:
    def test_reconstruction_beats_stale_at_long_gap(self, scenario):
        """The headline behaviour: at a 60-day gap, localizing against the
        reconstructed fingerprints beats localizing against the stale
        day-0 survey."""
        protocol = CollectionProtocol(samples_per_cell=5, empty_room_samples=10)
        day = 60.0
        medians = {"updated": [], "stale": []}
        for seed in (0, 1):
            updated = TafLoc(
                RssCollector(scenario, protocol, seed=20 + seed),
                TafLocConfig(),
                seed=6,
            )
            updated.commission(0.0)
            updated.update(day)
            stale = TafLoc(
                RssCollector(scenario, protocol, seed=20 + seed),
                TafLocConfig(),
                seed=6,
            )
            stale.commission(0.0)
            cells = list(range(0, 96, 4))
            trace = RssCollector(scenario, seed=40 + seed).live_trace(day, cells)
            medians["updated"].append(np.median(updated.localization_errors(trace)))
            medians["stale"].append(np.median(stale.localization_errors(trace)))
        assert np.mean(medians["updated"]) < np.mean(medians["stale"])
