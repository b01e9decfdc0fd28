"""Unit tests for the localization serving front-end."""

import numpy as np
import pytest

from repro.core.pipeline import TafLoc
from repro.serve import (
    LocalizationService,
    SiteManager,
    pipeline_seed,
    reconstructor_seed,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario, get_scenario_spec

PROTOCOL = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
SITES = {"hq": "paper", "depot": "square-6m"}


@pytest.fixture(scope="module")
def service():
    return LocalizationService.from_specs(SITES, protocol=PROTOCOL, seed=7)


@pytest.fixture(scope="module")
def traces(service):
    out = {}
    for site in service.sites():
        scenario = service.pipeline(site).collector.scenario
        cells = list(range(0, scenario.deployment.cell_count, 7))
        out[site] = RssCollector(scenario, PROTOCOL, seed=40).live_trace(
            0.0, cells
        )
    return out


def direct_system(site: str) -> TafLoc:
    """A standalone TafLoc built exactly like the service builds its own."""
    spec = get_scenario_spec(SITES[site])
    system = TafLoc(
        RssCollector(
            build_scenario(spec), PROTOCOL, seed=pipeline_seed(spec, 7)
        ),
        seed=reconstructor_seed(spec, 7),
    )
    system.commission(0.0)
    return system


class TestConstruction:
    def test_manager_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            LocalizationService(SiteManager(), seed=1)

    def test_from_specs_registers_every_site(self, service):
        assert service.sites() == ["hq", "depot"]

    def test_warm_materializes(self):
        fresh = LocalizationService.from_specs(
            SITES, protocol=PROTOCOL, seed=7
        )
        assert not fresh.manager.materialized("hq")
        assert fresh.warm() == ["hq", "depot"]
        assert fresh.manager.materialized("hq")
        assert fresh.manager.materialized("depot")


class TestRouting:
    def test_multi_site_routing_bit_identical_to_direct_calls(
        self, service, traces
    ):
        """The acceptance contract: answers routed through the service
        equal direct per-site TafLoc calls, bit for bit, on every site."""
        for site in service.sites():
            direct = direct_system(site)
            served = service.query_trace(site, traces[site])
            reference = direct.localize_trace(traces[site])
            np.testing.assert_array_equal(served.cells, reference.cells)
            np.testing.assert_array_equal(
                served.positions, reference.positions
            )
            np.testing.assert_array_equal(served.scores, reference.scores)

    def test_query_batch_matches_single_queries(self, service, traces):
        """The batch kernel is batch-invariant: every row of a batch has
        the bits of the lone query of that frame."""
        trace = traces["hq"]
        batch = service.query_batch("hq", trace.rss, 0.0)
        for index in range(len(trace.rss)):
            single = service.query("hq", trace.rss[index], 0.0)
            assert single.cell == int(batch.cells[index])
            position = np.float64([single.position.x, single.position.y])
            assert position.tobytes() == batch.positions[index].tobytes()
            assert single.scores.tobytes() == batch.scores[index].tobytes()

    def test_sites_route_to_their_own_fingerprints(self, service):
        hq = service.pipeline("hq")
        depot = service.pipeline("depot")
        assert hq is not depot
        assert hq.deployment.cell_count != depot.deployment.cell_count

    def test_stats_count_queries_and_frames(self):
        fresh = LocalizationService.from_specs(
            SITES, protocol=PROTOCOL, seed=7
        )
        scenario = fresh.pipeline("hq").collector.scenario
        frames = np.zeros((4, scenario.deployment.link_count))
        fresh.query_batch("hq", frames, 0.0)
        fresh.query("hq", frames[0], 0.0)
        assert fresh.stats.queries == 2
        assert fresh.stats.frames == 5
        assert fresh.stats.frames_by_site == {"hq": 5}


class TestErrorContract:
    def test_unknown_site_raises_keyerror(self, service):
        with pytest.raises(KeyError, match="unknown site"):
            service.query("branch", np.zeros(10), 0.0)
        with pytest.raises(KeyError, match="unknown site"):
            service.query_batch("branch", np.zeros((1, 10)), 0.0)

    def test_pre_commission_query_raises_runtimeerror(self):
        raw = LocalizationService.from_specs(
            SITES, protocol=PROTOCOL, seed=7, auto_commission=False
        )
        with pytest.raises(RuntimeError, match="commission"):
            raw.query("hq", np.zeros(10), 0.0)
        with pytest.raises(RuntimeError, match="commission"):
            raw.query_batch("hq", np.zeros((2, 10)), 0.0)

    def test_query_before_first_epoch_raises_lookuperror(self, service):
        with pytest.raises(LookupError, match="no fingerprint epoch"):
            service.query("hq", np.zeros(10), -1.0)

    def test_malformed_rss_raises_valueerror(self, service):
        with pytest.raises(ValueError, match="shape"):
            service.query("hq", np.zeros(3), 0.0)


class TestEpochs:
    def test_update_serves_new_epoch_and_keeps_old_days(self):
        fresh = LocalizationService.from_specs(
            SITES, protocol=PROTOCOL, seed=7
        )
        fresh.warm(["hq"])
        fresh.update("hq", 30.0)
        system = fresh.pipeline("hq")
        assert system.database.epoch_count == 2
        early = system.matcher_for_day(10.0)
        late = system.matcher_for_day(45.0)
        assert early.fingerprint.day == 0.0
        assert late.fingerprint.day == 30.0

    def test_summary_reports_materialization_state(self):
        fresh = LocalizationService.from_specs(
            SITES, protocol=PROTOCOL, seed=7
        )
        before = {row["site"]: row for row in fresh.summary()}
        assert not before["hq"]["materialized"]
        fresh.warm(["hq"])
        after = fresh.site_summary("hq")
        assert after["materialized"] and after["commissioned"]
        assert after["scenario"] == "paper"
        assert after["epochs"] == 1
