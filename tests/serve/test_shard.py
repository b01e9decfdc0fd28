"""Unit tests for the shard layer (routing + worker processes)."""

import threading
import time

import numpy as np
import pytest

from repro.serve import LocalizationService, ShardedService, shard_for_site
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import get_scenario_spec

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {
    "hq": "square-3m",
    "lab": "square-4m",
    "depot": "square-3m",
    "annex": "square-4m",
}
SEED = 21


@pytest.fixture(scope="module")
def reference():
    service = LocalizationService.from_specs(
        SITES, protocol=PROTOCOL, seed=SEED
    )
    service.warm()
    return service


@pytest.fixture(scope="module")
def traces(reference):
    out = {}
    for index, site in enumerate(reference.sites()):
        scenario = reference.pipeline(site).collector.scenario
        cells = list(range(0, scenario.deployment.cell_count, 4))
        out[site] = RssCollector(
            scenario, PROTOCOL, seed=60 + index
        ).live_trace(0.0, cells)
    return out


@pytest.fixture(scope="module", params=[1, 2, 3])
def sharded(request):
    with ShardedService(
        SITES, shards=request.param, protocol=PROTOCOL, seed=SEED
    ) as service:
        service.warm()
        yield service


class TestRouting:
    def test_shard_for_site_in_range_and_deterministic(self):
        for count in (1, 2, 5, 16):
            for site in SITES:
                shard = shard_for_site(site, count)
                assert 0 <= shard < count
                assert shard == shard_for_site(site, count)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shard_count"):
            shard_for_site("hq", 0)
        with pytest.raises(ValueError, match="shards"):
            ShardedService(SITES, shards=0, protocol=PROTOCOL, seed=SEED)

    def test_assignment_matches_pure_function(self, sharded):
        for site in SITES:
            assert sharded.assignment[site] == shard_for_site(
                site, sharded.shard_count
            )

    def test_sites_preserve_registration_order(self, sharded):
        assert sharded.sites() == list(SITES)

    def test_unknown_site_raises_keyerror(self, sharded):
        with pytest.raises(KeyError, match="unknown site"):
            sharded.query("nowhere", np.zeros(2), 0.0)
        with pytest.raises(KeyError, match="unknown site"):
            sharded.warm(["nowhere"])


class TestShardIdentity:
    """The acceptance contract: any shard count answers with the same
    bits as the in-process service (and therefore as any other count)."""

    def test_query_batch_bit_identical_to_in_process(
        self, sharded, reference, traces
    ):
        for site, trace in traces.items():
            served = sharded.query_batch(site, trace.rss, 0.0)
            expected = reference.query_batch(site, trace.rss, 0.0)
            np.testing.assert_array_equal(served.cells, expected.cells)
            np.testing.assert_array_equal(
                served.positions, expected.positions
            )
            np.testing.assert_array_equal(served.scores, expected.scores)

    def test_single_query_and_trace_bit_identical(
        self, sharded, reference, traces
    ):
        trace = traces["hq"]
        single = sharded.query("hq", trace.rss[0], 0.0)
        expected = reference.query("hq", trace.rss[0], 0.0)
        assert single.cell == expected.cell
        assert single.position == expected.position
        routed = sharded.query_trace("hq", trace)
        np.testing.assert_array_equal(
            routed.cells, reference.query_trace("hq", trace).cells
        )

    def test_map_query_batch_fans_out_in_request_order(
        self, sharded, reference, traces
    ):
        requests = [(site, traces[site].rss, 0.0) for site in traces]
        results = sharded.map_query_batch(requests)
        assert len(results) == len(requests)
        for (site, rss, day), result in zip(requests, results):
            expected = reference.query_batch(site, rss, day)
            np.testing.assert_array_equal(result.cells, expected.cells)
            np.testing.assert_array_equal(
                result.positions, expected.positions
            )

    def test_map_query_batch_propagates_errors_after_draining(self, sharded):
        requests = [("hq", np.zeros((1, 2)), 0.0), ("nowhere", None, 0.0)]
        with pytest.raises(KeyError, match="unknown site"):
            sharded.map_query_batch(requests)
        # The pipes stayed in sync: the next call still answers.
        assert sharded.query_batch("hq", np.zeros((1, 2)), 0.0).frame_count == 1


class TestShardServiceSurface:
    def test_error_contract_crosses_the_process_boundary(self, sharded):
        with pytest.raises(ValueError, match="shape"):
            sharded.query("hq", np.zeros(7), 0.0)
        with pytest.raises(LookupError, match="no fingerprint epoch"):
            sharded.query_batch("hq", np.zeros((1, 2)), -3.0)

    def test_update_and_staleness_route_to_the_owner(self):
        with ShardedService(
            SITES, shards=2, protocol=PROTOCOL, seed=SEED
        ) as service:
            service.warm()
            assert service.staleness("hq", 20.0) == 20.0
            report = service.update("hq", 20.0)
            assert report.day == 20.0
            assert service.staleness("hq", 20.0) == 0.0
            summary = service.site_summary("hq")
            assert summary["epochs"] == 2

    def test_cold_update_contract_crosses_the_boundary(self):
        with ShardedService(
            SITES, shards=2, protocol=PROTOCOL, seed=SEED
        ) as service:
            with pytest.raises(RuntimeError, match="cold update"):
                service.update("hq", 10.0)
            assert service.update("hq", 10.0, cold="commission") is None
            assert service.staleness("hq", 10.0) == 0.0

    def test_service_stats_aggregate_across_workers(self, sharded, traces):
        before = sharded.service_stats()
        sharded.query_batch("hq", traces["hq"].rss, 0.0)
        sharded.query_batch("lab", traces["lab"].rss, 0.0)
        after = sharded.service_stats()
        assert after.queries >= before.queries + 2
        assert after.frames_by_site["hq"] >= traces["hq"].frame_count

    def test_summary_covers_every_site(self, sharded):
        rows = sharded.summary()
        assert [row["site"] for row in rows] == list(SITES)
        assert all(row["commissioned"] for row in rows)

    def test_dead_worker_fan_out_raises_without_desyncing_survivors(self):
        """Regression: a crashed worker mid-fan-out must surface an error
        *after* draining the healthy shards — not deadlock on held locks,
        and not leave a stale reply that desyncs the survivors' pipes."""
        with ShardedService(
            SITES, shards=2, protocol=PROTOCOL, seed=SEED
        ) as service:
            service.warm()
            victim = service.assignment["hq"]
            survivor_site = next(
                site
                for site, shard in service.assignment.items()
                if shard != victim
            )
            links = {
                site: service.site_summary(site)["links"]
                for site in ("hq", survivor_site)
            }
            service._shards[victim].process.terminate()
            service._shards[victim].process.join(timeout=5.0)
            requests = [
                (site, np.zeros((1, links[site])), 0.0)
                for site in ("hq", survivor_site)
            ]
            with pytest.raises((EOFError, OSError, BrokenPipeError)):
                service.map_query_batch(requests)
            # Locks were released and the survivor's pipe is still in
            # sync: a follow-up call answers normally.
            result = service.query_batch(
                survivor_site, np.zeros((2, links[survivor_site])), 0.0
            )
            assert result.frame_count == 2

    def test_failed_call_in_fan_out_drains_other_shards(self):
        """A contract error on one shard (unknown day) must not corrupt
        the reply stream of the other shard in the same fan-out."""
        with ShardedService(
            SITES, shards=2, protocol=PROTOCOL, seed=SEED
        ) as service:
            service.warm()
            links = {
                site: service.site_summary(site)["links"]
                for site in ("hq", "lab")
            }
            good = [("hq", np.zeros((1, links["hq"])), 0.0)]
            bad = [("lab", np.zeros((1, links["lab"])), -9.0)]  # pre-epoch
            with pytest.raises(LookupError):
                service.map_query_batch(good + bad)
            for site in ("hq", "lab"):
                assert service.query_batch(
                    site, np.zeros((1, links[site])), 0.0
                ).frame_count == 1

    def test_close_waits_for_an_in_flight_respawn(self):
        """A respawn swaps the shard's process; a close racing it could
        reap the old one twice or leave the new one running, so close
        waits for the respawn to let go of the shard."""
        service = ShardedService(
            {"hq": get_scenario_spec("square-3m")},
            shards=1,
            protocol=PROTOCOL,
            seed=SEED,
        )
        shard = service._shards[0]
        assert shard.respawn_lock.acquire(timeout=5.0)  # a respawn in flight
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.5)
        assert closer.is_alive()
        assert shard.close_stage is None
        shard.respawn_lock.release()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert shard.close_stage == "clean"

    def test_resize_waits_for_an_in_flight_respawn_of_a_surplus_shard(self):
        """Shrinking retires surplus workers through the same close path:
        a respawn in flight on a retired shard is waited out, not raced,
        so its replacement worker cannot outlive the resize."""
        service = ShardedService(
            {"hq": get_scenario_spec("square-3m")},
            shards=2,
            protocol=PROTOCOL,
            seed=SEED,
        )
        try:
            surplus = service._shards[1]
            assert surplus.respawn_lock.acquire(timeout=5.0)  # respawn in flight
            resizer = threading.Thread(target=service.resize, args=(1,))
            resizer.start()
            deadline = time.monotonic() + 30.0
            while service.shard_count != 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.shard_count == 1  # the routing table flipped
            resizer.join(timeout=0.5)
            assert resizer.is_alive()
            assert surplus.close_stage is None
            surplus.respawn_lock.release()
            resizer.join(timeout=10.0)
            assert not resizer.is_alive()
            assert surplus.close_stage == "clean"
            assert not surplus.process.is_alive()
            assert surplus not in service._shards
        finally:
            service.close()
        assert not any(s.process.is_alive() for s in (surplus, *service._shards))

    def test_a_retired_shard_is_never_respawned(self):
        """A late failure report about a retired shard (say, from a query
        that picked it before the resize) must not bring its worker back."""
        with ShardedService(
            {"hq": get_scenario_spec("square-3m")},
            shards=2,
            protocol=PROTOCOL,
            seed=SEED,
        ) as service:
            retired = service._shards[1]
            service.resize(1)
            assert retired.close_stage == "clean"
            service._ensure_respawn(retired)
            assert retired.respawn_lock.acquire(timeout=10.0)  # respawner done
            retired.respawn_lock.release()
            assert retired.generation == 0
            assert not retired.process.is_alive()

    def test_close_is_idempotent(self):
        service = ShardedService(
            {"hq": get_scenario_spec("square-3m")},
            shards=1,
            protocol=PROTOCOL,
            seed=SEED,
        )
        service.close()
        service.close()
        with pytest.raises((BrokenPipeError, OSError, EOFError)):
            service.query("hq", np.zeros(2), 0.0)
