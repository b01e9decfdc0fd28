"""Fault-tolerance gates: kill, hang, drop — lose no queries, no bits.

The headline contract (ISSUE acceptance): with R = 2 replicas over 3
shards and a snapshot directory, ``kill -9`` of *any* worker under load
loses zero queries, the victim respawns warm from snapshots, and every
post-recovery answer is bit-identical to an undisturbed in-process
service. Plus the supporting machinery: deterministic fault schedules,
wire-level drops absorbed by client retries, worker hangs caught by the
router's call timeout.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.serve import LocalizationService, ShardedService
from repro.serve.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FlakyService,
    corrupt_pipeline_state,
    corrupt_snapshot_file,
)
from repro.serve.aio import AioFrontend
from repro.serve.frontend import ServiceClient
from repro.serve.protocol import DropResponse, ServiceUnavailable
from repro.serve.shard import WorkerTimeout
from repro.sim.collector import CollectionProtocol
from repro.util.rng import counter_stream

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {"hq": "square-3m", "lab": "square-4m", "depot": "square-5m"}
SEED = 21


@pytest.fixture(scope="module")
def reference():
    svc = LocalizationService.from_specs(
        SITES, protocol=PROTOCOL, seed=SEED, share_pipelines=False
    )
    svc.warm()
    return svc


@pytest.fixture(scope="module")
def workloads(reference):
    out = {}
    for index, site in enumerate(SITES):
        links = reference.pipeline(site).deployment.link_count
        out[site] = counter_stream(SEED, 100 + index).normal(
            -55.0, 6.0, size=(6, links)
        )
    return out


@pytest.fixture(scope="module")
def expected(reference, workloads):
    return {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }


@pytest.fixture()
def fleet(tmp_path):
    service = ShardedService(
        SITES,
        shards=3,
        replicas=2,
        snapshot_dir=tmp_path / "snapshots",
        call_timeout=30.0,
        protocol=PROTOCOL,
        seed=SEED,
    )
    service.warm()
    yield service
    service.close()


def _wait_recovered(fleet, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if all(shard.alive() for shard in fleet._shards):
            return True
        fleet.health()  # the monitoring poll drives secondary recovery
        time.sleep(0.05)
    return False


class TestKillNineFailover:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_kill_any_worker_loses_zero_queries(
        self, fleet, workloads, expected, victim
    ):
        injector = FaultInjector(fleet)
        assert injector.kill(victim)
        # Under load immediately after the kill: every query answers,
        # bit-identically — R=2 means some replica always owns the site.
        for _ in range(3):
            for site, rss in workloads.items():
                result = fleet.query_batch(site, rss, 0.0)
                assert np.array_equal(result.cells, expected[site].cells)
                assert np.array_equal(
                    result.positions, expected[site].positions
                )
        assert _wait_recovered(fleet)
        # The respawned worker warmed from snapshots, not a re-survey.
        worker_health = fleet._shards[victim].call("health")
        assert worker_health["snapshots_restored"] > 0
        assert fleet.router_stats.respawns >= 1
        # Post-recovery answers are still bit-identical.
        for site, rss in workloads.items():
            result = fleet.query_batch(site, rss, 0.0)
            assert np.array_equal(result.cells, expected[site].cells)

    def test_kill_mid_map_query_batch_retries_on_replicas(
        self, fleet, workloads, expected
    ):
        """A worker killed between fan-out calls: the lost requests are
        transparently retried on the sites' replicas — the batch still
        returns every answer, bit-identically."""
        requests = [
            (site, rss, 0.0) for site, rss in workloads.items()
        ] * 3
        os.kill(fleet._shards[0].process.pid, signal.SIGKILL)
        results = fleet.map_query_batch(requests)
        assert len(results) == len(requests)
        for (site, _, _), result in zip(requests, results):
            assert np.array_equal(result.cells, expected[site].cells)
        assert _wait_recovered(fleet)

    def test_health_degrades_then_recovers(self, fleet):
        assert fleet.health()["status"] == "ok"
        os.kill(fleet._shards[1].process.pid, signal.SIGKILL)
        fleet._shards[1].process.join(timeout=5.0)
        report = fleet.health()
        assert report["status"] in ("degraded", "unavailable")
        assert 1 in report["down_shards"] or fleet._shards[1].alive()
        assert _wait_recovered(fleet)
        report = fleet.health()
        assert report["status"] == "ok"
        assert report["shards"][1]["restarts"] == 1

    def test_update_refuses_degraded_replica_set(self, fleet, workloads):
        """Mutations need the full replica set (a partial update would let
        replicas drift); a degraded site refuses refreshes until the
        respawn completes, then accepts them."""
        site = next(iter(SITES))
        victims = set(fleet.replicas[site])
        for index in victims:
            os.kill(fleet._shards[index].process.pid, signal.SIGKILL)
            fleet._shards[index].process.join(timeout=5.0)
        with pytest.raises(ServiceUnavailable):
            fleet.update(site, 5.0)
        assert _wait_recovered(fleet)
        report = fleet.update(site, 5.0)
        assert report is not None and report.samples_taken > 0


class TestResize:
    def test_grow_and_shrink_keep_answers_bit_identical(
        self, fleet, workloads, expected
    ):
        grown = fleet.resize(5)
        assert grown["shards"] == 5 and grown["spawned"] == 2
        for site, rss in workloads.items():
            assert np.array_equal(
                fleet.query_batch(site, rss, 0.0).cells, expected[site].cells
            )
        shrunk = fleet.resize(2)
        assert shrunk["shards"] == 2 and shrunk["retired"] == 3
        for site, rss in workloads.items():
            assert np.array_equal(
                fleet.query_batch(site, rss, 0.0).cells, expected[site].cells
            )
        assert fleet.router_stats.resizes == 2
        assert len(fleet._shards) == 2

    def test_resize_is_minimal_movement(self, fleet):
        before = {site: set(order) for site, order in fleet.replicas.items()}
        result = fleet.resize(4)
        moved = set(result["moved_sites"])
        for site, order in fleet.replicas.items():
            if set(order) == before[site]:
                assert site not in moved
            else:
                assert site in moved
        assert fleet.resize(4)["moved_sites"] == []  # no-op resize

    def test_resize_to_zero_rejected(self, fleet):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            fleet.resize(0)


class TestWorkerHang:
    def test_hang_is_caught_by_call_timeout(self, tmp_path, workloads):
        service = ShardedService(
            SITES,
            shards=2,
            replicas=2,
            snapshot_dir=tmp_path / "snapshots",
            call_timeout=0.5,
            protocol=PROTOCOL,
            seed=SEED,
        )
        try:
            service.warm()
            injector = FaultInjector(service)
            site = next(iter(SITES))
            primary = service.assignment[site]
            assert injector.hang(primary, seconds=3.0)
            # The hung primary misses the 0.5 s budget; the call fails
            # over to the replica and still answers.
            result = service.query_batch(site, workloads[site], 0.0)
            assert result.frame_count == workloads[site].shape[0]
            assert service.router_stats.timeouts >= 1
        finally:
            service.close()

    def test_worker_timeout_is_a_timeout_error(self):
        assert issubclass(WorkerTimeout, TimeoutError)


class TestFaultSchedule:
    def test_generate_is_deterministic(self):
        a = FaultSchedule.generate(
            seed=9, operations=50, shards=3, faults=5,
            actions=("kill", "hang"),
        )
        b = FaultSchedule.generate(
            seed=9, operations=50, shards=3, faults=5,
            actions=("kill", "hang"),
        )
        assert a == b
        assert len(a.events) == 5
        assert len({event.at for event in a.events}) == 5  # no collisions
        for event in a.events:
            assert 0 <= event.at < 50
            assert 0 <= event.target < 3
            assert event.action in ("kill", "hang")

    def test_different_seed_different_plan(self):
        a = FaultSchedule.generate(seed=1, operations=100, shards=4, faults=6)
        b = FaultSchedule.generate(seed=2, operations=100, shards=4, faults=6)
        assert a != b

    def test_at_filters_by_operation(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(at=3, action="kill", target=1),
                FaultEvent(at=3, action="delay", target=0, seconds=0.1),
                FaultEvent(at=7, action="kill", target=0),
            )
        )
        assert len(schedule.at(3)) == 2
        assert schedule.at(7)[0].target == 0
        assert schedule.at(5) == []

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultSchedule.generate(
                seed=0, operations=10, shards=2, actions=("explode",)
            )


class TestFlakyWire:
    def test_dropped_responses_are_absorbed_by_client_retries(
        self, reference, workloads, expected
    ):
        flaky = FlakyService(
            reference, drop_calls={0, 2}, methods={"query_batch"}
        )
        with AioFrontend(flaky) as frontend:
            client = ServiceClient(
                frontend.http_address, retries=3, backoff=0.01
            )
            try:
                for site, rss in workloads.items():
                    wire = client.query_batch(site, rss, 0.0)
                    assert np.array_equal(wire.cells, expected[site].cells)
            finally:
                client.close()
        assert flaky.dropped == 2

    def test_exhausted_retries_surface_service_unavailable(
        self, reference, workloads
    ):
        flaky = FlakyService(
            reference, drop_calls=set(range(10)), methods={"query_batch"}
        )
        site = next(iter(SITES))
        with AioFrontend(flaky) as frontend:
            client = ServiceClient(
                frontend.http_address, retries=2, backoff=0.01
            )
            try:
                with pytest.raises(ServiceUnavailable):
                    client.query_batch(site, workloads[site], 0.0)
            finally:
                client.close()
        assert flaky.dropped == 3  # one per attempt, budget exhausted

    def test_drop_response_is_not_a_contract_error(self):
        assert not issubclass(DropResponse, (ValueError, OSError))

    def test_passthrough_preserves_non_filtered_methods(self, reference):
        flaky = FlakyService(
            reference, drop_calls={0}, methods={"query_batch"}
        )
        assert flaky.sites() == list(SITES)  # not filtered, never dropped
        assert flaky.calls == 0


class TestCorruptFault:
    """The seeded corrupt fault: silent, finite, and exactly replayable."""

    def _solo(self):
        svc = LocalizationService.from_specs(
            {"hq": "square-3m"},
            protocol=PROTOCOL,
            seed=SEED,
            share_pipelines=False,
        )
        svc.warm()
        return svc

    def test_state_flip_is_seed_deterministic(self):
        """Twin services, same seed: the identical (epoch, index, bit)
        is flipped — the whole fault schedule replays from one integer."""
        first = corrupt_pipeline_state(self._solo(), "hq", seed=4)
        second = corrupt_pipeline_state(self._solo(), "hq", seed=4)
        assert first == second
        other = corrupt_pipeline_state(self._solo(), "hq", seed=5)
        assert (other["index"], other["bit"]) != (
            first["index"],
            first["bit"],
        )

    def test_flip_is_silent_but_wrong(self, workloads):
        """The corrupted pipeline keeps answering (finite values, no
        exception) with changed bits — the failure mode the scrub owns."""
        service = self._solo()
        system = service.pipeline("hq")
        links = system.deployment.link_count
        rss = counter_stream(SEED, 400).normal(-55.0, 6.0, size=(4, links))
        before = service.query_batch("hq", rss, 0.0)
        version = system.database._version
        detail = corrupt_pipeline_state(service, "hq", seed=4)
        assert np.isfinite(detail["after"])
        assert detail["after"] != detail["before"]
        assert 2 <= detail["bit"] <= 51  # mantissa-only: stays finite
        assert system.database._version == version + 1  # cache dropped
        after = service.query_batch("hq", rss, 0.0)
        assert np.all(np.isfinite(after.scores))
        assert not np.array_equal(before.scores, after.scores)

    def test_corrupting_a_site_without_epochs_raises(self):
        class Empty:
            class database:
                @staticmethod
                def epochs():
                    return []

        class Stub:
            @staticmethod
            def pipeline(site):
                return Empty()

        with pytest.raises(RuntimeError, match="no epochs"):
            corrupt_pipeline_state(Stub(), "hq", seed=0)

    def test_snapshot_file_flip_is_seed_deterministic(self, tmp_path):
        payload = bytes(range(256)) * 4
        first = tmp_path / "a.snap.npz"
        second = tmp_path / "b.snap.npz"
        first.write_bytes(payload)
        second.write_bytes(payload)
        left = corrupt_snapshot_file(first, seed=3)
        # Same name + seed on the twin file: identical byte flipped.
        twin = tmp_path / "twin" / "a.snap.npz"
        twin.parent.mkdir()
        twin.write_bytes(payload)
        right = corrupt_snapshot_file(twin, seed=3)
        assert (left["offset"], left["bit"]) == (
            right["offset"],
            right["bit"],
        )
        assert first.read_bytes() == twin.read_bytes() != payload
        # The draw is keyed on the file *name* too, so sibling archives
        # corrupt at independent positions.
        other = corrupt_snapshot_file(second, seed=3)
        assert (other["offset"], other["bit"]) != (
            left["offset"],
            left["bit"],
        )

    def test_empty_snapshot_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.snap.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="nothing to corrupt"):
            corrupt_snapshot_file(empty, seed=0)

    def test_schedule_can_carry_corrupt_events(self):
        schedule = FaultSchedule.generate(
            seed=6, operations=40, shards=3, faults=8, actions=("corrupt",)
        )
        assert all(event.action == "corrupt" for event in schedule.events)
        assert schedule == FaultSchedule.generate(
            seed=6, operations=40, shards=3, faults=8, actions=("corrupt",)
        )
