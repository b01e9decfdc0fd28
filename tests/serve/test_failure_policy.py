"""What the shard router does when a worker does not answer.

Every reader that asks a worker directly has one policy for a worker
that is down or hung: leave it out of the answer (or fail over to a
replica), and schedule its respawn. These tests pin that policy reader
by reader, the timeout count that goes with it, and the blame rule that
decides which diverged replica to quarantine.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import ShardedService
from repro.serve.faults import FaultInjector
from repro.sim.collector import CollectionProtocol

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SITES = {"hq": "square-3m", "lab": "square-4m", "depot": "square-3m"}
SEED = 21


def _record_respawns(service, monkeypatch):
    """Record each respawn the router schedules instead of running it, so
    a killed worker stays down for the whole test."""
    respawned = []
    monkeypatch.setattr(
        service, "_ensure_respawn", lambda shard: respawned.append(shard.index)
    )
    return respawned


@pytest.fixture()
def fleet(tmp_path):
    """Three workers, two replicas a site, snapshots on."""
    with ShardedService(
        SITES,
        shards=3,
        replicas=2,
        snapshot_dir=tmp_path / "snapshots",
        protocol=PROTOCOL,
        seed=SEED,
    ) as service:
        service.warm()
        yield service


@pytest.fixture()
def respawned(fleet, monkeypatch):
    return _record_respawns(fleet, monkeypatch)


def _kill_primary(fleet, site):
    primary = fleet.replicas[site][0]
    assert FaultInjector(fleet).kill(primary)
    return primary


class TestBestEffortReaders:
    def test_verify_site_reports_none_for_a_down_replica(self, fleet, respawned):
        primary, secondary = fleet.replicas["hq"]
        _kill_primary(fleet, "hq")
        rows = fleet.verify_site("hq")["replicas"]
        assert rows[str(primary)] is None
        assert rows[str(secondary)]["matches"] is True
        assert primary in respawned

    def test_repair_leaves_out_a_down_replica(self, fleet, respawned):
        primary, secondary = fleet.replicas["hq"]
        _kill_primary(fleet, "hq")
        rows = fleet.repair("hq")["replicas"]
        assert list(rows) == [str(secondary)]
        assert fleet.router_stats.repairs == 1
        assert primary in respawned

    def test_service_stats_sum_only_the_live_workers(self, fleet, respawned):
        for site in SITES:
            links = fleet.site_summary(site)["links"]
            fleet.query_batch(site, np.zeros((3, links)), 0.0)
        victim = _kill_primary(fleet, "hq")
        totals = fleet.service_stats()
        expected = [
            shard.call("service_stats")
            for shard in fleet._shards
            if shard.index != victim
        ]
        assert totals.queries == sum(stats.queries for stats in expected)
        assert totals.frames == sum(stats.frames for stats in expected)
        assert "hq" not in totals.frames_by_site  # only its primary served it
        assert victim in respawned

    def test_snapshot_maintenance_sums_only_the_live_workers(self, fleet, respawned):
        fleet.snapshot_maintenance()  # settle: later passes repeat exactly
        victim = _kill_primary(fleet, "hq")
        totals = fleet.snapshot_maintenance()
        expected = [
            shard.call("snapshot_maintenance")
            for shard in fleet._shards
            if shard.index != victim
        ]
        assert totals["enabled"] is True
        for key in ("written", "checked", "corrupt", "files_removed"):
            assert totals[key] == sum(report[key] for report in expected)
        assert victim in respawned

    def test_drift_fails_over_to_another_replica(self, fleet, respawned):
        before = fleet.drift("hq", 0.0)
        primary = _kill_primary(fleet, "hq")
        assert fleet.drift("hq", 0.0) == before
        assert fleet.router_stats.failovers == 1
        assert respawned == [primary]

    def test_quorum_read_schedules_the_respawn_of_a_dead_replica(self, monkeypatch):
        """A quorum read that skips a dead replica schedules its respawn,
        as every other reader does."""
        with ShardedService(
            SITES,
            shards=3,
            replicas=3,
            read_mode="quorum",
            protocol=PROTOCOL,
            seed=SEED,
        ) as service:
            respawned = _record_respawns(service, monkeypatch)
            service.warm()
            links = service.site_summary("hq")["links"]
            frames = np.zeros((2, links))
            expected = service.query_batch("hq", frames, 0.0)
            secondary = service.replicas["hq"][1]
            assert FaultInjector(service).kill(secondary)
            result = service.query_batch("hq", frames, 0.0)
            assert np.array_equal(result.cells, expected.cells)
            assert respawned == [secondary]


def test_a_timeout_on_any_reader_is_counted():
    """``service_stats`` marks a hung worker dead; the router's timeout
    count says so, as it does for a hung query."""
    with ShardedService(
        SITES,
        shards=2,
        call_timeout=0.5,
        auto_respawn=False,
        protocol=PROTOCOL,
        seed=SEED,
    ) as service:
        service.warm()
        assert FaultInjector(service).hang(0, seconds=3.0)
        service.service_stats()
        assert service._shards[0].dead
        assert service.health()["router"]["timeouts"] == 1


def _answer(*cells):
    return SimpleNamespace(cells=np.array(cells))


A, B = _answer(1, 2), _answer(1, 3)


@pytest.mark.parametrize(
    ("good", "verdicts", "answer", "blamed"),
    [
        pytest.param(
            [(0, B), (1, A)], {0: None, 1: True}, A, [0], id="digest-verified"
        ),
        pytest.param(
            [(0, B), (1, A), (2, A)],
            {0: None, 1: None, 2: None},
            A,
            [0],
            id="two-of-three-majority",
        ),
        pytest.param(
            [(0, A), (1, B)], {0: None, 1: None}, A, [], id="unarbitrable-tie"
        ),
        pytest.param(
            [(0, A), (1, B)], {0: None, 1: False}, A, [1], id="own-digest-failed"
        ),
    ],
)
def test_suspects_blame_only_on_evidence(good, verdicts, answer, blamed):
    chosen, suspects = ShardedService._suspects(good, verdicts)
    assert chosen is answer
    assert suspects == blamed
