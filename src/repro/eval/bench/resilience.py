"""The ``resilience`` gate section: worker kill / failover / restore."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.eval.bench.common import (
    bench_spec,
    identical,
    respawned,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import LocalizationService, ShardedService
from repro.serve.faults import FaultInjector, FaultSchedule
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_resilience"]

SITES = ("square-3m", "square-4m", "square-5m")
SHARDS = 3
REPLICAS = 2
FRAMES = 24
OPERATIONS = 30
RECOVERY_TIMEOUT_S = 120.0
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)


def bench_resilience(seed: int) -> Dict[str, object]:
    """Kill workers of a snapshot-backed fleet and count what clients lose.

    All on :class:`~repro.serve.shard.ShardedService` fleets of
    ``SHARDS`` workers at R = ``REPLICAS``, every answer compared on
    cells, positions and scores against an undisturbed in-process
    service:

    * **kill under load** — a round-robin ``query_batch`` workload runs
      before, immediately after a seed-scheduled
      (:class:`~repro.serve.faults.FaultSchedule`) ``kill -9`` of a
      worker, and again after recovery; ``zero_loss`` means no failed
      and no mismatched query in any phase. ``recovery_s`` is the wall
      time from the SIGKILL to the victim answering again, and
      ``snapshots_restored`` how many of its sites the respawn restored
      from snapshots instead of re-surveying.
    * **every victim** — a second fleet over the same snapshot
      directory must answer bit-identically; then ``kill -9`` of each
      shard in turn, each followed by one batch per site (``kills``:
      zero failed, zero mismatched, a respawn that warmed from
      snapshots), then whole-fleet identity after recovery and a live
      resize to ``SHARDS + 1`` and down to ``SHARDS - 1`` that must keep
      every answer bit-identical (``resize``).
    """
    specs = {f"site-{name}": bench_spec(name) for name in SITES}
    reference = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed, share_pipelines=False
    )
    reference.warm()
    workloads = site_workloads(
        specs, PROTOCOL, FRAMES, seed, offset=500, label="resilience-workload"
    )
    expected = {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    site_list = list(specs)
    record: Dict[str, object] = {}

    def fleet_over(snapshot_dir: Path) -> ShardedService:
        return ShardedService(
            specs,
            shards=SHARDS,
            replicas=REPLICAS,
            snapshot_dir=snapshot_dir,
            call_timeout=60.0,
            protocol=PROTOCOL,
            seed=seed,
        )

    def run_phase(fleet: ShardedService) -> Dict[str, int]:
        failed = 0
        mismatched = 0
        for op in range(OPERATIONS):
            site = site_list[op % len(site_list)]
            try:
                result = fleet.query_batch(site, workloads[site], 0.0)
            except OSError:
                failed += 1
                continue
            if not identical(result, expected[site]):
                mismatched += 1
        return {"failed_queries": failed, "mismatched_queries": mismatched}

    def all_identical(fleet: ShardedService) -> bool:
        return all(
            identical(fleet.query_batch(site, rss, 0.0), expected[site])
            for site, rss in workloads.items()
        )

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_dir = Path(tmp) / "snapshots"
        with fleet_over(snapshot_dir) as fleet:
            fleet.warm()
            record["before"] = before = run_phase(fleet)
            schedule = FaultSchedule.generate(
                seed=seed, operations=OPERATIONS, shards=SHARDS, faults=1
            )
            victim = schedule.events[0].target
            killed_at = time.perf_counter()
            FaultInjector(fleet).kill(victim)
            record["victim_shard"] = int(victim)
            # Under load straight through the outage: with R >= 2 every
            # query fails over to a live replica and still answers.
            record["during"] = during = run_phase(fleet)
            recovered = respawned(fleet, victim, RECOVERY_TIMEOUT_S)
            record["recovery_s"] = time.perf_counter() - killed_at
            record["recovered"] = bool(recovered)
            if recovered:
                record["snapshots_restored"] = int(
                    fleet._shards[victim].call("health")["snapshots_restored"]
                )
            record["after"] = after = run_phase(fleet)

        # A second fleet over the same snapshot directory.
        with fleet_over(snapshot_dir) as revived:
            revived.warm()
            record["snapshot_warm_bit_identical"] = all_identical(revived)

            # kill -9 every shard in turn; each outage must cost nothing.
            kills: Dict[str, object] = {}
            injector = FaultInjector(revived)
            for victim in range(SHARDS):
                injector.kill(victim)
                failed = mismatched = 0
                for site, rss in workloads.items():
                    try:
                        result = revived.query_batch(site, rss, 0.0)
                    except OSError:
                        failed += 1
                        continue
                    if not identical(result, expected[site]):
                        mismatched += 1
                begin = time.perf_counter()
                recovered = respawned(revived, victim, RECOVERY_TIMEOUT_S)
                kills[str(victim)] = {
                    "failed_queries": failed,
                    "mismatched_queries": mismatched,
                    "recovered": recovered,
                    "recovery_s": time.perf_counter() - begin,
                    "snapshots_restored": (
                        int(
                            revived._shards[victim]
                            .call("health")
                            .get("snapshots_restored", 0)
                        )
                        if recovered
                        else 0
                    ),
                }
            record["kills"] = kills
            results = revived.map_query_batch(
                [(site, rss, 0.0) for site, rss in workloads.items()]
            )
            record["post_recovery_bit_identical"] = all(
                identical(result, expected[site])
                for site, result in zip(workloads, results)
            )

            revived.resize(SHARDS + 1)
            grow_ok = all_identical(revived)
            revived.resize(SHARDS - 1)
            record["resize"] = {
                "bit_identical": grow_ok and all_identical(revived)
            }

    record["zero_loss"] = all(
        phase["failed_queries"] == 0 and phase["mismatched_queries"] == 0
        for phase in (before, during, after)
    )
    return record


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    if not record["zero_loss"]:
        failures.append("resilience: queries lost or mismatched across kill")
    if not record["recovered"]:
        failures.append("resilience: killed worker did not recover")
    elif record["snapshots_restored"] <= 0:
        failures.append(
            "resilience: snapshots_restored is 0 (respawn re-surveyed)"
        )
    if not record["snapshot_warm_bit_identical"]:
        failures.append("resilience: snapshot-warmed fleet answers differ")
    for victim, row in record["kills"].items():
        if (
            row["failed_queries"] != 0
            or row["mismatched_queries"] != 0
            or not row["recovered"]
        ):
            failures.append(
                f"resilience: kills.{victim} lost or changed answers or did "
                f"not respawn ({row['failed_queries']} failed, "
                f"{row['mismatched_queries']} mismatched, "
                f"recovered={row['recovered']})"
            )
        elif row["snapshots_restored"] <= 0:
            failures.append(
                f"resilience: kills.{victim}.snapshots_restored is 0 "
                "(respawn re-surveyed)"
            )
    if not record["post_recovery_bit_identical"]:
        failures.append(
            "resilience: post_recovery_bit_identical is false "
            "(fleet answers differ after the kills)"
        )
    if not record["resize"]["bit_identical"]:
        failures.append(
            "resilience: resize.bit_identical is false "
            "(answers changed across a live resize)"
        )
    return failures


register(
    BenchSection(
        name="resilience", run=bench_resilience, smoke_gates=_smoke_gates
    )
)
