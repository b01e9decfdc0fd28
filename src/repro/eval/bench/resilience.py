"""The ``resilience`` bench section: worker kill / failover / restore."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    identical,
    respawned,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import LocalizationService, ShardedService
from repro.serve.faults import FaultInjector, FaultSchedule
from repro.sim.collector import CollectionProtocol
from repro.util.stats import latency_summary

__all__ = ["bench_resilience"]


def bench_resilience(
    *,
    sites: Sequence[str] = ("square-3m", "square-4m", "square-5m"),
    shards: int = 3,
    replicas: int = 2,
    frames: int = 24,
    samples_per_cell: int = 2,
    operations: int = 30,
    seed: int = BENCH_SEED,
    recovery_timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Benchmark the fleet's fault tolerance: kill a worker, count losses.

    The measurement behind the PR-6 acceptance claims, all on one
    snapshot-backed :class:`~repro.serve.shard.ShardedService` fleet
    (``shards`` workers, R = ``replicas``):

    * **failed / mismatched queries** — a round-robin ``query_batch``
      workload runs before, immediately after a seed-scheduled
      (:class:`~repro.serve.faults.FaultSchedule`) ``kill -9`` of a
      worker, and again after recovery; every answer is checked
      bit-for-bit against an undisturbed in-process service. With
      R >= 2 the target is zero failures and zero mismatches in every
      phase.
    * **recovery** — wall time from the SIGKILL to the victim answering
      again, plus how many of its sites the respawn restored from
      snapshots (vs re-surveying).
    * **tail latency** — p50/p99 per phase, so the perturbation the
      failover + background respawn causes is a number, not a vibe.
    * **warm paths** — ``cold_warm_s`` (first fleet warm: full
      commissioning surveys) vs ``snapshot_warm_s`` (a second fleet over
      the same snapshot directory), the restore-vs-rebuild speedup a
      respawn rides.
    * **every victim** — on that second fleet, ``kill -9`` of each shard
      in turn, each followed by one batch per site (``kills``: zero
      failed, zero mismatched, a respawn that warmed from snapshots),
      then whole-fleet identity after recovery and a live resize to
      ``shards + 1`` and down to ``shards - 1`` that must keep every
      answer bit-identical (``resize``).

    Every answer is compared on cells, positions and scores.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {f"site-{name}": bench_spec(name) for name in sites}
    reference = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed, share_pipelines=False
    )
    reference.warm()
    workloads = site_workloads(
        specs, protocol, frames, seed, offset=500, label="resilience-workload"
    )
    expected = {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    site_list = list(specs)

    record: Dict[str, object] = {
        "sites": site_list,
        "shards": int(shards),
        "replicas": int(replicas),
        "frames": int(frames),
        "operations": int(operations),
    }

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_dir = Path(tmp) / "snapshots"
        fleet = ShardedService(
            specs,
            shards=shards,
            replicas=replicas,
            snapshot_dir=snapshot_dir,
            call_timeout=60.0,
            protocol=protocol,
            seed=seed,
        )
        try:
            start = time.perf_counter()
            fleet.warm()
            record["cold_warm_s"] = time.perf_counter() - start

            def run_phase(count: int) -> Dict[str, object]:
                latencies: List[float] = []
                failed = 0
                mismatched = 0
                for op in range(count):
                    site = site_list[op % len(site_list)]
                    rss = workloads[site]
                    begin = time.perf_counter()
                    try:
                        result = fleet.query_batch(site, rss, 0.0)
                    except OSError:
                        failed += 1
                        continue
                    latencies.append(time.perf_counter() - begin)
                    if not identical(result, expected[site]):
                        mismatched += 1
                return {
                    "failed_queries": failed,
                    "mismatched_queries": mismatched,
                    "latency": latency_summary(latencies),
                }

            record["before"] = run_phase(operations)

            schedule = FaultSchedule.generate(
                seed=seed, operations=operations, shards=shards, faults=1
            )
            victim = schedule.events[0].target
            injector = FaultInjector(fleet)
            killed_at = time.perf_counter()
            injector.kill(victim)
            record["victim_shard"] = int(victim)
            # Under load straight through the outage: with R >= 2 every
            # query fails over to a live replica and still answers.
            record["during"] = run_phase(operations)

            recovered = respawned(fleet, victim, recovery_timeout_s)
            record["recovery_s"] = time.perf_counter() - killed_at
            record["recovered"] = bool(recovered)
            if recovered:
                worker_health = fleet._shards[victim].call("health")
                record["snapshots_restored"] = int(
                    worker_health["snapshots_restored"]
                )
            record["after"] = run_phase(operations)
            record["router_stats"] = {
                "failovers": fleet.router_stats.failovers,
                "timeouts": fleet.router_stats.timeouts,
                "respawns": fleet.router_stats.respawns,
                "respawn_failures": fleet.router_stats.respawn_failures,
            }
        finally:
            fleet.close()

        # A second fleet over the same snapshot directory: the warm that a
        # respawn rides, vs the cold commissioning surveys above.
        revived = ShardedService(
            specs,
            shards=shards,
            replicas=replicas,
            snapshot_dir=snapshot_dir,
            call_timeout=60.0,
            protocol=protocol,
            seed=seed,
        )
        try:
            start = time.perf_counter()
            revived.warm()
            record["snapshot_warm_s"] = time.perf_counter() - start
            record["snapshot_warm_restored"] = int(
                sum(
                    shard.call("health")["snapshots_restored"]
                    for shard in revived._shards
                )
            )
            record["snapshot_warm_bit_identical"] = all(
                identical(revived.query_batch(site, rss, 0.0), expected[site])
                for site, rss in workloads.items()
            )

            # kill -9 every shard in turn; each outage must cost nothing.
            kills: Dict[str, object] = {}
            injector = FaultInjector(revived)
            for victim in range(shards):
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
                recovered = respawned(revived, victim, recovery_timeout_s)
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

            def all_identical() -> bool:
                return all(
                    identical(revived.query_batch(site, rss, 0.0), expected[site])
                    for site, rss in workloads.items()
                )

            grow_to, shrink_to = shards + 1, max(1, shards - 1)
            grown = revived.resize(grow_to)
            grow_ok = all_identical()
            shrunk = revived.resize(shrink_to)
            record["resize"] = {
                "grow_to": grow_to,
                "shrink_to": shrink_to,
                "grow_moved": len(grown["moved_sites"]),
                "shrink_moved": len(shrunk["moved_sites"]),
                "bit_identical": grow_ok and all_identical(),
            }
        finally:
            revived.close()

    cold = record["cold_warm_s"]
    warm = record["snapshot_warm_s"]
    record["restore_speedup"] = cold / warm if warm > 0 else float("inf")
    record["zero_loss"] = bool(
        all(
            record[phase]["failed_queries"] == 0
            and record[phase]["mismatched_queries"] == 0
            for phase in ("before", "during", "after")
        )
    )
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.resilience_sites is None:
        return None
    return bench_resilience(
        sites=config.resilience_sites,
        shards=config.resilience_shards,
        replicas=config.resilience_replicas,
        samples_per_cell=config.samples_per_cell,
        seed=config.seed,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"resilience ({record['shards']} shards, "
        f"R={record['replicas']}, kill -9 of shard "
        f"{record.get('victim_shard', '?')} under load):"
    )
    for phase in ("before", "during", "after"):
        row = record[phase]
        latency = row["latency"]
        lines.append(
            f"  {phase:<7} failed {row['failed_queries']} | "
            f"mismatched {row['mismatched_queries']} | "
            f"p50 {latency.get('p50_ms', float('nan')):.1f} ms | "
            f"p99 {latency.get('p99_ms', float('nan')):.1f} ms"
        )
    restored = record.get("snapshots_restored", 0)
    lines.append(
        f"  recovery {record['recovery_s']:.2f}s "
        f"({restored} site(s) snapshot-restored) | warm cold "
        f"{record['cold_warm_s']:.2f}s vs snapshot "
        f"{record['snapshot_warm_s']:.2f}s "
        f"({record['restore_speedup']:.1f}x) | "
        f"{'ZERO LOSS' if record['zero_loss'] else 'QUERIES LOST'}"
    )
    for victim, row in record["kills"].items():
        lines.append(
            f"  kill -9 shard {victim}: failed {row['failed_queries']} | "
            f"mismatched {row['mismatched_queries']} | respawned "
            f"{row['recovered']} in {row['recovery_s'] * 1e3:.0f} ms, "
            f"{row['snapshots_restored']} site(s) snapshot-restored"
        )
    resize = record["resize"]
    lines.append(
        f"  resize {record['shards']}->{resize['grow_to']}->"
        f"{resize['shrink_to']}: moved {resize['grow_moved']} then "
        f"{resize['shrink_moved']} site(s), "
        f"{'bit-identical' if resize['bit_identical'] else 'MISMATCH'}"
    )
    return lines


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
        name="resilience",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="resilience",
    )
)
