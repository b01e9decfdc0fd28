"""The ``trust`` bench section: quorum reads, corruption repair, soak."""

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
from repro.serve.faults import FaultInjector
from repro.sim.collector import CollectionProtocol
from repro.util.stats import latency_summary

__all__ = ["bench_trust"]


def bench_trust(
    *,
    sites: Sequence[str] = ("square-3m", "square-4m"),
    shards: int = 3,
    replicas: int = 2,
    frames: int = 24,
    operations: int = 20,
    samples_per_cell: int = 2,
    soak_days: int = 8,
    snapshot_keep: int = 2,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Benchmark the anti-entropy trust layer (the PR-7 sections).

    * **quorum overhead** — the same workload through a failover fleet
      and a quorum fleet over identical snapshots: what cross-checking
      every read against all replicas costs in p50/p99 and q/s.
    * **corruption episode** — a seed-deterministic bit flip in one
      replica's fingerprint state, then the workload: wall time until
      the divergence is detected and the liar repaired, with the
      mismatched-answer count clients saw (the target is zero), plus a
      scrub pass time for scale (that scrub must find nothing left to
      repair and nothing quarantined).
    * **silent corruption** — a bit flip in a *secondary* replica no
      read touches: the scrub alone must find and repair it, after
      which the site answers bit-identically and fresh.
    * **degraded serving** — every replica of one site killed: the
      quorum fleet (``degraded_mode``) must answer from the last
      verified snapshot, bit-identical and marked ``stale``.
    * **snapshot soak** — ``soak_days`` of daily update + lifecycle
      maintenance under keep-last-``snapshot_keep``: max files on disk,
      prune totals, final directory bytes — the boundedness record the
      PR-7 acceptance criterion points at (``files_pruned`` > 0 shows
      retention actually ran).
    * **drift sentinel** — one measured-drift probe per site: reading
      and wall time (what a ``policy="drift"`` scheduler tick pays).
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
        specs, protocol, frames, seed, offset=700, label="trust-workload"
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

    def run_phase(fleet: ShardedService, count: int) -> Dict[str, object]:
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
            if not identical(result, expected[site]) or getattr(
                result, "stale", False
            ):
                mismatched += 1
        return {
            "failed_queries": failed,
            "mismatched_queries": mismatched,
            "latency": latency_summary(latencies),
        }

    for read_mode in ("failover", "quorum"):
        with tempfile.TemporaryDirectory() as tmp:
            fleet = ShardedService(
                specs,
                shards=shards,
                replicas=replicas,
                snapshot_dir=Path(tmp) / "snapshots",
                read_mode=read_mode,
                degraded_mode=read_mode == "quorum",
                call_timeout=60.0,
                protocol=protocol,
                seed=seed,
            )
            try:
                fleet.warm()
                record[read_mode] = run_phase(fleet, operations)
                if read_mode == "quorum":
                    # The corruption episode, on the quorum fleet.
                    injector = FaultInjector(fleet)
                    target = site_list[0]
                    begin = time.perf_counter()
                    injector.corrupt(
                        fleet.replicas[target][0], site=target, seed=seed
                    )
                    episode = run_phase(fleet, operations)
                    record["corruption_episode"] = {
                        **episode,
                        "detect_and_repair_s": time.perf_counter() - begin,
                        "read_divergences": fleet.router_stats.read_divergences,
                        "quarantines": fleet.router_stats.quarantines,
                        "repairs": fleet.router_stats.repairs,
                    }
                    begin = time.perf_counter()
                    scrub = fleet.scrub()
                    record["scrub"] = {
                        "pass_s": time.perf_counter() - begin,
                        "sites_checked": scrub["sites_checked"],
                        "divergent_sites": scrub["divergent_sites"],
                        "quarantined": len(fleet.quarantined_replicas()),
                    }

                    # A corrupted secondary: only the scrub can see it.
                    other = site_list[-1]
                    injector.corrupt(
                        fleet.replicas[other][1], site=other, seed=seed + 1
                    )
                    scrub = fleet.scrub()
                    post = fleet.query_batch(other, workloads[other], 0.0)
                    record["silent_corruption"] = {
                        "site": other,
                        "detected": other in scrub["divergent_sites"],
                        "repaired": int(scrub["repaired"]),
                        "post_scrub_bit_identical": identical(
                            post, expected[other]
                        )
                        and not getattr(post, "stale", False),
                    }

                    # Every replica of one site down: degraded mode
                    # answers from the last verified snapshot.
                    target = site_list[0]
                    for index in sorted(set(fleet.replicas[target])):
                        injector.kill(index)
                    degraded: Dict[str, object] = {"site": target}
                    try:
                        result = fleet.query_batch(
                            target, workloads[target], 0.0
                        )
                    except OSError as error:
                        degraded.update(
                            stale=False, bit_identical=False, error=repr(error)
                        )
                    else:
                        degraded.update(
                            stale=bool(getattr(result, "stale", False)),
                            bit_identical=identical(result, expected[target]),
                            error=None,
                        )
                    degraded["degraded_answers"] = (
                        fleet.router_stats.degraded_answers
                    )
                    record["degraded"] = degraded
                    # Let the background respawns finish before close()
                    # so shutdown never races a half-spawned worker.
                    for index in sorted(set(fleet.replicas[target])):
                        respawned(fleet, index, 60.0)
            finally:
                fleet.close()
    failover_p50 = record["failover"]["latency"].get("p50_ms", 0.0)
    quorum_p50 = record["quorum"]["latency"].get("p50_ms", 0.0)
    record["quorum_overhead_x"] = (
        quorum_p50 / failover_p50 if failover_p50 > 0 else float("inf")
    )

    # Snapshot-lifecycle soak: the directory must stay bounded.
    with tempfile.TemporaryDirectory() as tmp:
        soak = LocalizationService.from_specs(
            {site_list[0]: specs[site_list[0]]},
            protocol=protocol,
            seed=seed,
            snapshot_dir=tmp,
            snapshot_keep=snapshot_keep,
        )
        soak.warm()
        store = soak.manager.snapshot_store
        max_files = 0
        for day in range(1, soak_days + 1):
            soak.update(site_list[0], float(day))
            maintenance = soak.manager.snapshot_maintenance()
            max_files = max(max_files, len(store.files()))
        record["snapshot_soak"] = {
            "days": int(soak_days),
            "keep_last": int(snapshot_keep),
            "max_files_on_disk": int(max_files),
            "files_pruned": int(store.pruned_files),
            "bytes_reclaimed": int(store.pruned_bytes),
            "final_bytes": int(maintenance["total_bytes"]),
            "bounded": bool(max_files <= snapshot_keep),
        }

    # Drift sentinel: the cost and reading of one measured-drift probe.
    drift: Dict[str, object] = {}
    for site in site_list:
        begin = time.perf_counter()
        reading = reference.drift(site, 0.0, frames=frames)
        drift[site] = {
            "probe_s": time.perf_counter() - begin,
            "degradation_m": float(reading["degradation_m"]),
        }
    record["drift"] = drift
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.trust_sites is None:
        return None
    return bench_trust(
        sites=config.trust_sites,
        samples_per_cell=config.samples_per_cell,
        seed=config.seed,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"trust ({record['shards']} shards, R={record['replicas']}, "
        "anti-entropy):"
    )
    for mode in ("failover", "quorum"):
        latency = record[mode]["latency"]
        lines.append(
            f"  {mode:<8} p50 "
            f"{latency.get('p50_ms', float('nan')):.1f} ms | p99 "
            f"{latency.get('p99_ms', float('nan')):.1f} ms | "
            f"mismatched {record[mode]['mismatched_queries']}"
        )
    episode = record["corruption_episode"]
    lines.append(
        f"  corrupt   quorum overhead {record['quorum_overhead_x']:.2f}x"
        f" | episode {episode['detect_and_repair_s']:.2f}s | "
        f"{episode['read_divergences']} divergence(s), "
        f"{episode['repairs']} repair(s) | mismatched "
        f"{episode['mismatched_queries']}"
    )
    silent = record["silent_corruption"]
    degraded = record["degraded"]
    lines.append(
        f"  scrub     after repair {len(record['scrub']['divergent_sites'])} "
        f"divergent, {record['scrub']['quarantined']} quarantined | silent "
        f"{silent['site']} detected={silent['detected']}, "
        f"{silent['repaired']} repaired | degraded {degraded['site']} "
        f"stale={degraded['stale']}, "
        f"{'bit-identical' if degraded['bit_identical'] else 'MISMATCH'}"
    )
    soak = record["snapshot_soak"]
    lines.append(
        f"  soak      {soak['days']} d, keep {soak['keep_last']}: "
        f"max {soak['max_files_on_disk']} file(s), "
        f"{soak['files_pruned']} pruned, "
        f"{soak['final_bytes']} B final | "
        f"{'BOUNDED' if soak['bounded'] else 'UNBOUNDED'}"
    )
    probes = ", ".join(
        f"{site} {row['degradation_m']:.2f} m in {row['probe_s']:.2f}s"
        for site, row in record["drift"].items()
    )
    lines.append(f"  drift     {probes}")
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    episode = record["corruption_episode"]
    if episode["mismatched_queries"] != 0 or episode["failed_queries"] != 0:
        failures.append(
            "trust: corruption episode leaked wrong or failed answers"
        )
    if (
        episode["read_divergences"] < 1
        or episode["quarantines"] < 1
        or episode["repairs"] < 1
    ):
        failures.append(
            "trust: corruption was not detected, quarantined and repaired"
        )
    scrub = record["scrub"]
    if scrub["divergent_sites"] or scrub["quarantined"]:
        failures.append(
            "trust: scrub after repair is not clean "
            f"(divergent_sites={scrub['divergent_sites']}, "
            f"quarantined={scrub['quarantined']})"
        )
    silent = record["silent_corruption"]
    if not silent["detected"] or silent["repaired"] < 1:
        failures.append(
            "trust: silent_corruption of a secondary was not found and "
            f"repaired by the scrub (detected={silent['detected']}, "
            f"repaired={silent['repaired']})"
        )
    if not silent["post_scrub_bit_identical"]:
        failures.append(
            "trust: silent_corruption.post_scrub_bit_identical is false"
        )
    degraded = record["degraded"]
    if not (degraded["stale"] and degraded["bit_identical"]):
        failures.append(
            "trust: degraded answer with every replica down is not a "
            f"bit-identical stale answer (stale={degraded['stale']}, "
            f"bit_identical={degraded['bit_identical']}, "
            f"error={degraded['error']})"
        )
    soak = record["snapshot_soak"]
    if not soak["bounded"]:
        failures.append("trust: snapshot directory growth is unbounded")
    if soak["files_pruned"] <= 0:
        failures.append(
            "trust: snapshot_soak.files_pruned is 0 (retention never ran)"
        )
    return failures


register(
    BenchSection(
        name="trust",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="trust",
    )
)
