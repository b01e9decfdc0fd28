"""The ``trust`` gate section: quorum reads, corruption repair, soak."""

from __future__ import annotations

import tempfile
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
from repro.serve.faults import FaultInjector
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_trust"]

SITES = ("square-3m", "square-4m")
SHARDS = 3
REPLICAS = 2
FRAMES = 24
OPERATIONS = 20
SOAK_DAYS = 8
SNAPSHOT_KEEP = 2
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)


def bench_trust(seed: int) -> Dict[str, object]:
    """Corrupt replicas of a quorum fleet and check the anti-entropy layer.

    * **corruption episode** — a seed-deterministic bit flip in one
      replica's fingerprint state, then the workload: clients must see
      no wrong or failed answer while the divergence is detected, the
      liar quarantined and repaired; a scrub afterwards must find
      nothing left to repair and nothing quarantined.
    * **silent corruption** — a bit flip in a *secondary* replica no
      read touches: the scrub alone must find and repair it, after
      which the site answers bit-identically and fresh.
    * **degraded serving** — every replica of one site killed: the
      quorum fleet (``degraded_mode``) must answer from the last
      verified snapshot, bit-identical and marked ``stale``.
    * **snapshot soak** — ``SOAK_DAYS`` of daily update + lifecycle
      maintenance under keep-last-``SNAPSHOT_KEEP``: the directory must
      stay bounded, and ``files_pruned`` > 0 shows retention ran.
    """
    specs = {f"site-{name}": bench_spec(name) for name in SITES}
    reference = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed, share_pipelines=False
    )
    reference.warm()
    workloads = site_workloads(
        specs, PROTOCOL, FRAMES, seed, offset=700, label="trust-workload"
    )
    expected = {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    site_list = list(specs)
    record: Dict[str, object] = {}

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
            if not identical(result, expected[site]) or getattr(
                result, "stale", False
            ):
                mismatched += 1
        return {"failed_queries": failed, "mismatched_queries": mismatched}

    with tempfile.TemporaryDirectory() as tmp, ShardedService(
        specs,
        shards=SHARDS,
        replicas=REPLICAS,
        snapshot_dir=Path(tmp) / "snapshots",
        read_mode="quorum",
        degraded_mode=True,
        call_timeout=60.0,
        protocol=PROTOCOL,
        seed=seed,
    ) as fleet:
        fleet.warm()
        record["quorum"] = run_phase(fleet)
        injector = FaultInjector(fleet)
        target = site_list[0]
        injector.corrupt(fleet.replicas[target][0], site=target, seed=seed)
        record["corruption_episode"] = {
            **run_phase(fleet),
            "read_divergences": fleet.router_stats.read_divergences,
            "quarantines": fleet.router_stats.quarantines,
            "repairs": fleet.router_stats.repairs,
        }
        scrub = fleet.scrub()
        record["scrub"] = {
            "divergent_sites": scrub["divergent_sites"],
            "quarantined": len(fleet.quarantined_replicas()),
        }

        # A corrupted secondary: only the scrub can see it.
        other = site_list[-1]
        injector.corrupt(fleet.replicas[other][1], site=other, seed=seed + 1)
        scrub = fleet.scrub()
        post = fleet.query_batch(other, workloads[other], 0.0)
        record["silent_corruption"] = {
            "site": other,
            "detected": other in scrub["divergent_sites"],
            "repaired": int(scrub["repaired"]),
            "post_scrub_bit_identical": identical(post, expected[other])
            and not getattr(post, "stale", False),
        }

        # Every replica of one site down: degraded mode answers from the
        # last verified snapshot.
        for index in sorted(set(fleet.replicas[target])):
            injector.kill(index)
        degraded: Dict[str, object] = {"site": target}
        try:
            result = fleet.query_batch(target, workloads[target], 0.0)
        except OSError as error:
            degraded.update(stale=False, bit_identical=False, error=repr(error))
        else:
            degraded.update(
                stale=bool(getattr(result, "stale", False)),
                bit_identical=identical(result, expected[target]),
                error=None,
            )
        record["degraded"] = degraded
        # Let the background respawns finish before close() so shutdown
        # never races a half-spawned worker.
        for index in sorted(set(fleet.replicas[target])):
            respawned(fleet, index, 60.0)

    # Snapshot-lifecycle soak: the directory must stay bounded.
    with tempfile.TemporaryDirectory() as tmp:
        soak = LocalizationService.from_specs(
            {target: specs[target]},
            protocol=PROTOCOL,
            seed=seed,
            snapshot_dir=tmp,
            snapshot_keep=SNAPSHOT_KEEP,
        )
        soak.warm()
        store = soak.manager.snapshot_store
        max_files = 0
        for day in range(1, SOAK_DAYS + 1):
            soak.update(target, float(day))
            soak.manager.snapshot_maintenance()
            max_files = max(max_files, len(store.files()))
        record["snapshot_soak"] = {
            "max_files_on_disk": int(max_files),
            "files_pruned": int(store.pruned_files),
            "bounded": bool(max_files <= SNAPSHOT_KEEP),
        }
    return record


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


register(BenchSection(name="trust", run=bench_trust, smoke_gates=_smoke_gates))
