"""The serving smoke gates: wire identity, shard identity, resilience.

``python -m repro.serve.check`` (CI's ``frontend-smoke`` and
``resilience-smoke`` steps, also ``make frontend-smoke`` /
``make resilience-smoke``) stands up the full serving stack at toy scale
and asserts the contracts everything in this package is built around:

1. **Wire identity** — a query batch routed through the live wire
   server over every transport it answers (HTTP/1.1 and NDJSON on one
   TCP port, NDJSON on its unix socket, plus pipelined singles and the
   chunk-streamed ``query_trace`` — whose peak per-message bytes must
   also stay flat in trace length) returns cells/positions/scores
   bit-identical to an in-process
   :class:`~repro.serve.service.LocalizationService` built with the same
   seeds. JSON floats round-trip exactly; this gate notices if that, the
   encoding, or the routing ever stops being true.
2. **Shard identity** — a :class:`~repro.serve.shard.ShardedService` with
   N >= 2 workers answers the same query stream bit-identically to N = 1
   and to the in-process service.
3. **Error contract** — a wrong-site query comes back as 404/KeyError
   through the wire, matching the in-process contract.
4. **Resilience** — with 3 shards and R = 2 replicas over snapshots,
   ``kill -9`` of *each* worker in turn under query load loses zero
   queries and changes zero bits; every victim respawns, warms from its
   snapshots (not a re-survey — asserted via the worker's
   ``snapshots_restored`` counter), and a live grow/shrink resize keeps
   answers bit-identical throughout.
5. **Trust (anti-entropy)** — a seed-deterministic ``corrupt`` fault
   bit-flips one replica's fingerprint state; a quorum-read fleet must
   deliver **zero mismatched answers** while alarming
   (``read_divergences``), quarantining, and read-repairing the liar
   from its snapshot. A corrupted *secondary* (no query traffic touches
   it) must be found by the background scrub instead. Killing every
   replica of a site with degraded mode on must answer from the last
   verified snapshot — bit-identical, marked ``stale`` — rather than
   raise. Finally a snapshot-lifecycle soak (update + maintenance per
   day) must keep the snapshot directory bounded by keep-last-K.

``--only wire|shards|resilience`` runs a subset (CI splits the fast
identity gates from the process-killing one; ``resilience`` includes the
trust gates). On failure the workload seed is printed — and written as
JSON via ``--seed-out`` — so CI uploads the exact fault schedule to
replay locally. Exit code 0 means every check held; 1 names what broke.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.engine import cached_scenario
from repro.serve.aio import AioFrontend, AsyncServiceClient
from repro.serve.faults import FaultInjector
from repro.serve.frontend import ServiceClient
from repro.serve.service import LocalizationService
from repro.serve.shard import ShardedService
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario, get_scenario_spec
from repro.sim.trace import LiveTrace
from repro.util.rng import counter_stream, task_key

__all__ = ["main", "run_check", "run_resilience_check", "run_trust_check"]

_DEFAULT_SITES = ("square-3m", "square-4m")
_RESILIENCE_SITES = ("square-3m", "square-4m", "square-5m")
_SECTIONS = ("wire", "shards", "resilience")


def _workloads(
    specs: Dict[str, object],
    protocol: CollectionProtocol,
    frames: int,
    seed: int,
) -> Dict[str, np.ndarray]:
    out = {}
    for index, (site, spec) in enumerate(specs.items()):
        scenario = cached_scenario(spec, build_scenario)
        cells = counter_stream(seed, 500 + index).integers(
            0, scenario.deployment.cell_count, size=frames
        )
        out[site] = RssCollector(
            scenario, protocol, seed=task_key(seed, "frontend-check", site)
        ).live_trace(0.0, cells).rss
    return out


def _identical(wire, reference) -> bool:
    return bool(
        np.array_equal(wire.cells, reference.cells)
        and np.array_equal(wire.positions, reference.positions)
        and (
            wire.scores is None
            or np.array_equal(wire.scores, reference.scores)
        )
    )


def _sync_wire_rows(
    label: str,
    address: str,
    workloads: Dict[str, np.ndarray],
    reference: Dict[str, object],
    unknown_probe_site: str,
) -> List[Tuple[str, bool, str]]:
    """Batch identity per site plus the 404 -> KeyError contract."""
    rows: List[Tuple[str, bool, str]] = []
    with ServiceClient(address) as client:
        for site, rss in workloads.items():
            wire = client.query_batch(site, rss, 0.0, include_scores=True)
            rows.append(
                (
                    f"{label}:{site}",
                    _identical(wire, reference[site]),
                    f"{address} {wire.frame_count} frames",
                )
            )
        try:
            client.query_batch("nowhere", workloads[unknown_probe_site], 0.0)
            rows.append((f"{label}:error-contract", False, "no KeyError"))
        except KeyError:
            rows.append((f"{label}:error-contract", True, "404 -> KeyError"))
    return rows


async def _aio_pipeline_rows(
    address: str,
    service: LocalizationService,
    workloads: Dict[str, np.ndarray],
    reference: Dict[str, object],
) -> List[Tuple[str, bool, str]]:
    """Async-client gates: pipelined singles + streamed-trace identity.

    Pipelined single queries (8 in flight, responses matched by id, may
    complete out of order) must each equal the sequential in-process
    single query; a chunk-streamed ``query_trace`` must reassemble
    bit-identically to the in-process answer, with the client's peak
    per-message bytes flat between a short trace and one 8x longer.
    """
    rows: List[Tuple[str, bool, str]] = []
    async with AsyncServiceClient(address) as client:
        for site, rss in workloads.items():
            results = await client.pipeline_queries(site, rss, 0.0, depth=8)
            singles = [service.query(site, row, 0.0) for row in rss]
            ok = all(
                wire.cell == int(one.cell)
                and wire.position
                == (float(one.position.x), float(one.position.y))
                and wire.score == float(one.scores[one.cell])
                for wire, one in zip(results, singles)
            )
            rows.append(
                (
                    f"aio-pipelined:{site}",
                    ok,
                    f"{len(results)} singles, depth 8",
                )
            )
        site, rss = next(iter(workloads.items()))
        long_rss = np.concatenate([rss] * 8, axis=0)
        trace_reference = service.query_trace(
            site, LiveTrace(day=0.0, rss=long_rss)
        )
        client.reset_peak()
        streamed = await client.query_trace(site, long_rss, 0.0, chunk=16)
        long_peak = client.peak_message_bytes
        client.reset_peak()
        await client.query_trace(site, rss, 0.0, chunk=16)
        short_peak = client.peak_message_bytes
        identical = bool(
            np.array_equal(streamed.cells, trace_reference.cells)
            and np.array_equal(streamed.positions, trace_reference.positions)
        )
        # Flat buffering: peak per-message bytes is set by the chunk
        # size, so an 8x longer trace must not (meaningfully) grow it.
        flat = long_peak <= 2 * short_peak
        rows.append(
            (
                f"aio-stream-trace:{site}",
                identical and flat,
                f"{long_rss.shape[0]} frames, peak msg {long_peak} B "
                f"(vs {short_peak} B for {rss.shape[0]} frames)",
            )
        )
    return rows


def run_check(
    *,
    sites: Tuple[str, ...] = _DEFAULT_SITES,
    frames: int = 16,
    shards: int = 2,
    samples_per_cell: int = 2,
    seed: int = 2016,
    only: Optional[Sequence[str]] = None,
) -> List[Tuple[str, bool, str]]:
    """Run the gates; returns ``(name, passed, detail)`` rows.

    ``only`` restricts to a subset of ``("wire", "shards", "resilience")``;
    ``None`` runs everything.
    """
    sections = tuple(only) if only is not None else _SECTIONS
    for section in sections:
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown section {section!r}; known: {', '.join(_SECTIONS)}"
            )
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    rows: List[Tuple[str, bool, str]] = []
    if not ({"wire", "shards"} & set(sections)):
        if "resilience" in sections:
            rows.extend(run_resilience_check(seed=seed, frames=frames))
            rows.extend(run_trust_check(seed=seed, frames=frames))
        return rows
    specs = {name: get_scenario_spec(name) for name in sites}
    service = LocalizationService.from_specs(specs, protocol=protocol, seed=seed)
    service.warm()
    workloads = _workloads(specs, protocol, frames, seed)
    reference = {
        site: service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }

    if "wire" in sections:
        # 1. Wire identity on the one server, every transport it
        # answers: HTTP/1.1 and NDJSON (tcp://) on one port plus the
        # unix socket, one-at-a-time through the sync client (+ the
        # error contract through the wire). The async client then covers
        # pipelined singles and the chunk-streamed trace (identity + flat
        # peak buffering).
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "serve.sock")
            with AioFrontend(service, unix_path=path) as frontend:
                for label, address in (
                    ("http", frontend.http_address),
                    ("unix", frontend.unix_address),
                    ("aio", frontend.address),
                ):
                    rows.extend(
                        _sync_wire_rows(
                            label, address, workloads, reference, sites[0]
                        )
                    )
                rows.extend(
                    asyncio.run(
                        _aio_pipeline_rows(
                            frontend.address, service, workloads, reference
                        )
                    )
                )

    if "shards" in sections:
        # 3. Shard identity: N workers vs one worker vs in-process.
        for count in sorted({1, shards}):
            with ShardedService(
                specs, shards=count, protocol=protocol, seed=seed
            ) as sharded:
                sharded.warm()
                results = sharded.map_query_batch(
                    [(site, rss, 0.0) for site, rss in workloads.items()]
                )
                for (site, _), result in zip(workloads.items(), results):
                    rows.append(
                        (
                            f"shards={count}:{site}",
                            _identical(result, reference[site]),
                            "worker process" if count == 1 else "fan-out",
                        )
                    )

    if "resilience" in sections:
        rows.extend(run_resilience_check(seed=seed, frames=frames))
        rows.extend(run_trust_check(seed=seed, frames=frames))
    return rows


def run_resilience_check(
    *,
    sites: Tuple[str, ...] = _RESILIENCE_SITES,
    frames: int = 12,
    samples_per_cell: int = 2,
    seed: int = 2016,
    recovery_timeout: float = 60.0,
) -> List[Tuple[str, bool, str]]:
    """The fault gate: kill -9 every worker under load, lose nothing.

    A 3-shard, R = 2 fleet over a snapshot directory serves |sites|
    distinct-scenario sites. For each shard in turn: SIGKILL its worker,
    immediately push the full query workload (every answer must come back
    — zero failed queries — and match the undisturbed in-process
    reference bit for bit), then wait for the background respawn and
    assert the replacement warmed from snapshots rather than re-surveying
    (its manager's ``snapshots_restored`` > 0). Finally a live resize up
    to 4 shards and back down to 2 must keep every answer bit-identical.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {f"site-{name}": get_scenario_spec(name) for name in sites}
    reference_service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed, share_pipelines=False
    )
    reference_service.warm()
    workloads = _workloads(specs, protocol, frames, seed)
    reference = {
        site: reference_service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    rows: List[Tuple[str, bool, str]] = []
    with tempfile.TemporaryDirectory() as tmp:
        with ShardedService(
            specs,
            shards=3,
            replicas=2,
            snapshot_dir=Path(tmp) / "snapshots",
            call_timeout=30.0,
            protocol=protocol,
            seed=seed,
        ) as fleet:
            fleet.warm()
            injector = FaultInjector(fleet)
            for victim in range(3):
                injector.kill(victim)
                failed = 0
                mismatched = 0
                for site, rss in workloads.items():
                    try:
                        result = fleet.query_batch(site, rss, 0.0)
                    except Exception:  # noqa: BLE001 - counted, not raised
                        failed += 1
                        continue
                    if not _identical(result, reference[site]):
                        mismatched += 1
                started = time.monotonic()
                deadline = started + recovery_timeout
                while (
                    not fleet._shards[victim].alive()
                    and time.monotonic() < deadline
                ):
                    fleet.health()  # the monitoring poll drives recovery
                    time.sleep(0.05)
                recovered = fleet._shards[victim].alive()
                recovery_ms = (time.monotonic() - started) * 1e3
                restored = 0
                if recovered:
                    restored = int(
                        fleet._shards[victim]
                        .call("health")
                        .get("snapshots_restored", 0)
                    )
                rows.append(
                    (
                        f"resilience:kill-shard-{victim}",
                        failed == 0 and mismatched == 0 and recovered,
                        f"{failed} failed, {mismatched} mismatched, "
                        f"respawned in {recovery_ms:.0f} ms",
                    )
                )
                rows.append(
                    (
                        f"resilience:snapshot-warm-{victim}",
                        restored > 0,
                        f"{restored} site(s) restored from snapshots",
                    )
                )
            # Post-recovery identity: the full fleet answers like new.
            results = fleet.map_query_batch(
                [(site, rss, 0.0) for site, rss in workloads.items()]
            )
            rows.append(
                (
                    "resilience:post-recovery-identity",
                    all(
                        _identical(result, reference[site])
                        for (site, _), result in zip(
                            workloads.items(), results
                        )
                    ),
                    f"{len(results)} sites, "
                    f"{fleet.router_stats.respawns} respawns",
                )
            )
            # Live resize keeps answering, bit-identically.
            grown = fleet.resize(4)
            grow_ok = all(
                _identical(fleet.query_batch(site, rss, 0.0), reference[site])
                for site, rss in workloads.items()
            )
            shrunk = fleet.resize(2)
            shrink_ok = all(
                _identical(fleet.query_batch(site, rss, 0.0), reference[site])
                for site, rss in workloads.items()
            )
            rows.append(
                (
                    "resilience:resize",
                    grow_ok and shrink_ok,
                    f"3->4 moved {len(grown['moved_sites'])}, "
                    f"4->2 moved {len(shrunk['moved_sites'])}",
                )
            )
    return rows


def run_trust_check(
    *,
    sites: Tuple[str, ...] = ("square-3m", "square-4m"),
    frames: int = 12,
    samples_per_cell: int = 2,
    seed: int = 2016,
) -> List[Tuple[str, bool, str]]:
    """The anti-entropy gate: corruption must never reach a client.

    A 3-shard, R = 2 quorum-read fleet with degraded mode serves two
    distinct-scenario sites. The episode: bit-flip the *primary*
    replica's fingerprint state (seed-deterministic ``corrupt`` fault) —
    every subsequent answer must still match the undisturbed in-process
    reference bit for bit while the router alarms
    (``read_divergences``), quarantines the liar, and repairs it from
    the authoritative snapshot. Then bit-flip a *secondary* replica that
    no read quorum happens to touch and assert the background scrub —
    not client traffic — finds and repairs it. Then kill every replica
    of one site and assert degraded mode answers from the last verified
    snapshot (bit-identical, ``stale`` marked) instead of raising.
    Separately, a snapshot-lifecycle soak (update + maintenance per day
    with keep-last-K retention) must hold the snapshot directory
    bounded.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {f"site-{name}": get_scenario_spec(name) for name in sites}
    reference_service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed, share_pipelines=False
    )
    reference_service.warm()
    workloads = _workloads(specs, protocol, frames, seed)
    reference = {
        site: reference_service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    rows: List[Tuple[str, bool, str]] = []
    site_names = sorted(specs)
    with tempfile.TemporaryDirectory() as tmp:
        with ShardedService(
            specs,
            shards=3,
            replicas=2,
            snapshot_dir=Path(tmp) / "snapshots",
            snapshot_keep=3,
            read_mode="quorum",
            degraded_mode=True,
            call_timeout=30.0,
            protocol=protocol,
            seed=seed,
        ) as fleet:
            fleet.warm()
            injector = FaultInjector(fleet)
            stats = fleet.router_stats

            # 1. Corrupt the primary; quorum reads must hide + repair it.
            target = site_names[0]
            injector.corrupt(fleet.replicas[target][0], site=target, seed=seed)
            failed = mismatched = 0
            for site, rss in workloads.items():
                try:
                    result = fleet.query_batch(site, rss, 0.0)
                except Exception:  # noqa: BLE001 - counted, not raised
                    failed += 1
                    continue
                if not _identical(result, reference[site]) or getattr(
                    result, "stale", False
                ):
                    mismatched += 1
            rows.append(
                (
                    "trust:quorum-read-repair",
                    failed == 0
                    and mismatched == 0
                    and stats.read_divergences >= 1
                    and stats.quarantines >= 1
                    and stats.repairs >= 1,
                    f"{failed} failed, {mismatched} mismatched, "
                    f"{stats.read_divergences} divergence(s), "
                    f"{stats.repairs} repair(s)",
                )
            )
            report = fleet.scrub()
            rows.append(
                (
                    "trust:scrub-clean-after-repair",
                    not report["divergent_sites"]
                    and not fleet.quarantined_replicas(),
                    f"{report['sites_checked']} site(s) checked",
                )
            )

            # 2. Corrupt a secondary: only the scrub can see it.
            other = site_names[1]
            injector.corrupt(
                fleet.replicas[other][1], site=other, seed=seed + 1
            )
            report = fleet.scrub()
            rows.append(
                (
                    "trust:scrub-detects-silent-corruption",
                    other in report["divergent_sites"]
                    and report["repaired"] >= 1,
                    f"divergent={report['divergent_sites']}, "
                    f"repaired {report['repaired']}",
                )
            )
            post = fleet.query_batch(other, workloads[other], 0.0)
            rows.append(
                (
                    "trust:post-scrub-identity",
                    _identical(post, reference[other])
                    and not getattr(post, "stale", False),
                    f"{post.frame_count} frames, "
                    f"{len(fleet.quarantined_replicas())} quarantined",
                )
            )

            # 3. Kill every replica of one site: degraded mode must
            # answer from the last verified snapshot, stale-marked.
            victim = site_names[0]
            for index in set(fleet.replicas[victim]):
                injector.kill(index)
            try:
                stale_result = fleet.query_batch(victim, workloads[victim], 0.0)
            except Exception as error:  # noqa: BLE001 - reported below
                rows.append(("trust:degraded-stale-answer", False, repr(error)))
            else:
                rows.append(
                    (
                        "trust:degraded-stale-answer",
                        bool(getattr(stale_result, "stale", False))
                        and _identical(stale_result, reference[victim]),
                        f"stale={getattr(stale_result, 'stale', False)}, "
                        f"{stats.degraded_answers} degraded answer(s)",
                    )
                )

    # 4. Snapshot lifecycle soak: daily update + maintenance with
    # keep-last-K retention must keep the directory bounded.
    keep, updates = 2, 6
    with tempfile.TemporaryDirectory() as tmp:
        soak = LocalizationService.from_specs(
            {"soak": get_scenario_spec(sites[0])},
            protocol=protocol,
            seed=seed,
            snapshot_dir=tmp,
            snapshot_keep=keep,
        )
        soak.warm()
        # update() auto-snapshots, so prune work can land there rather
        # than in the maintenance pass: measure the store's lifetime
        # prune counters across the whole soak, not one pass's report.
        store = soak.manager.snapshot_store
        counts = []
        for day in range(1, updates + 1):
            soak.update("soak", float(day))
            soak.snapshot_maintenance()
            counts.append(len(list(Path(tmp).glob("*.snap.npz"))))
        removed, reclaimed = store.pruned_files, store.pruned_bytes
        rows.append(
            (
                "trust:snapshot-retention",
                max(counts) <= keep and removed > 0,
                f"max {max(counts)} file(s) on disk (keep={keep}), "
                f"{removed} pruned, {reclaimed} bytes reclaimed "
                f"over {updates} update days",
            )
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.check",
        description="Serving smoke gates: wire/shard identity + resilience.",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=_SECTIONS,
        default=None,
        help="run only this section (repeatable); default: all sections",
    )
    parser.add_argument(
        "--seed", type=int, default=2016, help="workload seed (default 2016)"
    )
    parser.add_argument(
        "--seed-out",
        default=None,
        metavar="PATH",
        help="on failure, write {seed, failed} as JSON here so CI can "
        "upload the exact fault schedule for a local replay",
    )
    args = parser.parse_args(argv)
    rows = run_check(seed=args.seed, only=args.only)
    width = max(len(name) for name, _, _ in rows)
    for name, passed, detail in rows:
        print(f"{name:<{width}}  {'ok' if passed else 'MISMATCH'}  {detail}")
    failed = [name for name, passed, _ in rows if not passed]
    if failed:
        print(
            f"FAIL: {len(failed)} check(s) broke: " + ", ".join(failed),
            file=sys.stderr,
        )
        print(
            f"replay with: python -m repro.serve.check --seed {args.seed}"
            + "".join(f" --only {s}" for s in (args.only or [])),
            file=sys.stderr,
        )
        if args.seed_out:
            Path(args.seed_out).write_text(
                json.dumps(
                    {
                        "seed": args.seed,
                        "only": list(args.only or []),
                        "failed": failed,
                    },
                    indent=2,
                )
                + "\n"
            )
            print(f"fault-schedule seed written to {args.seed_out}",
                  file=sys.stderr)
        return 1
    print(f"serve smoke: all {len(rows)} checks passed (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
