"""The ``frontend`` bench section: the wire server's sync transports + shards."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    best_of,
    identical,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import (
    AioFrontend,
    LocalizationService,
    ServiceClient,
    ShardedService,
)
from repro.sim.collector import CollectionProtocol
from repro.util.stats import latency_summary, timed_singles

__all__ = ["bench_frontend"]

#: Every transport of the one wire server, in ``per_site`` key order.
_TRANSPORTS = ("http", "unix", "tcp")


def bench_frontend(
    *,
    sites: Sequence[str] = ("paper", "square-6m"),
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
    shard_counts: Sequence[int] = (1, 2),
    singles: int = 100,
) -> Dict[str, object]:
    """Benchmark the wire front-end and the shard layer.

    Three comparisons, all on the same per-site workloads:

    * **wire vs in-process** — every transport of the one wire server
      (HTTP/1.1 and NDJSON on its TCP port, NDJSON on its unix socket),
      driven one request at a time by the sync client, answers the same
      single queries and batches as direct
      :class:`~repro.serve.service.LocalizationService` calls;
      ``wire_overhead_x`` is in-process single-query throughput over HTTP
      single-query throughput (i.e. what one JSON round trip costs), and
      ``http_roundtrip_ms`` is the measured per-query wire latency.
    * **shard scaling** — a :class:`~repro.serve.shard.ShardedService`
      fans per-site batches out to ``n`` worker processes
      (:meth:`~repro.serve.shard.ShardedService.map_query_batch`);
      ``scaling_x`` is the fan-out throughput of ``n`` workers over 1
      worker (≈1 on a single core, → min(shards, cores, sites) on a
      multi-core host because workers own disjoint site sets).
    * **bit-identity** — every transport and every shard count must
      reproduce the in-process answers exactly, scores included; a
      wrong-site query must raise ``KeyError`` (HTTP 404) through every
      transport (``error_contract``). The smoke run gates CI on these
      flags.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )
    specs = {name: bench_spec(name) for name in sites}
    service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    service.warm()
    workloads = site_workloads(
        specs, protocol, frames, seed, offset=300, label="frontend-workload"
    )
    reference = {
        site: service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }

    record: Dict[str, object] = {
        "sites": list(sites),
        "frames": int(frames),
        "singles": int(singles),
        "per_site": {},
        "shards": {},
        "error_contract": {},
    }

    def wire_rates(client) -> Dict[str, Dict[str, float]]:
        rates: Dict[str, Dict[str, float]] = {}
        for site, rss in workloads.items():
            # Warm-up + identity (scores included; the timed calls below
            # skip them, as a real client would).
            wire = client.query_batch(site, rss, 0.0, include_scores=True)
            batch_s = best_of(
                lambda: client.query_batch(site, rss, 0.0), repeat
            )
            head = rss[: min(frames, singles)]
            single_s = best_of(
                lambda: [client.query(site, frame, 0.0) for frame in head],
                repeat,
            )
            latencies = timed_singles(
                lambda frame: client.query(site, frame, 0.0), head
            )
            rates[site] = {
                "batch_qps": frames / batch_s if batch_s > 0 else float("inf"),
                "single_qps": (
                    len(head) / single_s if single_s > 0 else float("inf")
                ),
                "roundtrip_ms": 1000.0 * single_s / len(head),
                "latency": latency_summary(latencies),
                "bit_identical": identical(wire, reference[site]),
            }
        return rates

    def raises_key_error(client) -> bool:
        try:
            client.query_batch("nowhere", next(iter(workloads.values())), 0.0)
        except KeyError:
            return True
        return False

    # In-process baseline on identical workloads.
    for site, rss in workloads.items():
        batch_s = best_of(lambda: service.query_batch(site, rss, 0.0), repeat)
        head = rss[: min(frames, singles)]
        single_s = best_of(
            lambda: [service.query(site, frame, 0.0) for frame in head],
            repeat,
        )
        record["per_site"][site] = {
            "inproc_batch_qps": (
                frames / batch_s if batch_s > 0 else float("inf")
            ),
            "inproc_single_qps": (
                len(head) / single_s if single_s > 0 else float("inf")
            ),
            "inproc_latency": latency_summary(
                timed_singles(
                    lambda frame: service.query(site, frame, 0.0), head
                )
            ),
        }

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "bench.sock")
        with AioFrontend(service, unix_path=path) as frontend:
            for transport, address in (
                ("http", frontend.http_address),
                ("unix", frontend.unix_address),
                ("tcp", frontend.address),
            ):
                with ServiceClient(address) as client:
                    for site, rates in wire_rates(client).items():
                        row = record["per_site"][site]
                        for key, value in rates.items():
                            row[f"{transport}_{key}"] = value
                    record["error_contract"][transport] = raises_key_error(
                        client
                    )
    for row in record["per_site"].values():
        row["wire_overhead_x"] = (
            row["inproc_single_qps"] / row["http_single_qps"]
            if row["http_single_qps"] > 0
            else float("inf")
        )

    # Shard scaling: fan the per-site batches out to n worker processes.
    requests = [(site, rss, 0.0) for site, rss in workloads.items()]
    total_frames = frames * len(workloads)
    base_qps: Optional[float] = None
    for count in shard_counts:
        with ShardedService(
            specs, shards=count, protocol=protocol, seed=seed
        ) as sharded:
            start = time.perf_counter()
            sharded.warm()
            warm_s = time.perf_counter() - start
            results = sharded.map_query_batch(requests)  # warm-up + identity
            shard_identical = all(
                identical(result, reference[site])
                for (site, _, _), result in zip(requests, results)
            )
            fanout_s = best_of(
                lambda: sharded.map_query_batch(requests), repeat
            )
            qps = total_frames / fanout_s if fanout_s > 0 else float("inf")
            if base_qps is None:
                base_qps = qps
            record["shards"][str(count)] = {
                "warm_s": warm_s,
                "fanout_batch_qps": qps,
                "scaling_x": qps / base_qps if base_qps > 0 else float("inf"),
                "bit_identical": shard_identical,
            }
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.frontend_sites is None:
        return None
    return bench_frontend(
        sites=config.frontend_sites,
        frames=config.frames,
        samples_per_cell=config.samples_per_cell,
        repeat=config.repeat,
        seed=config.seed,
        shard_counts=config.frontend_shards,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"wire front-end ({len(record['sites'])} site(s), "
        f"{record['frames']} frames/batch, "
        f"{record['singles']} single round trips):"
    )
    for site, row in record["per_site"].items():
        status = (
            "bit-identical"
            if all(row.get(f"{t}_bit_identical") for t in _TRANSPORTS)
            else "MISMATCH"
        )
        latency = row.get("http_latency", {})
        lines.append(
            f"  {site:<12} in-proc {row['inproc_single_qps']:,.0f} q/s | "
            f"http {row['http_single_qps']:,.0f} q/s "
            f"(p50/p95/p99 {latency.get('p50_ms', float('nan')):.2f}/"
            f"{latency.get('p95_ms', float('nan')):.2f}/"
            f"{latency.get('p99_ms', float('nan')):.2f} ms, "
            f"{row['wire_overhead_x']:.1f}x overhead) | "
            f"unix {row['unix_single_qps']:,.0f} q/s | "
            f"tcp {row['tcp_single_qps']:,.0f} q/s | "
            f"http batch {row['http_batch_qps']:,.0f} q/s ({status})"
        )
    for count, row in record["shards"].items():
        status = "bit-identical" if row["bit_identical"] else "MISMATCH"
        lines.append(
            f"  shards={count}: warm {row['warm_s']:.2f}s | fan-out "
            f"{row['fanout_batch_qps']:,.0f} q/s "
            f"({row['scaling_x']:.2f}x vs 1 worker, {status})"
        )
    contract = ", ".join(
        f"{t} {'ok' if ok else 'BROKEN'}"
        for t, ok in record["error_contract"].items()
    )
    lines.append(f"  wrong-site 404 -> KeyError: {contract}")
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    for site, row in record["per_site"].items():
        for transport in _TRANSPORTS:
            if not row[f"{transport}_bit_identical"]:
                failures.append(
                    f"frontend: {site} {transport}_bit_identical is false "
                    "(wire answers differ from in-process service)"
                )
    for count, row in record["shards"].items():
        if not row["bit_identical"]:
            failures.append(
                f"frontend: shards.{count}.bit_identical is false "
                "(shard answers differ from in-process service)"
            )
    for transport, ok in record["error_contract"].items():
        if not ok:
            failures.append(
                f"frontend: error_contract.{transport} is false "
                "(wrong-site query did not raise KeyError)"
            )
    return failures


register(
    BenchSection(
        name="frontend",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="frontend",
    )
)
