"""The ``frontend`` bench section: the wire server's sync transports + shards."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    best_of,
)
from repro.eval.bench.registry import BenchSection, register
from repro.eval.engine import cached_scenario
from repro.serve import (
    AioFrontend,
    LocalizationService,
    ServiceClient,
    ShardedService,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario
from repro.util.rng import counter_stream, task_key
from repro.util.stats import latency_summary, timed_singles

__all__ = ["bench_frontend"]


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

    * **wire vs in-process** — the wire server's HTTP and unix-socket
      NDJSON transports, driven one request at a time by the sync
      client, answer the same single queries and batches as direct
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
      reproduce the in-process answers exactly; the smoke run gates CI
      on these flags.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )
    specs = {name: bench_spec(name) for name in sites}
    service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    service.warm()
    workloads: Dict[str, np.ndarray] = {}
    for index, (site, spec) in enumerate(specs.items()):
        scenario = cached_scenario(spec, build_scenario)
        cells = counter_stream(seed, 300 + index).integers(
            0, scenario.deployment.cell_count, size=frames
        )
        workloads[site] = RssCollector(
            scenario, protocol, seed=task_key(seed, "frontend-workload", site)
        ).live_trace(0.0, cells).rss
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
    }

    def wire_rates(client) -> Dict[str, Dict[str, float]]:
        rates: Dict[str, Dict[str, float]] = {}
        for site, rss in workloads.items():
            wire = client.query_batch(site, rss, 0.0)  # warm-up + identity
            identical = bool(
                np.array_equal(wire.cells, reference[site].cells)
                and np.array_equal(wire.positions, reference[site].positions)
            )
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
                "bit_identical": identical,
            }
        return rates

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
            ):
                with ServiceClient(address) as client:
                    for site, rates in wire_rates(client).items():
                        row = record["per_site"][site]
                        for key, value in rates.items():
                            row[f"{transport}_{key}"] = value
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
            identical = all(
                np.array_equal(result.cells, reference[site].cells)
                and np.array_equal(result.positions, reference[site].positions)
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
                "bit_identical": bool(identical),
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
        identical = (
            "bit-identical"
            if row.get("http_bit_identical")
            and row.get("unix_bit_identical")
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
            f"http batch {row['http_batch_qps']:,.0f} q/s ({identical})"
        )
    for count, row in record["shards"].items():
        identical = "bit-identical" if row["bit_identical"] else "MISMATCH"
        lines.append(
            f"  shards={count}: warm {row['warm_s']:.2f}s | fan-out "
            f"{row['fanout_batch_qps']:,.0f} q/s "
            f"({row['scaling_x']:.2f}x vs 1 worker, {identical})"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    wire_ok = all(
        row["http_bit_identical"] and row["unix_bit_identical"]
        for row in record["per_site"].values()
    )
    shard_ok = all(
        row["bit_identical"] for row in record["shards"].values()
    )
    if not (wire_ok and shard_ok):
        return ["wire/shard answers differ from in-process service"]
    return []


register(
    BenchSection(
        name="frontend",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="frontend",
    )
)
