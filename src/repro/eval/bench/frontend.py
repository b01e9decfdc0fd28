"""The ``frontend`` gate section: the wire server's sync transports + shards."""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List

from repro.eval.bench.common import bench_spec, identical, site_workloads
from repro.eval.bench.registry import BenchSection, register
from repro.serve import (
    AioFrontend,
    LocalizationService,
    ServiceClient,
    ShardedService,
)
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_frontend"]

SITES = ("square-3m", "square-4m")
FRAMES = 24
SHARD_COUNTS = (1, 2)
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=10)

#: Every transport of the one wire server, in ``per_site`` key order.
_TRANSPORTS = ("http", "unix", "tcp")


def bench_frontend(seed: int) -> Dict[str, object]:
    """Wire and shard answers vs the in-process service.

    Every transport of the one wire server (HTTP/1.1 and NDJSON on its
    TCP port, NDJSON on its unix socket) and every shard count in
    ``SHARD_COUNTS`` must reproduce the in-process batch answers
    exactly, scores included; a wrong-site query must raise
    ``KeyError`` (HTTP 404) through every transport
    (``error_contract``).
    """
    specs = {name: bench_spec(name) for name in SITES}
    service = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed
    )
    service.warm()
    workloads = site_workloads(
        specs, PROTOCOL, FRAMES, seed, offset=300, label="frontend-workload"
    )
    reference = {
        site: service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    per_site: Dict[str, Dict[str, bool]] = {site: {} for site in workloads}
    error_contract: Dict[str, bool] = {}

    def raises_key_error(client) -> bool:
        try:
            client.query_batch("nowhere", next(iter(workloads.values())), 0.0)
        except KeyError:
            return True
        return False

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "bench.sock")
        with AioFrontend(service, unix_path=path) as frontend:
            for transport, address in (
                ("http", frontend.http_address),
                ("unix", frontend.unix_address),
                ("tcp", frontend.address),
            ):
                with ServiceClient(address) as client:
                    for site, rss in workloads.items():
                        wire = client.query_batch(
                            site, rss, 0.0, include_scores=True
                        )
                        per_site[site][f"{transport}_bit_identical"] = (
                            identical(wire, reference[site])
                        )
                    error_contract[transport] = raises_key_error(client)

    # Fan the per-site batches out to n worker processes.
    requests = [(site, rss, 0.0) for site, rss in workloads.items()]
    shards: Dict[str, Dict[str, bool]] = {}
    for count in SHARD_COUNTS:
        with ShardedService(
            specs, shards=count, protocol=PROTOCOL, seed=seed
        ) as sharded:
            sharded.warm()
            results = sharded.map_query_batch(requests)
            shards[str(count)] = {
                "bit_identical": all(
                    identical(result, reference[site])
                    for (site, _, _), result in zip(requests, results)
                )
            }
    return {
        "per_site": per_site,
        "shards": shards,
        "error_contract": error_contract,
    }


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
    BenchSection(name="frontend", run=bench_frontend, smoke_gates=_smoke_gates)
)
