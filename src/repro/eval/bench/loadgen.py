"""The ``loadgen`` bench section: SLO saturation search + many-site soak.

The PR-10 headline measurement: for each (transport, shard count) the
open-loop driver finds the maximum offered rate the serving stack
sustains under the latency SLO (``max_sustained_qps`` — zero failed,
zero mismatched, tail percentile within bound, achieved rate keeping up
with offered). Alongside it: a closed-loop comparison run (the classic
self-limiting client model, reported next to the open loop, never
instead of it), a scheduler-perturbation A/B (background refresh under
load vs tail latency, answers still bit-identical at the queried day),
and the 1k–10k registered-site soak (memory + routing-table stats).
Every block is schema-validated by :mod:`repro.loadgen.schema` — the
``loadgen-smoke`` CI gate rides these records.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.loadgen.driver import (
    DriverResult,
    expected_answers,
    run_closed_loop,
    run_open_loop,
    run_open_loop_aio,
)
from repro.loadgen.plan import closed_loop_plan, open_loop_plan
from repro.loadgen.schema import validate_loadgen_section
from repro.loadgen.slo import find_max_sustained_qps
from repro.loadgen.soak import run_site_soak
from repro.serve import (
    AioFrontend,
    LocalizationService,
    SchedulerConfig,
    ServiceClient,
    ShardedService,
    SimClock,
    UpdateScheduler,
)
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_loadgen"]


def bench_loadgen(
    *,
    sites: Sequence[str] = ("square-3m", "square-4m"),
    seed: int = BENCH_SEED,
    transports: Sequence[str] = ("http", "aio"),
    shard_counts: Sequence[int] = (1, 2),
    slo_ms: float = 50.0,
    percentile: str = "p99_ms",
    requests: int = 240,
    start_qps: float = 100.0,
    max_qps: float = 50_000.0,
    zipf_s: float = 1.1,
    process: str = "poisson",
    clients: int = 4,
    frames: int = 16,
    samples_per_cell: int = 2,
    soak_sites: int = 0,
    perturb: bool = True,
) -> Dict[str, object]:
    """Find max-sustained-q/s under the SLO per (transport, shards).

    For every transport of the one wire server in ``transports``
    (``http`` — its HTTP/1.1 framing, driven by sync clients; ``aio`` —
    pipelined NDJSON over TCP; ``unix`` — NDJSON on its unix socket,
    driven by sync clients) crossed with every count in ``shard_counts``
    (1 = the in-process service backs the front-end directly, n > 1 = a
    :class:`~repro.serve.shard.ShardedService` fleet backs it), an
    open-loop saturation search (:func:`~repro.loadgen.slo.find_max_sustained_qps`)
    probes seeded-``process``-arrival plans of ``requests`` queries,
    Zipf(``zipf_s``)-skewed over ``sites``, rebuilding the plan per
    offered rate — every answer checked bit-for-bit against the
    in-process service. All latency is recorded from *planned* send
    times (coordinated-omission-free), so an overloaded probe fails the
    SLO with queue delay in its tail instead of quietly throttling.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {name: bench_spec(name) for name in sites}
    site_list = list(specs)
    reference = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    reference.warm()
    workloads = site_workloads(
        specs, protocol, frames, seed, offset=900, label="loadgen-workload"
    )
    expected = expected_answers(reference, workloads, 0.0)

    def plan_at(rate: float):
        return open_loop_plan(
            sites=site_list,
            seed=seed,
            rate_qps=rate,
            requests=requests,
            process=process,
            zipf_s=zipf_s,
            clients=clients,
        )

    canonical = plan_at(start_qps)
    record: Dict[str, object] = {
        "sites": site_list,
        "plan": canonical.describe(),
        # The determinism gate: the same (seed, knobs) must rebuild the
        # exact same schedule, byte for byte.
        "plan_bit_identical": bool(
            canonical.fingerprint() == plan_at(start_qps).fingerprint()
        ),
        "slo_ms": float(slo_ms),
        "percentile": percentile,
        "requests": int(requests),
        "zipf_s": float(zipf_s),
        "process": process,
        "saturation": {},
    }

    def search_with(
        run_at: Callable[[float], Dict[str, object]],
    ) -> Dict[str, object]:
        return find_max_sustained_qps(
            run_at,
            slo_ms=slo_ms,
            percentile=percentile,
            start_qps=start_qps,
            max_qps=max_qps,
        ).as_dict()

    def drive(transport: str, address: str, rate: float) -> DriverResult:
        if transport == "aio":
            return run_open_loop_aio(
                plan_at(rate),
                address,
                workloads,
                expected=expected,
                connections=2,
            )
        return run_open_loop(
            plan_at(rate),
            lambda: ServiceClient(address, retries=0),
            workloads,
            expected=expected,
            transport=transport,
        )

    for transport in transports:
        if transport not in ("http", "aio", "unix"):
            raise ValueError(
                f"unknown loadgen transport {transport!r} "
                "(known: http, aio, unix)"
            )
    for shards in shard_counts:
        if shards == 1:
            backend = reference
        else:
            backend = ShardedService(
                specs, shards=shards, protocol=protocol, seed=seed
            )
            backend.warm()
        try:
            for transport in transports:
                # One wire server per probe series; the transport picks
                # which of its addresses the driver dials.
                with tempfile.TemporaryDirectory() as tmp, AioFrontend(
                    backend, unix_path=str(Path(tmp) / "loadgen.sock")
                ) as frontend:
                    address = {
                        "http": frontend.http_address,
                        "unix": frontend.unix_address,
                        "aio": frontend.address,
                    }[transport]
                    result = search_with(
                        lambda rate: drive(transport, address, rate).summary()
                    )
                record["saturation"][f"{transport}-shards{shards}"] = dict(
                    result, transport=transport, shards=int(shards)
                )
        finally:
            if backend is not reference:
                backend.close()

    # Closed-loop comparison on the plain http/1-shard path: the classic
    # self-limiting client model, reported alongside the open loop.
    closed = closed_loop_plan(
        sites=site_list,
        seed=seed,
        clients=clients,
        requests_per_client=max(1, requests // clients),
        zipf_s=zipf_s,
    )
    with AioFrontend(reference) as frontend:
        address = frontend.http_address
        record["closed_loop"] = run_closed_loop(
            closed,
            lambda: ServiceClient(address, retries=0),
            workloads,
            expected=expected,
            transport="http",
        ).summary()

    # Scheduler perturbation: the same fixed-rate open-loop run with and
    # without background refresh ticking against the same service. The
    # queries stay pinned at day 0.0, so epoch selection ignores the
    # later-day updates the scheduler appends — answers must stay
    # bit-identical; only the tail is allowed to move.
    if perturb:
        quiet = run_open_loop(
            plan_at(start_qps),
            lambda: reference,
            workloads,
            expected=expected,
            transport="inproc",
        ).summary()
        scheduler = UpdateScheduler(
            reference,
            SchedulerConfig(policy="interval", interval_days=1.0, cold="skip"),
        )
        scheduler.start(
            SimClock(0.0, days_per_second=100.0), period_seconds=0.05
        )
        try:
            perturbed = run_open_loop(
                plan_at(start_qps),
                lambda: reference,
                workloads,
                expected=expected,
                transport="inproc",
            ).summary()
        finally:
            scheduler.stop()
        quiet_p99 = float(quiet["latency"].get(percentile, 0.0))
        loud_p99 = float(perturbed["latency"].get(percentile, 0.0))
        record["perturbation"] = {
            "rate_qps": float(start_qps),
            "quiet": quiet,
            "refresh": perturbed,
            "refresh_ticks": int(scheduler.stats.ticks),
            "refresh_updates": int(scheduler.stats.updates),
            "tail_ratio_x": (
                loud_p99 / quiet_p99 if quiet_p99 > 0 else float("inf")
            ),
        }
    else:
        record["perturbation"] = None

    if soak_sites > 0:
        record["soak"] = run_site_soak(
            sites=soak_sites,
            seed=seed,
            queries=max(200, min(soak_sites, 1000)),
            zipf_s=zipf_s,
            frames=frames,
            samples_per_cell=samples_per_cell,
        )
    else:
        record["soak"] = None
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.loadgen_sites is None:
        return None
    return bench_loadgen(
        sites=config.loadgen_sites,
        seed=config.seed,
        transports=config.loadgen_transports,
        shard_counts=config.loadgen_shards,
        slo_ms=config.loadgen_slo_ms,
        percentile=config.loadgen_percentile,
        requests=config.loadgen_requests,
        start_qps=config.loadgen_start_qps,
        max_qps=config.loadgen_max_qps,
        zipf_s=config.loadgen_zipf_s,
        process=config.loadgen_process,
        clients=config.loadgen_clients,
        samples_per_cell=config.samples_per_cell,
        soak_sites=config.loadgen_soak_sites,
        perturb=config.loadgen_perturb,
    )


def _latency_cell(latency: Dict[str, object]) -> str:
    return (
        f"p50/p95/p99 {latency.get('p50_ms', float('nan')):.2f}/"
        f"{latency.get('p95_ms', float('nan')):.2f}/"
        f"{latency.get('p99_ms', float('nan')):.2f} ms"
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    plan = record["plan"]
    identical = "bit-identical" if record["plan_bit_identical"] else "MISMATCH"
    lines.append(
        f"load generator (open-loop {record['process']}, "
        f"{len(record['sites'])} site(s), zipf_s={record['zipf_s']:g}, "
        f"{record['requests']} req/probe, plan {identical}, "
        f"SLO {record['percentile']} <= {record['slo_ms']:g} ms):"
    )
    for key, result in record["saturation"].items():
        sustained = result.get("sustained")
        if sustained:
            detail = (
                f"{_latency_cell(sustained['latency'])} | "
                f"failed {sustained['failed_queries']}, "
                f"mismatched {sustained['mismatched_queries']}"
            )
        else:
            detail = "no rate sustained"
        lines.append(
            f"  {key:<16} max sustained "
            f"{result['max_sustained_qps']:,.0f} q/s "
            f"({len(result['probes'])} probe(s)) | {detail}"
        )
    closed = record.get("closed_loop")
    if closed:
        lines.append(
            f"  closed loop ({plan['clients']} clients): "
            f"{closed['achieved_qps']:,.0f} q/s | "
            f"{_latency_cell(closed['latency'])} | "
            f"failed {closed['failed_queries']}, "
            f"mismatched {closed['mismatched_queries']}"
        )
    perturbation = record.get("perturbation")
    if perturbation:
        quiet = perturbation["quiet"]["latency"]
        loud = perturbation["refresh"]["latency"]
        lines.append(
            f"  refresh perturbation @ {perturbation['rate_qps']:g} q/s: "
            f"quiet p99 {quiet.get('p99_ms', float('nan')):.2f} ms -> "
            f"refresh p99 {loud.get('p99_ms', float('nan')):.2f} ms "
            f"({perturbation['tail_ratio_x']:.2f}x, "
            f"{perturbation['refresh_updates']} update(s) over "
            f"{perturbation['refresh_ticks']} tick(s), mismatched "
            f"{perturbation['refresh']['mismatched_queries']})"
        )
    soak = record.get("soak")
    if soak:
        per_site = soak.get("rss_per_site_kb")
        rss = (
            f"{per_site:.1f} kB/site"
            if isinstance(per_site, (int, float))
            else "rss n/a"
        )
        routing = soak["routing"]
        widest = routing[max(routing, key=int)]
        lines.append(
            f"  soak: {soak['sites']} sites ({soak['spec']}), "
            f"{soak['pipelines_built']} pipeline(s) built, "
            f"register {soak['register_s']:.2f}s, warm {soak['warm_s']:.2f}s, "
            f"{rss} | query {soak['query_phase']['qps']:,.0f} q/s over "
            f"{soak['query_phase']['distinct_sites_hit']} site(s), "
            f"failed {soak['query_phase']['failed_queries']} | "
            f"routing imbalance {widest['imbalance_x']:.2f}x @ "
            f"{widest['shards']} shards"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    if not record["plan_bit_identical"]:
        failures.append("loadgen: same-seed load plans are not bit-identical")
    for key, result in record["saturation"].items():
        if result["max_sustained_qps"] <= 0:
            failures.append(f"loadgen: {key} sustained no rate under the SLO")
            continue
        sustained = result.get("sustained") or {}
        if (
            sustained.get("failed_queries", 0) != 0
            or sustained.get("mismatched_queries", 0) != 0
        ):
            failures.append(
                f"loadgen: {key} sustained run had failed/mismatched queries"
            )
    closed = record.get("closed_loop")
    if closed and (
        closed["failed_queries"] != 0 or closed["mismatched_queries"] != 0
    ):
        failures.append("loadgen: closed-loop run had failed/mismatched queries")
    perturbation = record.get("perturbation")
    if perturbation:
        for phase in ("quiet", "refresh"):
            row = perturbation[phase]
            if row["failed_queries"] != 0 or row["mismatched_queries"] != 0:
                failures.append(
                    f"loadgen: {phase} perturbation phase had "
                    "failed/mismatched queries"
                )
    soak = record.get("soak")
    if soak:
        if soak["pipelines_built"] != 1:
            failures.append(
                "loadgen: soak built more than one pipeline "
                "(spec dedupe regressed)"
            )
        if soak["query_phase"]["failed_queries"] != 0:
            failures.append("loadgen: soak query phase had failures")
    failures.extend(validate_loadgen_section(record))
    return failures


register(
    BenchSection(
        name="loadgen",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="loadgen",
    )
)
