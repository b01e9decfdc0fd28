"""The ``loadgen`` gate section: SLO saturation search + many-site soak.

For each transport the open-loop load generator finds the maximum
offered rate the serving stack sustains under the latency SLO
(``max_sustained_qps`` — zero failed, zero mismatched, tail percentile
within bound, achieved rate keeping up with offered); the gate is that
some rate is sustained.
Alongside it: a closed-loop run, a scheduler-perturbation run
(background refresh under load, answers still bit-identical at the
queried day), and the many-site registration soak, which must dedupe
one shared spec into one pipeline. Every block is schema-validated by
:mod:`repro.loadgen.schema`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.eval.bench.common import bench_spec, site_workloads
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
    SimClock,
    UpdateScheduler,
)
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_loadgen"]

SITES = ("square-3m",)
TRANSPORTS = ("http", "aio")
SLO_MS = 50.0
PERCENTILE = "p99_ms"
REQUESTS = 60
START_QPS = 50.0
MAX_QPS = 2000.0
ZIPF_S = 1.1
CLIENTS = 4
FRAMES = 16
SOAK_SITES = 200
PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)


def bench_loadgen(seed: int) -> Dict[str, object]:
    """Find max-sustained-q/s under the SLO per transport, then soak.

    For each transport of the one wire server in ``TRANSPORTS``
    (``http`` — its HTTP/1.1 framing, driven by sync clients; ``aio`` —
    pipelined NDJSON over TCP), backed by the in-process service, an
    open-loop saturation search
    (:func:`~repro.loadgen.slo.find_max_sustained_qps`) probes seeded
    Poisson-arrival plans of ``REQUESTS`` queries, Zipf(``ZIPF_S``)-skewed
    over ``SITES``, rebuilding the plan per offered rate — every answer
    checked bit-for-bit against the in-process service. All latency is
    recorded from *planned* send times (coordinated-omission-free), so
    an overloaded probe fails the SLO with queue delay in its tail
    instead of quietly throttling.
    """
    specs = {name: bench_spec(name) for name in SITES}
    site_list = list(specs)
    reference = LocalizationService.from_specs(
        specs, protocol=PROTOCOL, seed=seed
    )
    reference.warm()
    workloads = site_workloads(
        specs, PROTOCOL, FRAMES, seed, offset=900, label="loadgen-workload"
    )
    expected = expected_answers(reference, workloads, 0.0)

    def plan_at(rate: float):
        return open_loop_plan(
            sites=site_list,
            seed=seed,
            rate_qps=rate,
            requests=REQUESTS,
            process="poisson",
            zipf_s=ZIPF_S,
            clients=CLIENTS,
        )

    canonical = plan_at(START_QPS)
    saturation: Dict[str, object] = {}
    record: Dict[str, object] = {
        "sites": site_list,
        "plan": canonical.describe(),
        # The determinism gate: the same (seed, knobs) must rebuild the
        # exact same schedule, byte for byte.
        "plan_bit_identical": bool(
            canonical.fingerprint() == plan_at(START_QPS).fingerprint()
        ),
        "slo_ms": SLO_MS,
        "saturation": saturation,
    }

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

    for transport in TRANSPORTS:
        # One wire server per probe series; the transport picks which of
        # its addresses the load generator dials.
        with AioFrontend(reference) as frontend:
            address = {
                "http": frontend.http_address,
                "aio": frontend.address,
            }[transport]
            result = find_max_sustained_qps(
                lambda rate: drive(transport, address, rate).summary(),
                slo_ms=SLO_MS,
                percentile=PERCENTILE,
                start_qps=START_QPS,
                max_qps=MAX_QPS,
            ).as_dict()
        saturation[f"{transport}-shards1"] = dict(
            result, transport=transport, shards=1
        )

    # Closed-loop comparison on the http path: the classic self-limiting
    # client model, run alongside the open loop.
    closed = closed_loop_plan(
        sites=site_list,
        seed=seed,
        clients=CLIENTS,
        requests_per_client=REQUESTS // CLIENTS,
        zipf_s=ZIPF_S,
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
    # bit-identical.
    def inproc_run() -> Dict[str, object]:
        return run_open_loop(
            plan_at(START_QPS),
            lambda: reference,
            workloads,
            expected=expected,
            transport="inproc",
        ).summary()

    quiet = inproc_run()
    scheduler = UpdateScheduler(
        reference,
        SchedulerConfig(policy="interval", interval_days=1.0, cold="skip"),
    )
    scheduler.start(SimClock(0.0, days_per_second=100.0), period_seconds=0.05)
    try:
        refresh = inproc_run()
    finally:
        scheduler.stop()
    record["perturbation"] = {"quiet": quiet, "refresh": refresh}

    record["soak"] = run_site_soak(
        sites=SOAK_SITES,
        seed=seed,
        queries=SOAK_SITES,
        zipf_s=ZIPF_S,
        frames=FRAMES,
        samples_per_cell=PROTOCOL.samples_per_cell,
    )
    return record


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
    closed = record["closed_loop"]
    if closed["failed_queries"] != 0 or closed["mismatched_queries"] != 0:
        failures.append("loadgen: closed-loop run had failed/mismatched queries")
    for phase in ("quiet", "refresh"):
        row = record["perturbation"][phase]
        if row["failed_queries"] != 0 or row["mismatched_queries"] != 0:
            failures.append(
                f"loadgen: {phase} perturbation phase had "
                "failed/mismatched queries"
            )
    soak = record["soak"]
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
    BenchSection(name="loadgen", run=bench_loadgen, smoke_gates=_smoke_gates)
)
