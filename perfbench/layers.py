"""The traced run (``--trace 1``): per-layer metrics from outside.

Two parts, both separate from the timed end-to-end runs:

* **Wire part** — one server, the workload's warm-up, quiet and aging
  phases with tracing off, one short probe at a higher rate, then a
  closed-loop sample of single queries sent one at a time. It
  gives what only a real server has: server CPU per answered query (quiet
  phase), single queries per wire request after client coalescing (the
  probe), the generator's send lag and the sequential wire round trip.
* **In-process part** — the benchmark calls the layers' public functions
  in process, nested the way the server nests them (codec →
  ``protocol.dispatch`` → ``LocalizationService`` → ``Matcher``; an
  ``update`` → collector + ``Reconstructor``), for a seeded sample of the
  workload's requests. Each call records a span (name, start, end,
  parent, request); spans stay in memory and are written to
  ``.perfbench_out/`` when the run ends. A layer's self time is its span
  minus its children's. The sample also runs untraced, alternating with
  the traced passes; the difference is the tracing overhead. The shard
  hop is ``ShardedService.query`` minus in-process ``query`` on the
  same sample, through a one-worker router whose fault counters must
  stay 0.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench import Run, RunError
from oracle import wire_answer
from procs import ROOT
from workload import (
    FLEET_SEED,
    QUIET_QPS,
    SETUP_DAY,
    TRACE_FRAMES,
    Workload,
    aging_plan,
    rng_for,
)

#: Single queries and traces in the in-process sample, and sequential
#: round trips in the wire sample.
SAMPLE_QUERIES = 400
SAMPLE_TRACES = 4
WIRE_SAMPLE = 300
#: Aging rounds replayed in process; their updates feed the update layers.
SAMPLE_ROUNDS = 2
#: Untraced/traced passes over the query sample, alternated.
PASSES = 3
#: The probe that counts client coalescing: queries only coalesce when
#: several are in flight at once, so it runs at four times the quiet
#: rate, well below where the generator starts to lag.
COALESCING_QPS = 2000.0
COALESCING_S = 1.5

OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    kind: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans, kept in memory; wrappers pass through when disabled."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self.request: Optional[int] = None
        self.kind = ""
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.request, self.kind)
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, function, on_result: Optional[Callable] = None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, owner, attribute: str, name: str, on_result=None):
        """Route ``owner.attribute`` through a span while the block runs."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original, on_result))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------
    def select(self, name: str, kind: str) -> List[int]:
        return [
            index
            for index, span in enumerate(self.spans)
            if span.name == name and span.kind == kind
        ]

    def seconds(self, name: str, kind: str) -> List[float]:
        return [self.spans[index].seconds for index in self.select(name, kind)]

    def self_seconds(self, name: str, kind: str) -> List[float]:
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return [
            self.spans[index].seconds - covered.get(index, 0.0)
            for index in self.select(name, kind)
        ]

    def per_request(self, name: str, kind: str) -> List[float]:
        """Total seconds of ``name`` spans per request of ``kind``."""
        totals: Dict[int, float] = {}
        for index in self.select(name, kind):
            span = self.spans[index]
            totals[span.request] = totals.get(span.request, 0.0) + span.seconds
        return list(totals.values())

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **span.__dict__}) + "\n")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def sample_queries(run: Run, count: int) -> List[Tuple[str, float, int, np.ndarray]]:
    """A seeded sample of the workload's single queries at the set-up day:
    ``(site, day, pool frame index, frame)``."""
    rng = rng_for(run.seed, "trace-sample", count)
    plan = run.plan("sample", QUIET_QPS, 2.0)
    picks = rng.integers(0, plan.requests, size=count)
    out = []
    for index in picks:
        site = run.sites[int(plan.site_index[index])]
        frame_index = int(plan.frame_index[index])
        frame = run.pools.pool(site, SETUP_DAY).rss[frame_index]
        out.append((site, SETUP_DAY, frame_index, frame))
    return out


# ----------------------------------------------------------------------
# wire part
# ----------------------------------------------------------------------
async def wire_part(run: Run) -> Tuple[Dict[str, float], float]:
    """Returns the wire-side layer metrics and the median sequential round
    trip of a single query (seconds)."""
    run.oracle.set_up()
    server = await run.set_up_once()
    run.server_pids = server.tree()
    counts = {"requests": 0, "frames": 0}
    try:
        async with run.client_class(server.address) as client:
            await run.warm_up(client)
            await run.quiet(client)
            async with run.client_class(server.address) as control:
                final_day = await run.aging(client, control)
            lags = run.phases["quiet"].send_lags_s + run.phases["aging"].send_lags_s
            # Coalescing only happens under load: count wire requests
            # during one probe at a higher rate.
            plain_call = client.call

            async def counted_call(method, params=None):
                if method == "query":
                    counts["requests"] += 1
                    counts["frames"] += 1
                elif method == "query_batch":
                    counts["requests"] += 1
                    counts["frames"] += len(params["frames"])
                return await plain_call(method, params)

            client.call = counted_call
            plan = run.plan("coalescing", COALESCING_QPS, COALESCING_S)
            phase, check = await run.single_phase(
                client, "coalescing", plan, lambda i: final_day
            )
            client.call = plain_call
            check()
            run.validate(phase)
            round_trips = []
            for site, day, frame_index, frame in sample_queries(run, WIRE_SAMPLE):
                began = time.perf_counter()
                answer = await client.query(site, frame, day)
                round_trips.append(time.perf_counter() - began)
                run.extra_checked += 1
                expected = run.oracle.answer(site, day, frame_index, frame)
                if wire_answer(answer) != expected:
                    run.extra_mismatched += 1
    except BaseException:
        server.stop()
        raise
    run.stop(server)
    metrics = {
        "server.cpu_ms_per_query": 1e3
        * run.quiet_cpu_s
        / max(1, run.phases["quiet"].completed),
        "aio.frames_per_request": counts["frames"] / max(1, counts["requests"]),
        "driver.send_lag_p50_ms": float(np.percentile(lags, 50) * 1e3),
        "driver.send_lag_p99_ms": float(np.percentile(lags, 99) * 1e3),
    }
    return metrics, _median(round_trips)


# ----------------------------------------------------------------------
# in-process part
# ----------------------------------------------------------------------
def in_process_part(
    run: Run, workload: Workload
) -> Tuple[Dict[str, float], Tracer, float]:
    """Returns the in-process layer metrics, the spans, and the median
    untraced in-process query (codec + dispatch, seconds)."""
    from repro.core.matching import KnnMatcher, Matcher
    from repro.core.reconstruction import Reconstructor
    from repro.serve import LocalizationService, ShardedService, protocol
    from repro.sim.collector import RssCollector
    from repro.sim.specs import get_scenario_spec

    specs = {site: get_scenario_spec(site) for site in run.sites}
    service = LocalizationService.from_specs(specs, seed=FLEET_SEED)
    tracer = Tracer()
    queries = sample_queries(run, SAMPLE_QUERIES)
    plan = aging_plan(
        run.seed,
        sites=len(run.sites),
        rounds=max(run.rounds, SAMPLE_ROUNDS),
        period_s=workload.period_s,
    )
    trace = run.pools.pool(run.sites[0], SETUP_DAY, TRACE_FRAMES).rss
    solver: List[Tuple[int, int]] = []
    query_bytes: List[int] = []
    untraced: List[float] = []
    traced: List[float] = []

    def on_report(report) -> None:
        result = report.solver_result
        solver.append((int(result.iterations), int(np.sum(result.inner_iterations))))

    def request(kind: str, method: str, params) -> int:
        """Codec + dispatch, nested as the server nests them; returns the
        bytes of request plus response."""
        tracer.kind = kind
        with tracer.span("request"):
            with tracer.span("protocol.codec"):
                wire = protocol.encode({"method": method, "params": params})
                message = protocol.decode(wire)
            with tracer.span("protocol.dispatch"):
                status, body = protocol.dispatch(
                    service, message["method"], message["params"]
                )
            if status != 200:
                raise RunError(f"in-process {method} failed: {body}")
            with tracer.span("protocol.codec"):
                answer = protocol.encode({"status": status, "body": body})
                protocol.decode(answer)
        return len(wire) + len(answer)

    requests = itertools.count()

    def query_pass(enabled: bool) -> None:
        tracer.enabled = enabled
        for site, day, _, frame in queries:
            tracer.request = next(requests)
            began = time.perf_counter()
            params = {"site": site, "rss": frame.tolist(), "day": day}
            size = request("query", "query", params)
            (traced if enabled else untraced).append(time.perf_counter() - began)
            if enabled:
                query_bytes.append(size)
        params = {"site": run.sites[0], "frames": trace.tolist(), "day": SETUP_DAY}
        for _ in range(SAMPLE_TRACES):
            tracer.request = next(requests)
            request("trace", "query_trace", params)
        tracer.enabled = True

    with contextlib.ExitStack() as stack:
        for owner, attribute, name, hook in (
            (LocalizationService, "query", "service.query", None),
            (LocalizationService, "query_trace", "service.query_trace", None),
            (LocalizationService, "update", "service.update", None),
            (Matcher, "match", "matching.match", None),
            (KnnMatcher, "match_batch", "matching.match_batch", None),
            (RssCollector, "collect_empty_room", "collector.empty_room", None),
            (RssCollector, "collect_survey", "collector.survey", None),
            (Reconstructor, "reconstruct", "reconstruction.reconstruct", on_report),
        ):
            stack.enter_context(tracer.patched(owner, attribute, name, hook))
        tracer.kind = "commission"
        for number, site in enumerate(run.sites):
            tracer.request = number
            with tracer.span("commission"):
                service.manager.pipeline(site)
        for number, site in enumerate(run.sites):
            tracer.request = number
            request("setup-update", "update", {"site": site, "day": SETUP_DAY})
        query_pass(False)  # fills the matcher caches; not counted
        untraced.clear()
        for _ in range(PASSES):
            query_pass(False)
            query_pass(True)
        solver.clear()
        number = 0
        for k in range(1, SAMPLE_ROUNDS + 1):
            for site_index in plan.orders[k - 1]:
                tracer.request = number
                number += 1
                site = run.sites[int(site_index)]
                request("update", "update", {"site": site, "day": float(plan.days[k])})
        tracer.request = None

    surveys = [
        empty + survey
        for empty, survey in zip(
            tracer.seconds("collector.empty_room", "update"),
            tracer.seconds("collector.survey", "update"),
        )
    ]
    match = _median(tracer.seconds("matching.match", "query"))
    batch = _median(tracer.seconds("matching.match_batch", "trace"))
    service_self = _median(tracer.self_seconds("service.query", "query"))
    dispatch_self = _median(tracer.self_seconds("protocol.dispatch", "query"))
    codec = _median(tracer.per_request("protocol.codec", "query"))
    solve = _median(tracer.seconds("reconstruction.reconstruct", "update"))
    commission = float(np.mean(tracer.seconds("commission", "commission")))
    metrics = {
        "matching.match_us": 1e6 * match,
        "matching.batch_us_per_frame": 1e6 * batch / TRACE_FRAMES,
        "service.query_us": 1e6 * service_self,
        "protocol.dispatch_us": 1e6 * dispatch_self,
        "protocol.codec_us": 1e6 * codec,
        "protocol.bytes_per_query": _median(query_bytes),
        "reconstruction.solve_s": solve,
        "loli_ir.sweeps": _median([sweeps for sweeps, _ in solver]),
        "loli_ir.inner_iterations": _median([inner for _, inner in solver]),
        "collector.reference_survey_s": _median(surveys),
        "manager.commission_s": commission,
        "trace.overhead_us": 1e6 * (_median(traced) - _median(untraced)),
    }

    # The shard hop: the same sample through a one-worker router.
    sharded = ShardedService(specs, shards=1, seed=FLEET_SEED)
    try:
        sharded.warm()
        for site in run.sites:
            sharded.update(site, SETUP_DAY)
        hops, local, pipe = [], [], []
        for site, day, _, frame in queries:
            began = time.perf_counter()
            remote = sharded.query(site, frame, day)
            middle = time.perf_counter()
            result = service.query(site, frame, day)
            local.append(time.perf_counter() - middle)
            hops.append(middle - began)
            if (remote.cell, remote.position) != (result.cell, result.position):
                raise RunError(f"sharded answer from {site} differs from in-process")
            pipe.append(
                len(pickle.dumps(("query", (site, frame, day), {})))
                + len(pickle.dumps((True, remote)))
            )
        router = sharded.health()["router"]
    finally:
        sharded.close()
    metrics["shard.hop_us"] = 1e6 * (_median(hops) - _median(local))
    metrics["shard.pipe_bytes"] = _median(pipe)
    metrics["shard.failovers"] = float(router["failovers"])
    metrics["shard.timeouts"] = float(router["timeouts"])
    return metrics, tracer, _median(untraced)


# ----------------------------------------------------------------------
async def traced_run(workload: Workload, seed: int, seconds: float):
    """The ``--trace 1`` run: returns the report and the per-layer
    metrics (units are in BENCHMARK.json)."""
    run = Run(workload, seed, seconds)
    wire, round_trip_s = await wire_part(run)
    layers, tracer, in_process_query_s = in_process_part(run, workload)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")
    if layers["shard.failovers"] or layers["shard.timeouts"]:
        raise RunError(f"router failovers/timeouts in a fault-free run: {layers}")
    values = {
        **layers,
        **wire,
        "aio.wire_us": 1e6 * (round_trip_s - in_process_query_s),
    }
    report = run.report()
    report["layers"] = {
        "wire_round_trip_us": round(1e6 * round_trip_s, 2),
        "in_process_query_us": round(1e6 * in_process_query_s, 2),
        "spans": len(tracer.spans),
    }
    return report, values
