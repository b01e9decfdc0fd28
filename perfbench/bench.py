"""One benchmark run: set-up, timed phases, answer checks, metrics.

A run launches the workload's server ``SETUPS`` times. Each launch is
commissioned (``serve`` warms every site at day 0), updated once per site
over the wire, and timed to its first correct answer from every site;
``setup_s`` is the median. The last server then runs the phase program
of :class:`~workload.Workload`:

1. warm-up: open-loop single queries (checked, not reported);
2. quiet: fixed-rate open-loop single queries (``query_cpu_us``);
3. aging: update rounds at increasing days with single queries and
   streamed traces beside them (``update_cpu_p90_s``,
   ``trace_cpu_us_per_frame``).

The named timing metrics are the server's CPU time, read from ``/proc``
around each phase, update and trace: on a shared VM the hypervisor's
steal made wall times swing too far to hold a bound (see NOTES.md). The
wall-time latencies are in every report.

Every answer is compared bit for bit with the in-process oracle, and no
process of any server's tree may outlive its SIGINT.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Tuple

import numpy as np

from driver import (
    SEND_LAG_P50_BOUND_MS,
    SEND_LAG_P99_BOUND_MS,
    Phase,
    open_loop,
    percentile_ms,
)
from oracle import Oracle, wire_answer
from procs import Server, ServerError, cpu_seconds, peak_rss_mb
from workload import (
    FLEET_SEED,
    NOMINAL_SECONDS,
    QUIET_QPS,
    QUIET_S,
    SETUP_DAY,
    TRACE_CHUNK,
    TRACE_FRAMES,
    TRACES_PER_ROUND,
    FramePools,
    Workload,
    aging_plan,
    fingerprint,
    open_loop_plan,
)

#: Server launches per run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop warm-up before the first timed phase, at the quiet rate: the
#: first seconds of a fresh server ran up to 1.5x slower than the rest.
WARMUP_S = 2.0
WARMUP_QPS = QUIET_QPS


class RunError(RuntimeError):
    """The run could not produce a valid, checked result."""


class Run:
    """State and results of one run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        from repro.serve.aio import AsyncServiceClient

        self.client_class = AsyncServiceClient
        self.workload = workload
        self.seed = int(seed)
        self.sites = workload.sites
        scale = float(seconds) / NOMINAL_SECONDS
        self.quiet_s = QUIET_S * scale
        self.rounds = max(2, int(round(workload.rounds * scale)))
        self.pools = FramePools(self.seed, self.sites)
        self.oracle = Oracle(self.sites)
        self.setup_s: List[float] = []
        # The serving server's processes, and the server CPU seconds of
        # the quiet phase and of every aging update and streamed trace.
        self.server_pids: List[int] = []
        self.quiet_cpu_s = 0.0
        self.update_cpu_s: List[float] = []
        self.trace_cpu_s: List[float] = []
        # Wall seconds of every aging update and streamed trace.
        self.updates: List[float] = []
        self.traces: List[float] = []
        self.invalid: List[str] = []
        self.trace_errors_m: List[float] = []
        self.traces_checked = 0
        self.traces_mismatched = 0
        self.phases: Dict[str, Phase] = {}
        self.rss_mb = 0.0
        self.fingerprints: Dict[str, str] = {}
        self._traces: List[tuple] = []
        self.timeline: Dict[str, float] = {}
        self._last_mark = time.perf_counter()
        # Answers checked outside the phases (the traced run's samples).
        self.extra_checked = 0
        self.extra_mismatched = 0

    # ------------------------------------------------------------------
    # set-up and teardown
    # ------------------------------------------------------------------
    async def set_up_once(self) -> Server:
        server = Server(self.sites, seed=FLEET_SEED)
        try:
            async with self.client_class(server.start()) as client:
                for site in self.sites:
                    await client.update(site, SETUP_DAY)
                frames = [
                    self.pools.pool(site, SETUP_DAY).rss[0] for site in self.sites
                ]
                answers = await asyncio.gather(
                    *(
                        client.query(site, frame, SETUP_DAY)
                        for site, frame in zip(self.sites, frames)
                    )
                )
                ready = time.perf_counter()
            for site, frame, answer in zip(self.sites, frames, answers):
                if wire_answer(answer) != self.oracle.answer(site, SETUP_DAY, 0, frame):
                    raise RunError(f"set-up answer from {site} is wrong")
        except BaseException:
            server.stop()
            raise
        self.setup_s.append(ready - server.launched_at)
        return server

    def validate(self, phase: Phase) -> None:
        """A phase whose generator ran late makes the run invalid (the
        run then gives no result), not the program slow."""
        for q, bound in ((50, SEND_LAG_P50_BOUND_MS), (99, SEND_LAG_P99_BOUND_MS)):
            lag = percentile_ms(phase.send_lags_s, q)
            if lag > bound:
                self.invalid.append(
                    f"generator send lag p{q} {lag:.1f} ms in phase "
                    f"{phase.name} exceeds {bound} ms"
                )

    @staticmethod
    def stop(server: Server) -> None:
        leaked = server.stop()
        if leaked:
            raise RunError(f"server processes outlived SIGINT: {leaked}")

    # ------------------------------------------------------------------
    # single-query phases
    # ------------------------------------------------------------------
    def _check(self, phase: Phase, records, where) -> None:
        """Compare recorded answers with the oracle; collect loc errors."""
        for index, answer in records:
            site, day, frame_index = where(index)
            trace = self.pools.pool(site, day)
            frame = trace.rss[frame_index]
            got = wire_answer(answer)
            if got != self.oracle.answer(site, day, frame_index, frame):
                phase.mismatched += 1
            truth = trace.true_positions[frame_index]
            error = np.hypot(got[1] - truth[0], got[2] - truth[1])
            phase.loc_errors_m.append(float(error))

    async def single_phase(
        self, client, name: str, plan, day_of, *, gate=None, start=None
    ):
        """Run one open-loop plan; returns the phase and its answer check
        (call it once the oracle holds every epoch the phase asked about)."""
        records: List[Tuple[int, object]] = []

        def where(index: int):
            site = self.sites[int(plan.site_index[index])]
            return site, day_of(index), int(plan.frame_index[index])

        def resolve(index: int):
            site, day, frame_index = where(index)
            return site, day, self.pools.pool(site, day).rss[frame_index]

        phase = Phase(name)
        self.phases[name] = phase
        await open_loop(
            client,
            plan.offsets,
            resolve,
            lambda index, answer: records.append((index, answer)),
            phase,
            gate=gate,
            start=start,
        )
        return phase, lambda: self._check(phase, records, where)

    def plan(self, tag: str, rate: float, duration: float):
        return open_loop_plan(
            self.seed,
            tag,
            sites=len(self.sites),
            rate_qps=rate,
            duration_s=duration,
        )

    async def warm_up(self, client) -> None:
        plan = self.plan("warmup", WARMUP_QPS, WARMUP_S)
        _, check = await self.single_phase(client, "warmup", plan, lambda i: SETUP_DAY)
        check()

    async def quiet(self, client) -> None:
        plan = self.plan("quiet", QUIET_QPS, self.quiet_s)
        self.fingerprints["quiet"] = fingerprint(*plan.arrays())
        cpu = cpu_seconds(self.server_pids)
        phase, check = await self.single_phase(
            client, "quiet", plan, lambda i: SETUP_DAY
        )
        self.quiet_cpu_s = cpu_seconds(self.server_pids) - cpu
        check()
        self.validate(phase)

    # ------------------------------------------------------------------
    # the aging phase
    # ------------------------------------------------------------------
    async def _trace(self, client, site: str, day: float) -> None:
        trace = self.pools.pool(site, day, TRACE_FRAMES)
        cpu, began = cpu_seconds(self.server_pids), time.perf_counter()
        result = await client.query_trace(site, trace.rss, day, chunk=TRACE_CHUNK)
        self.traces.append(time.perf_counter() - began)
        self.trace_cpu_s.append(cpu_seconds(self.server_pids) - cpu)
        self._traces.append((site, day, result))

    def _check_traces(self) -> None:
        for site, day, result in self._traces:
            trace = self.pools.pool(site, day, TRACE_FRAMES)
            cells, positions = self.oracle.trace(site, day, trace.rss)
            self.traces_checked += 1
            if not (
                np.array_equal(cells, result.cells)
                and np.array_equal(positions, result.positions)
            ):
                self.traces_mismatched += 1
            deltas = np.asarray(result.positions) - trace.true_positions
            self.trace_errors_m.extend(np.hypot(deltas[:, 0], deltas[:, 1]).tolist())
        self._traces = []

    async def aging(self, client, control) -> float:
        """Update rounds on ``control``, single queries on ``client``.

        Returns the last update day.
        """
        plan = aging_plan(
            self.seed,
            sites=len(self.sites),
            rounds=self.rounds,
            period_s=self.workload.period_s,
        )
        self.fingerprints["aging"] = fingerprint(*plan.arrays())
        # Build every frame pool up front: making one inside the phase
        # would stall the generator for milliseconds.
        for day in plan.days:
            for site in self.sites:
                self.pools.pool(site, float(day))
            self.pools.pool(self.sites[0], float(day), TRACE_FRAMES)
        done = [asyncio.Event() for _ in range(plan.rounds + 1)]
        done[0].set()
        updates: List[Tuple[str, float]] = []
        start = time.perf_counter() + 0.005

        def gate(index: int):
            slot = int(plan.queries.day_slot[index])
            return None if done[slot].is_set() else done[slot].wait()

        async def rounds() -> None:
            for k in range(1, plan.rounds + 1):
                delay = start + (k - 1) * plan.period_s - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                day = float(plan.days[k])
                for site_index in plan.orders[k - 1]:
                    site = self.sites[int(site_index)]
                    cpu, began = cpu_seconds(self.server_pids), time.perf_counter()
                    await control.update(site, day)
                    self.updates.append(time.perf_counter() - began)
                    self.update_cpu_s.append(cpu_seconds(self.server_pids) - cpu)
                    updates.append((site, day))
                done[k].set()
                for _ in range(TRACES_PER_ROUND):
                    await self._trace(control, self.sites[0], day)

        control_task = asyncio.get_running_loop().create_task(rounds())
        phase, check = await self.single_phase(
            client,
            "aging",
            plan.queries,
            lambda i: float(plan.days[int(plan.queries.day_slot[i])]),
            gate=gate,
            start=start,
        )
        await control_task
        self.oracle.replay(updates)
        check()
        self._check_traces()
        self.validate(phase)
        return float(plan.days[-1])

    # ------------------------------------------------------------------
    def mark(self, stage: str) -> None:
        """Record the wall time since the previous mark under ``stage``."""
        now = time.perf_counter()
        self.timeline[stage] = round(now - self._last_mark, 3)
        self._last_mark = now

    async def run(self) -> None:
        self.oracle.set_up()
        self.mark("oracle")
        for _ in range(SETUPS - 1):
            self.stop(await self.set_up_once())
        server = await self.set_up_once()
        self.server_pids = server.tree()
        self.mark("setups")
        try:
            async with self.client_class(server.address) as client:
                await self.warm_up(client)
                await self.quiet(client)
                self.mark("warmup+quiet")
                async with self.client_class(server.address) as control:
                    await self.aging(client, control)
                self.mark("aging")
            self.rss_mb = peak_rss_mb(server.tree())
        except BaseException:
            server.stop()
            raise
        self.stop(server)
        self.mark("stop")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def counts(self) -> Tuple[int, int, int]:
        """(attempted, failed, mismatched) over every checked request:
        set-up updates and queries, every phase, every aging update and
        trace."""
        rows = [p.summary() for p in self.phases.values()]
        attempted = sum(int(row["attempted"]) for row in rows)
        failed = sum(int(row["failed"]) for row in rows)
        mismatched = (
            sum(int(row["mismatched"]) for row in rows)
            + self.traces_mismatched
            + self.extra_mismatched
        )
        attempted += (
            2 * len(self.sites) * len(self.setup_s)
            + len(self.updates)
            + self.traces_checked
            + self.extra_checked
        )
        return attempted, failed, mismatched

    def metrics(self) -> Dict[str, float]:
        """The end-to-end metrics (units are in BENCHMARK.json).

        The CPU times are the server's: per answered query over the quiet
        phase, per frame of the median trace, and per wire update. A
        failed query fails the run (``correct`` is false), so it needs no
        place in these figures. The update p50 is only in the report: the
        small sites' updates around it took a third more CPU time while
        the host stole 8% than while it stole none.
        """
        quiet, aging = self.phases["quiet"], self.phases["aging"]
        errors = [*quiet.loc_errors_m, *aging.loc_errors_m, *self.trace_errors_m]
        return {
            "setup_s": float(np.median(self.setup_s)),
            "query_cpu_us": 1e6 * self.quiet_cpu_s / max(1, quiet.completed),
            "trace_cpu_us_per_frame": 1e6
            * float(np.median(self.trace_cpu_s))
            / TRACE_FRAMES,
            "update_cpu_p90_s": float(np.percentile(self.update_cpu_s, 90)),
            "server_rss_mb": self.rss_mb,
            "loc_err_p50_m": float(np.median(errors)),
        }

    def wall(self) -> Dict[str, float]:
        """The wall-time figures a user of the server sees, for the
        report: quiet query p50, p90 of the queries beside updates (a
        failed one counts as infinitely slow), update p50/p90 and
        streamed-trace throughput (frames over the median trace time)."""
        out = {
            "query_p50_ms": self.phases["quiet"].tail_ms(50),
            "query_p90_ms": self.phases["aging"].tail_ms(90),
            "update_p50_s": float(np.percentile(self.updates, 50)),
            "update_p90_s": float(np.percentile(self.updates, 90)),
            "trace_frames_per_s": TRACE_FRAMES / float(np.median(self.traces)),
        }
        return {key: round(value, 6) for key, value in out.items()}

    def report(self) -> Dict[str, object]:
        attempted, failed, mismatched = self.counts()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "plan_fingerprints": {**self.fingerprints, "frames": self.pools.digest()},
            "setup_s_each": [round(v, 4) for v in self.setup_s],
            "timeline_s": self.timeline,
            "phases": {name: p.summary() for name, p in self.phases.items()},
            "updates": len(self.updates),
            "wall": self.wall(),
            "update_cpu_p50_s": round(float(np.percentile(self.update_cpu_s, 50)), 6),
            "valid": not self.invalid,
            "invalid": self.invalid,
            "traces": {
                "checked": self.traces_checked,
                "mismatched": self.traces_mismatched,
            },
            "attempted": attempted,
            "failed": failed,
            "mismatched": mismatched,
        }


async def run_workload(workload: Workload, seed: int, seconds: float) -> Run:
    run = Run(workload, seed, seconds)
    try:
        await run.run()
    except ServerError as error:
        raise RunError(str(error)) from error
    return run
