"""Command-line interface: reproduce experiments without writing code.

Usage (after ``pip install -e .``)::

    tafloc-repro quickstart            # commission/update/localize demo
    tafloc-repro drift                 # the in-text drift measurement
    tafloc-repro fig3 --days 3 45 90   # reconstruction error vs gap
    tafloc-repro fig4                  # update cost vs area size
    tafloc-repro fig5 --day 90         # localization comparison
    tafloc-repro floorplan             # render the deployment geometry
    tafloc-repro scenarios             # list the scenario registry
    tafloc-repro serve ...             # multi-site serving demo + throughput
    tafloc-repro query ...             # route one query batch through serving
    tafloc-repro loadgen ...           # generated load + SLO saturation search

``loadgen`` drives a front-end with deterministic generated load — seeded
open-loop (Poisson/uniform, coordinated-omission-free) or closed-loop
arrivals, Zipf site-popularity skew over ``--sites N`` registered sites,
per-query latency percentiles with bit-for-bit answer checking — and,
with ``--slo-ms``, searches for the max sustained q/s whose tail
percentile stays under the SLO::

    tafloc-repro loadgen --transport http --rate 500 --requests 400
    tafloc-repro loadgen --transport aio --slo-ms 50 --sites 16 --zipf-s 1.1
    tafloc-repro loadgen --arrival closed --clients 8 --think-s 0.001

Serving (the multi-site layer in :mod:`repro.serve`): ``serve`` stands up a
:class:`~repro.serve.service.LocalizationService` over several sites in one
process, optionally refreshes their fingerprints, and reports warm
queries/sec per site; ``query`` routes a live query batch for the selected
scenario through the same layer and prints per-frame estimates against
ground truth. Examples::

    tafloc-repro serve --sites paper warehouse corridor --frames 400
    tafloc-repro serve --sites paper --update-days 30 60 --day 60
    tafloc-repro query --day 45 --frames 5
    tafloc-repro --scenario warehouse query --cells 3 17 42 --day 30

``serve --listen`` turns the demo into a real network service: one
server answering HTTP/1.1 and NDJSON on one port (plus an optional unix
socket) with the JSON protocol of
:mod:`repro.serve.protocol`, optionally sharded across worker processes
(``--shards``) and kept fresh by the staleness-driven update scheduler
(``--refresh-policy`` + ``--days-per-second`` simulation clock); ``query
--connect`` routes the same query batch through a running server instead
of an in-process service (answers are bit-identical either way)::

    tafloc-repro serve --sites paper warehouse --listen 127.0.0.1:8970
    tafloc-repro serve --sites paper warehouse corridor --shards 2 \
        --listen 127.0.0.1:8970 --refresh-policy interval \
        --refresh-interval-days 30 --days-per-second 10
    tafloc-repro query --connect http://127.0.0.1:8970 --frames 5

or ``python -m repro.cli <command>``. Everything is seeded (``--seed``),
so runs are reproducible, and every experiment runs on any environment:
``--scenario NAME`` selects a registered scenario (``paper``, ``warehouse``,
``corridor``, ``atrium``, ``dense-office``, ``square-<edge>m``, …; see
``tafloc-repro scenarios``), ``--scenario-file spec.json`` loads a
user-supplied :class:`~repro.sim.specs.ScenarioSpec` JSON file, and
``--jobs N`` parallelizes the experiment engine (bit-identical results for
any job count). Example::

    tafloc-repro --scenario warehouse fig3 --days 5 45
    tafloc-repro --scenario-file my_site.json --jobs 4 fig5

``serve`` runs with one BLAS thread unless the operator set a BLAS thread
variable (see :func:`cap_blas_threads`). The cap must be in the
environment before numpy first loads, so this module imports numpy and
everything built on it inside the command that needs it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.eval.engine import ExperimentEngine
    from repro.sim.specs import ScenarioSpec

#: The variables that size the thread pool of the BLAS numpy loads
#: (OpenBLAS, an OpenMP build, MKL).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Set every BLAS thread variable to 1 unless the operator set any.

    The server's update is a chain of small GEMMs: a second BLAS thread
    buys it no wall time, but doubles its CPU and takes the core the event
    loop and a neighbouring shard worker need. A fixed seed gives the same
    bits at any thread count. Forked shard workers inherit the cap. It has
    no effect once numpy is loaded.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        for name in BLAS_THREAD_VARIABLES:
            os.environ[name] = "1"


def _spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the global --scenario / --scenario-file selection."""
    from repro.sim.specs import ScenarioSpec, get_scenario_spec

    if args.scenario_file:
        return ScenarioSpec.from_file(args.scenario_file)
    return get_scenario_spec(args.scenario)


def _sub_seed(seed: int, *labels) -> int:
    """Derive a named collector sub-seed from the master ``--seed``.

    Routed through :func:`repro.util.rng.task_key` so streams are keyed by
    (seed, label) rather than by ``seed + offset`` — with the offset scheme,
    sweeping adjacent ``--seed`` values made one run's trace collector
    collide with the next run's system collector.
    """
    from repro.util.rng import task_key

    return task_key(seed, "cli", *labels)


def _cmd_quickstart(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.pipeline import TafLoc
    from repro.eval.reporting import format_summary
    from repro.sim.collector import RssCollector
    from repro.sim.specs import build_scenario

    scenario = build_scenario(_spec(args), seed=args.seed)
    system = TafLoc(
        RssCollector(scenario, seed=_sub_seed(args.seed, "quickstart-system"))
    )
    system.commission(day=0.0)
    report = system.update(day=45.0)
    test_cell = scenario.deployment.cell_count // 2
    trace = RssCollector(
        scenario, seed=_sub_seed(args.seed, "quickstart-trace")
    ).live_trace(45.0, [test_cell])
    result = system.localize(trace.rss[0], day=45.0)
    true_x, true_y = trace.true_positions[0]
    print(
        format_summary(
            "TafLoc quickstart (day-45 update + localization)",
            {
                "update cost [h]": report.seconds_spent / 3600.0,
                "full survey cost [h]": report.full_survey_seconds / 3600.0,
                "savings factor": report.savings_factor,
                "estimated position [m]": f"({result.position.x:.2f}, {result.position.y:.2f})",
                "true position [m]": f"({true_x:.2f}, {true_y:.2f})",
                "error [m]": float(
                    np.hypot(result.position.x - true_x, result.position.y - true_y)
                ),
            },
        )
    )
    return 0


def _engine(args: argparse.Namespace) -> ExperimentEngine:
    from repro.eval.engine import ExperimentEngine

    return ExperimentEngine(jobs=args.jobs)


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_intext_drift
    from repro.eval.reporting import format_table

    results = run_intext_drift(
        days=tuple(args.days), seeds=tuple(range(args.rooms)),
        scenario_spec=_spec(args), engine=_engine(args),
    )
    anchors = {5.0: 2.5, 45.0: 6.0}
    rows = [
        [int(day), results[day], anchors.get(day, "-")]
        for day in sorted(results)
    ]
    print(
        "Mean |empty-room RSS change| vs time gap\n"
        + format_table(["days", "measured [dB]", "paper [dB]"], rows, precision=2)
    )
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.eval.experiments import run_fig3_reconstruction_error
    from repro.eval.reporting import format_cdf_table, format_table

    results = run_fig3_reconstruction_error(
        days=tuple(float(d) for d in args.days), seed=args.seed,
        scenario_spec=_spec(args), engine=_engine(args),
    )
    paper = {3.0: 2.7, 15.0: 3.3, 45.0: 3.6, 90.0: 4.1}
    rows = [
        [
            int(r.day),
            r.mean_error,
            paper.get(r.day, "-"),
            r.stale_mean_error,
        ]
        for r in results
    ]
    print(
        "[Fig. 3] Reconstruction error vs time gap\n"
        + format_table(
            ["days", "mean err [dB]", "paper [dB]", "stale [dB]"],
            rows,
            precision=2,
        )
    )
    if args.cdf:
        grid = np.arange(0.0, 15.1, 1.5)
        print(
            "\nCDF:\n"
            + format_cdf_table(
                {f"{int(r.day)} d": r.errors for r in results},
                grid,
                value_label="err [dB]",
            )
        )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    # Fig. 4 is the labor cost model (geometry only); the scenario supplies
    # its grid resolution so the sweep matches the selected environment.
    from repro.eval.costmodel import CostModel, sweep_update_cost
    from repro.eval.reporting import format_table

    model = CostModel(cell_size_m=_spec(args).geometry.cell_size_m)
    rows_data = sweep_update_cost(
        tuple(float(e) for e in args.edges), model=model
    )
    rows = [
        [
            int(row.edge_length_m),
            row.cell_count,
            row.reference_count,
            row.existing_hours,
            row.tafloc_hours,
            row.savings_factor,
        ]
        for row in rows_data
    ]
    print(
        "[Fig. 4] Update time cost vs area edge length\n"
        + format_table(
            ["edge [m]", "cells", "refs", "existing [h]", "TafLoc [h]", "savings x"],
            rows,
            precision=2,
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.eval.experiments import run_fig5_localization
    from repro.eval.reporting import format_cdf_table, format_table

    result = run_fig5_localization(
        day=args.day, seed=args.seed, scenario_spec=_spec(args),
        engine=_engine(args),
    )
    rows = [
        [name, float(np.median(errs)), float(np.percentile(errs, 80))]
        for name, errs in result.errors.items()
    ]
    print(
        f"[Fig. 5] Localization error at day {args.day:.0f}\n"
        + format_table(["system", "median [m]", "80th [m]"], rows, precision=2)
    )
    if args.cdf:
        grid = np.arange(0.0, 6.1, 0.5)
        print(
            "\nCDF:\n"
            + format_cdf_table(result.errors, grid, value_label="err [m]")
        )
    return 0


def _serve_specs(args: argparse.Namespace) -> Dict[str, ScenarioSpec]:
    """Site name -> spec for the ``serve`` command.

    ``--sites`` names resolve through the registry; ``--scenario-file``
    additionally serves the user-supplied environment under its spec name.
    Without ``--sites``, the global ``--scenario`` selection is served (so
    ``--scenario warehouse serve`` does what it says).
    """
    from repro.sim.specs import ScenarioSpec, get_scenario_spec

    specs: Dict[str, ScenarioSpec] = {}
    if args.scenario_file:
        spec = ScenarioSpec.from_file(args.scenario_file)
        specs[spec.name] = spec
    for name in args.sites or ([] if specs else [args.scenario]):
        specs[name] = get_scenario_spec(name)
    return specs


def _serve_listen(args: argparse.Namespace, specs: Dict[str, ScenarioSpec]) -> int:
    """The ``serve --listen`` path: the wire server over the site fleet."""
    from repro.serve import (
        AioFrontend,
        LocalizationService,
        SchedulerConfig,
        ShardedService,
        SimClock,
        UpdateScheduler,
    )

    replicas = getattr(args, "replicas", 1)
    snapshot_dir = getattr(args, "snapshot_dir", None)
    snapshot_keep = getattr(args, "snapshot_keep", None)
    read_mode = getattr(args, "read_mode", "failover")
    degraded = bool(getattr(args, "degraded_mode", False))
    scrub_interval = getattr(args, "scrub_interval_seconds", 0.0)
    if args.shards:
        shard_kwargs = {}
        if snapshot_keep is not None:
            shard_kwargs["snapshot_keep"] = snapshot_keep
        backend = ShardedService(
            specs,
            shards=args.shards,
            replicas=replicas,
            snapshot_dir=snapshot_dir,
            read_mode=read_mode,
            degraded_mode=degraded,
            seed=args.seed,
            **shard_kwargs,
        )
    else:
        if replicas > 1:
            raise SystemExit("--replicas needs --shards >= replicas")
        for flag, value in (
            ("--read-mode quorum", read_mode != "failover"),
            ("--degraded-mode", degraded),
            ("--scrub-interval-seconds", scrub_interval > 0),
        ):
            if value:
                raise SystemExit(f"{flag} needs --shards >= 1")
        kwargs = {}
        if snapshot_dir is not None:
            kwargs["snapshot_dir"] = snapshot_dir
            kwargs["share_pipelines"] = False
            if snapshot_keep is not None:
                kwargs["snapshot_keep"] = snapshot_keep
        backend = LocalizationService.from_specs(
            specs, seed=args.seed, **kwargs
        )
    frontend = scheduler = None
    # SIGTERM (what supervisors send) takes the same graceful path as
    # Ctrl-C: the finally below stops the scheduler, the server and every
    # shard worker instead of orphaning them.
    previous_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        start = time.perf_counter()
        backend.warm()
        print(
            f"warmed {len(specs)} site(s) in "
            f"{time.perf_counter() - start:.2f}s"
            + (
                f" across {args.shards} shard worker(s)"
                + (f", {replicas} replica(s) per site" if replicas > 1 else "")
                if args.shards
                else ""
            )
            + (f", snapshots in {snapshot_dir}" if snapshot_dir else "")
        )
        if args.shards and scrub_interval > 0:
            backend.start_scrub(interval_seconds=scrub_interval)
            print(
                f"anti-entropy scrub every {scrub_interval:g}s, "
                f"read mode {read_mode}"
                + (", degraded-mode serving on" if degraded else "")
            )
        for day in args.update_days:
            for site in specs:
                backend.update(site, float(day))
        if args.refresh_policy != "off":
            scheduler = UpdateScheduler(
                backend,
                SchedulerConfig(
                    policy=args.refresh_policy,
                    interval_days=args.refresh_interval_days,
                    budget=args.refresh_budget,
                    drift_threshold_m=args.drift_threshold_m,
                    snapshot_cadence_days=args.snapshot_cadence_days,
                ),
            ).start(
                SimClock(args.day, args.days_per_second),
                period_seconds=args.refresh_period_seconds,
            )
            threshold = (
                f"{args.drift_threshold_m:g} m drift"
                if args.refresh_policy == "drift"
                else f"{args.refresh_interval_days:g} d"
            )
            print(
                f"refresh scheduler: {args.refresh_policy}, threshold "
                f"{threshold}, budget "
                f"{args.refresh_budget or 'unlimited'}, clock "
                f"{args.days_per_second:g} d/s from day {args.day:g}"
            )
        # One server answers NDJSON and HTTP/1.1 on --listen's host:port
        # (an ephemeral port when only --unix was given), plus the unix
        # socket when --unix is set.
        host, port = "127.0.0.1", 0
        if args.listen:
            host_text, _, port_text = args.listen.rpartition(":")
            host, port = host_text or "127.0.0.1", int(port_text)
        frontend = AioFrontend(
            backend, host, port, unix_path=args.unix_socket
        ).start()
        # Flushed eagerly: supervisors (and the CLI test) read the
        # address from a pipe while the server is still running.
        for address in (
            frontend.address,
            frontend.http_address,
            frontend.unix_address,
        ):
            if address:
                print(f"listening at {address}", flush=True)
        print("serving (Ctrl-C to stop)", flush=True)
        if args.max_seconds is not None:
            time.sleep(args.max_seconds)
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if scheduler is not None:
            scheduler.stop()
        if frontend is not None:
            frontend.close()
        if args.shards:
            backend.close()
    if scheduler is not None:
        print(
            f"scheduler ran {scheduler.stats.ticks} tick(s): "
            f"{scheduler.stats.updates} update(s), "
            f"{scheduler.stats.commissions} commission(s)"
        )
    return 0


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.eval.reporting import format_table
    from repro.serve import LocalizationService
    from repro.sim.collector import RssCollector

    specs = _serve_specs(args)
    if args.listen or args.unix_socket:
        return _serve_listen(args, specs)
    kwargs = {}
    if getattr(args, "snapshot_dir", None) is not None:
        kwargs["snapshot_dir"] = args.snapshot_dir
        kwargs["share_pipelines"] = False
        if getattr(args, "snapshot_keep", None) is not None:
            kwargs["snapshot_keep"] = args.snapshot_keep
    service = LocalizationService.from_specs(specs, seed=args.seed, **kwargs)
    rows = []
    for site in service.sites():
        start = time.perf_counter()
        service.warm([site])
        commission_s = time.perf_counter() - start
        for day in args.update_days:
            service.update(site, float(day))
        system = service.pipeline(site)
        scenario = system.collector.scenario
        workload = RssCollector(
            scenario, seed=_sub_seed(args.seed, "serve-workload", site)
        )
        cells = np.random.default_rng(
            _sub_seed(args.seed, "serve-cells", site)
        ).integers(0, scenario.deployment.cell_count, size=args.frames)
        trace = workload.live_trace(args.day, cells)
        service.query_batch(site, trace.rss, args.day)  # matcher warm-up
        start = time.perf_counter()
        batch = service.query_batch(site, trace.rss, args.day)
        batch_s = time.perf_counter() - start
        singles = min(args.frames, 100)
        start = time.perf_counter()
        for frame in trace.rss[:singles]:
            service.query(site, frame, args.day)
        single_s = time.perf_counter() - start
        deltas = batch.positions - trace.true_positions
        rows.append(
            [
                site,
                specs[site].name,
                system.deployment.link_count,
                system.deployment.cell_count,
                system.database.epoch_count,
                commission_s,
                args.frames / batch_s if batch_s > 0 else float("inf"),
                singles / single_s if single_s > 0 else float("inf"),
                float(np.median(np.hypot(deltas[:, 0], deltas[:, 1]))),
            ]
        )
    print(
        f"Multi-site serving ({len(rows)} site(s), one process, "
        f"{args.frames} warm frames/site at day {args.day:g})\n"
        + format_table(
            [
                "site", "scenario", "links", "cells", "epochs",
                "commission [s]", "batch q/s", "single q/s", "median err [m]",
            ],
            rows,
            precision=2,
        )
    )
    built = service.manager.stats.pipelines_built
    print(
        f"\npipelines built: {built} (distinct environments; "
        f"{service.stats.frames} frames served)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.eval.engine import cached_scenario
    from repro.eval.reporting import format_table
    from repro.serve import LocalizationService, ServiceClient
    from repro.sim.collector import RssCollector
    from repro.sim.specs import build_scenario

    spec = _spec(args)
    scenario = cached_scenario(spec, build_scenario)
    if args.cells:
        cells = [int(cell) for cell in args.cells]
    else:
        cells = np.random.default_rng(
            _sub_seed(args.seed, "query-cells")
        ).integers(0, scenario.deployment.cell_count, size=args.frames).tolist()
    trace = RssCollector(
        scenario, seed=_sub_seed(args.seed, "query-trace")
    ).live_trace(args.day, cells)
    if args.connect:
        # Route through a running wire front-end (`serve --listen`); the
        # server must be serving a site named after the selected scenario.
        with ServiceClient(args.connect) as client:
            for day in args.update_days:
                client.update(spec.name, float(day))
            result = client.query_trace(spec.name, trace)
    else:
        service = LocalizationService.from_specs(
            {spec.name: spec}, seed=args.seed
        )
        # Warm before updating: update() refuses cold sites by contract.
        service.warm()
        for day in args.update_days:
            service.update(spec.name, float(day))
        result = service.query_trace(spec.name, trace)
    deltas = result.positions - trace.true_positions
    errors = np.hypot(deltas[:, 0], deltas[:, 1])
    rows = [
        [
            index,
            int(trace.true_cells[index]),
            int(result.cells[index]),
            f"({result.positions[index, 0]:.2f}, {result.positions[index, 1]:.2f})",
            f"({trace.true_positions[index, 0]:.2f}, {trace.true_positions[index, 1]:.2f})",
            float(errors[index]),
        ]
        for index in range(result.frame_count)
    ]
    print(
        f"Serving query: site {spec.name!r}, day {args.day:g}, "
        f"{result.frame_count} frame(s)\n"
        + format_table(
            ["frame", "true cell", "est cell", "est pos [m]", "true pos [m]",
             "err [m]"],
            rows,
            precision=2,
        )
    )
    print(f"\nmedian error: {float(np.median(errors)):.2f} m")
    return 0


class _InprocTarget:
    """Query-only view of a backend for the load drivers.

    The drivers call ``close()`` on whatever ``connect()`` returned; when
    the target is the shared in-process backend itself, that must not
    tear the backend down mid-run.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    def query(self, site, rss, day):
        return self._backend.query(site, rss, day)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.eval.engine import cached_scenario
    from repro.loadgen import (
        closed_loop_plan,
        find_max_sustained_qps,
        open_loop_plan,
        run_closed_loop,
        run_open_loop,
        run_open_loop_aio,
    )
    from repro.loadgen.driver import expected_answers
    from repro.serve import (
        AioFrontend,
        LocalizationService,
        ServiceClient,
        ShardedService,
    )
    from repro.sim.collector import RssCollector
    from repro.sim.specs import build_scenario

    spec = _spec(args)
    site_names = [f"site-{index:04d}" for index in range(args.sites)]
    specs = {name: spec for name in site_names}
    reference = LocalizationService.from_specs(specs, seed=args.seed)
    start = time.perf_counter()
    reference.warm()
    warm_s = time.perf_counter() - start
    scenario = cached_scenario(spec, build_scenario)
    cells = np.random.default_rng(
        _sub_seed(args.seed, "loadgen-cells")
    ).integers(0, scenario.deployment.cell_count, size=args.frames)
    trace = RssCollector(
        scenario, seed=_sub_seed(args.seed, "loadgen-trace")
    ).live_trace(0.0, cells)
    workloads = {site: trace.rss for site in site_names}
    # All sites share one spec → one deduped pipeline → identical answers;
    # compute the reference once and fan it out.
    first = expected_answers(
        reference, {site_names[0]: trace.rss}, 0.0
    )[site_names[0]]
    expected = {site: first for site in site_names}
    print(
        f"loadgen: {args.sites} site(s) sharing scenario {spec.name!r} "
        f"({reference.manager.stats.pipelines_built} pipeline(s), "
        f"warm {warm_s:.2f}s), transport {args.transport}, "
        f"arrival {args.arrival}, zipf_s={args.zipf_s:g}"
    )

    if args.shards:
        backend = ShardedService(specs, shards=args.shards, seed=args.seed)
        backend.warm()
    else:
        backend = reference

    def open_plan(rate: float):
        return open_loop_plan(
            sites=site_names,
            seed=args.seed,
            rate_qps=rate,
            requests=args.requests,
            process=args.process,
            zipf_s=args.zipf_s,
            clients=args.clients,
        )

    def report(summary: Dict[str, object]) -> None:
        latency = summary["latency"]
        print(
            f"  {summary['arrival']}/{summary['transport']}: offered "
            f"{summary['offered_qps']:,.0f} q/s, achieved "
            f"{summary['achieved_qps']:,.0f} q/s | p50/p95/p99 "
            f"{latency.get('p50_ms', float('nan')):.2f}/"
            f"{latency.get('p95_ms', float('nan')):.2f}/"
            f"{latency.get('p99_ms', float('nan')):.2f} ms | failed "
            f"{summary['failed_queries']}, mismatched "
            f"{summary['mismatched_queries']}"
        )

    try:
        with tempfile.TemporaryDirectory() as tmp:
            frontend = address = None
            if args.transport != "inproc":
                # One server; the transport picks which of its addresses
                # the clients dial.
                frontend = AioFrontend(
                    backend, unix_path=str(Path(tmp) / "loadgen.sock")
                ).start()
                address = {
                    "http": frontend.http_address,
                    "unix": frontend.unix_address,
                    "aio": frontend.address,
                }[args.transport]
            try:

                def run_open(rate: float) -> Dict[str, object]:
                    plan = open_plan(rate)
                    if args.transport == "aio":
                        result = run_open_loop_aio(
                            plan, address, workloads, expected=expected,
                            connections=2,
                        )
                    elif args.transport == "inproc":
                        result = run_open_loop(
                            plan, lambda: _InprocTarget(backend), workloads,
                            expected=expected, transport="inproc",
                        )
                    else:
                        result = run_open_loop(
                            plan,
                            lambda: ServiceClient(address, retries=0),
                            workloads, expected=expected,
                            transport=args.transport,
                        )
                    return result.summary()

                if args.arrival == "closed":
                    plan = closed_loop_plan(
                        sites=site_names,
                        seed=args.seed,
                        clients=args.clients,
                        requests_per_client=max(
                            1, args.requests // args.clients
                        ),
                        think_s=args.think_s,
                        zipf_s=args.zipf_s,
                    )
                    print(f"  plan fingerprint {plan.fingerprint()[:16]}…")
                    if args.transport == "inproc":
                        connect = lambda: _InprocTarget(backend)  # noqa: E731
                    else:
                        # The sync client speaks http://, unix:// and
                        # tcp:// alike.
                        connect = lambda: ServiceClient(  # noqa: E731
                            address, retries=0
                        )
                    report(
                        run_closed_loop(
                            plan, connect, workloads, expected=expected,
                            transport=args.transport,
                        ).summary()
                    )
                elif args.slo_ms > 0:
                    print(
                        f"  SLO search: {args.percentile} <= "
                        f"{args.slo_ms:g} ms from {args.rate:g} q/s"
                    )
                    search = find_max_sustained_qps(
                        run_open,
                        slo_ms=args.slo_ms,
                        percentile=args.percentile,
                        start_qps=args.rate,
                        max_qps=args.max_qps,
                    )
                    for probe in search.probes:
                        report(probe)
                    print(
                        f"  max sustained under SLO: "
                        f"{search.max_sustained_qps:,.0f} q/s "
                        f"({len(search.probes)} probe(s))"
                    )
                else:
                    plan = open_plan(args.rate)
                    print(f"  plan fingerprint {plan.fingerprint()[:16]}…")
                    report(run_open(args.rate))
            finally:
                if frontend is not None:
                    frontend.close()
    finally:
        if backend is not reference:
            backend.close()
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_summary
    from repro.sim.specs import build_deployment

    spec = _spec(args)
    deployment = build_deployment(spec.geometry)
    print(
        format_summary(
            f"[Fig. 2] Deployment: {spec.name}",
            {
                "links": deployment.link_count,
                "cells": deployment.cell_count,
                "cell size [m]": deployment.grid.cell_size,
            },
        )
    )
    print(deployment.ascii_floor_plan())
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table
    from repro.sim.specs import build_deployment, list_scenarios

    rows = []
    for name, spec in list_scenarios().items():
        deployment = build_deployment(spec.geometry)
        extras = []
        if spec.interference is not None:
            extras.append("interference")
        if spec.events:
            extras.append(f"{len(spec.events)} event(s)")
        rows.append(
            [
                name,
                deployment.link_count,
                deployment.cell_count,
                f"{spec.geometry.width_m:g}x{spec.geometry.depth_m:g}",
                spec.drift.model,
                ", ".join(extras) or "-",
            ]
        )
    print(
        "Registered scenarios (use --scenario NAME, or --scenario-file "
        "spec.json for your own):\n"
        + format_table(
            ["name", "links", "cells", "area [m]", "drift", "extras"], rows
        )
    )
    if args.describe:
        print()
        for name, spec in list_scenarios().items():
            print(f"{name}: {spec.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tafloc-repro",
        description="Reproduce the TafLoc (SIGCOMM'16) experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment engine (results are "
        "bit-identical for any value)",
    )
    scenario_group = parser.add_mutually_exclusive_group()
    scenario_group.add_argument(
        "--scenario", default="paper",
        help="registered scenario name (see `tafloc-repro scenarios`) or "
        "'square-<edge>m'",
    )
    scenario_group.add_argument(
        "--scenario-file", default=None,
        help="path to a ScenarioSpec JSON file (a user-supplied environment)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="commission/update/localize demo")

    drift = sub.add_parser("drift", help="in-text drift measurement")
    drift.add_argument(
        "--days", type=float, nargs="+", default=[3, 5, 15, 45, 90]
    )
    drift.add_argument("--rooms", type=int, default=6, help="ensemble size")

    fig3 = sub.add_parser("fig3", help="reconstruction error vs gap")
    fig3.add_argument("--days", type=float, nargs="+", default=[3, 5, 15, 45, 90])
    fig3.add_argument("--cdf", action="store_true", help="print the CDF table")

    fig4 = sub.add_parser("fig4", help="update cost vs area size")
    fig4.add_argument(
        "--edges", type=float, nargs="+", default=[6, 12, 18, 24, 30, 36]
    )

    fig5 = sub.add_parser("fig5", help="localization comparison")
    fig5.add_argument("--day", type=float, default=90.0)
    fig5.add_argument("--cdf", action="store_true", help="print the CDF table")

    sub.add_parser("floorplan", help="render the selected deployment")

    scenarios = sub.add_parser("scenarios", help="list the scenario registry")
    scenarios.add_argument(
        "--describe", action="store_true", help="print full descriptions"
    )

    analyze = sub.add_parser(
        "analyze",
        help="repro-lint: AST invariant checks (determinism, locks, wire)",
    )
    analyze.add_argument("--root", default=None, help="tree to analyze")
    analyze.add_argument("--baseline", default=None, help="baseline JSON")
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    analyze.add_argument("--out", default=None, help="write JSON report here")
    analyze.add_argument(
        "--rule", action="append", dest="rules", metavar="RL-XXX"
    )
    analyze.add_argument("--list-rules", action="store_true")

    serve = sub.add_parser(
        "serve", help="multi-site serving demo: commission, route, measure"
    )
    serve.add_argument(
        "--sites", nargs="+", default=None,
        help="site scenario names (default: paper, or the --scenario-file "
        "spec when given)",
    )
    serve.add_argument(
        "--frames", type=int, default=200,
        help="warm workload frames per site",
    )
    serve.add_argument(
        "--update-days", type=float, nargs="*", default=[],
        help="run a fingerprint refresh at each day before serving",
    )
    serve.add_argument(
        "--day", type=float, default=0.0, help="query day for the workload"
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the JSON protocol instead of running the demo (port 0 "
        "picks a free port). One asyncio server answers both HTTP/1.1 "
        "(http://host:port: POST /<method>, GET for read-only methods) "
        "and pipelined NDJSON (tcp://host:port: many in-flight requests "
        "per connection, streamed query_trace) on that port; answers are "
        "bit-identical either way",
    )
    serve.add_argument(
        "--unix", dest="unix_socket", default=None, metavar="PATH",
        help="also serve over a unix domain socket (unix://PATH); without "
        "--listen the TCP port is ephemeral",
    )
    # Selects nothing, but the end-to-end benchmark launches its servers
    # with `serve --transport aio` (perfbench/procs.py), so it stays.
    serve.add_argument(
        "--transport", choices=["aio"], default="aio", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="partition sites across N worker processes (0 = in-process; "
        "answers are bit-identical for any value). A running sharded "
        "server resizes live via the wire 'resize' method: POST /resize "
        "{\"shards\": M} moves only the jump-hash-displaced sites, warms "
        "them (from snapshots when --snapshot-dir is set) before the "
        "routing table flips, and keeps answering throughout",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="serve every site from R distinct shard workers (needs "
        "--shards >= R): queries fail over transparently when a worker "
        "dies or hangs, updates fan out to all R copies; with R >= 2 a "
        "kill -9 under load loses zero queries",
    )
    serve.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="persist commissioned site state (fingerprint epochs + "
        "collector RNG states, checksummed) under DIR; crashed workers "
        "respawn warm from these snapshots in milliseconds instead of "
        "re-surveying, bit-identically",
    )
    serve.add_argument(
        "--snapshot-keep", type=int, default=None, metavar="K",
        help="retain the newest K snapshot versions per site (with "
        "--snapshot-dir); older versions are pruned by the snapshot "
        "lifecycle, keeping the directory bounded under daily refresh",
    )
    serve.add_argument(
        "--read-mode", default="failover",
        choices=["failover", "quorum"],
        help="with --shards and --replicas >= 2: 'quorum' cross-checks "
        "every read against all live replicas bit-for-bit, alarms on "
        "divergence, and quarantines + read-repairs the diverged copy "
        "before answering (the answer always comes from a verified "
        "replica); 'failover' asks one replica and only fails over on "
        "transport errors",
    )
    serve.add_argument(
        "--degraded-mode", action="store_true",
        help="when every replica of a site is down, answer from the "
        "last verified snapshot with an explicit stale marker instead "
        "of returning 503 (needs --snapshot-dir)",
    )
    serve.add_argument(
        "--scrub-interval-seconds", type=float, default=0.0, metavar="S",
        help="run the background anti-entropy scrub every S seconds "
        "(0 = off; with --shards): probes every site's replicas with "
        "identical held-out queries, alarms on any bit divergence, and "
        "quarantines + repairs the liar from its snapshot",
    )
    serve.add_argument(
        "--refresh-policy", default="off",
        choices=["off", "interval", "round-robin", "priority", "drift"],
        help="background fingerprint refresh policy (with --listen); "
        "'drift' refreshes on *measured* model degradation (held-out "
        "probe error vs the live database) instead of epoch age",
    )
    serve.add_argument(
        "--drift-threshold-m", type=float, default=0.75, metavar="M",
        help="with --refresh-policy drift: refresh a site once its "
        "measured degradation reaches M meters",
    )
    serve.add_argument(
        "--snapshot-cadence-days", type=float, default=None, metavar="D",
        help="run the snapshot lifecycle (save + scrub + compact) every "
        "D simulation days from the refresh scheduler",
    )
    serve.add_argument(
        "--refresh-interval-days", type=float, default=30.0,
        help="staleness threshold before a site is eligible for refresh",
    )
    serve.add_argument(
        "--refresh-budget", type=int, default=None,
        help="max refresh actions per scheduler tick",
    )
    serve.add_argument(
        "--refresh-period-seconds", type=float, default=1.0,
        help="wall seconds between scheduler ticks",
    )
    serve.add_argument(
        "--days-per-second", type=float, default=1.0,
        help="simulation-day clock rate driving the refresh scheduler",
    )
    serve.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop serving after this many seconds (smoke tests/demos)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a front-end with generated load: open/closed-loop "
        "arrivals, Zipf site skew, latency percentiles, SLO search",
    )
    loadgen.add_argument(
        "--arrival", choices=["open", "closed"], default="open",
        help="'open' schedules arrivals independent of completions "
        "(coordinated-omission-free: latency is measured from the "
        "PLANNED send time); 'closed' runs N clients in "
        "request-think-request loops",
    )
    loadgen.add_argument(
        "--process", choices=["poisson", "uniform"], default="poisson",
        help="open-loop inter-arrival process (seeded, bit-reproducible)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop offered rate in q/s (with --slo-ms: the search's "
        "starting rate)",
    )
    loadgen.add_argument(
        "--requests", type=int, default=200,
        help="total requests per run (closed loop: split across clients)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=4,
        help="worker threads (open) / closed-loop clients",
    )
    loadgen.add_argument(
        "--think-s", type=float, default=0.0,
        help="closed-loop think time between a reply and the next request",
    )
    loadgen.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf exponent for site popularity (0 = uniform)",
    )
    loadgen.add_argument(
        "--slo-ms", type=float, default=0.0,
        help="latency SLO bound in ms; > 0 runs the saturation search "
        "for the max sustained rate whose --percentile stays under it",
    )
    loadgen.add_argument(
        "--percentile", default="p99_ms",
        choices=["p50_ms", "p95_ms", "p99_ms", "p999_ms"],
        help="which latency percentile the SLO bounds",
    )
    loadgen.add_argument(
        "--max-qps", type=float, default=50_000.0,
        help="saturation-search rate ceiling",
    )
    loadgen.add_argument(
        "--sites", type=int, default=4,
        help="registered sites sharing the --scenario environment "
        "(pipelines dedupe by fingerprint; queries spread by --zipf-s)",
    )
    loadgen.add_argument(
        "--transport", default="http",
        choices=["inproc", "http", "unix", "aio"],
        help="target: the in-process service, or the wire server over "
        "HTTP, unix-socket NDJSON, or pipelined TCP NDJSON (aio)",
    )
    loadgen.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="back the front-end with N shard worker processes "
        "(0 = in-process backend)",
    )
    loadgen.add_argument(
        "--frames", type=int, default=16,
        help="distinct query frames in the shared workload trace",
    )

    query = sub.add_parser(
        "query", help="route a live query batch through the serving layer"
    )
    query.add_argument("--day", type=float, default=0.0, help="query day")
    query.add_argument(
        "--frames", type=int, default=3,
        help="random ground-truth frames to query (ignored with --cells)",
    )
    query.add_argument(
        "--cells", type=int, nargs="+", default=None,
        help="explicit ground-truth cells for the query frames",
    )
    query.add_argument(
        "--update-days", type=float, nargs="*", default=[],
        help="run a fingerprint refresh at each day before querying",
    )
    query.add_argument(
        "--connect", default=None, metavar="URL",
        help="route the batch through a running `serve --listen` server "
        "(http://host:port, tcp://host:port or unix:///path) instead of "
        "in-process",
    )
    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.__main__ import main as analysis_main

    forwarded: List[str] = ["--format", args.format]
    if args.root is not None:
        forwarded += ["--root", args.root]
    if args.baseline is not None:
        forwarded += ["--baseline", args.baseline]
    if args.out is not None:
        forwarded += ["--out", args.out]
    for rule in args.rules or ():
        forwarded += ["--rule", rule]
    if args.list_rules:
        forwarded += ["--list-rules"]
    return analysis_main(forwarded)


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "drift": _cmd_drift,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "floorplan": _cmd_floorplan,
    "scenarios": _cmd_scenarios,
    "analyze": _cmd_analyze,
    "loadgen": _cmd_loadgen,
    "serve": _cmd_serve,
    "query": _cmd_query,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        cap_blas_threads()
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
