#!/usr/bin/env python
"""Run the performance benchmark and write BENCH_PR10.json.

Usage::

    python benchmarks/bench_perf.py [--out BENCH_PR10.json]
        [--sizes paper square-6m square-12m warehouse ...] [--frames 500]
        [--repeat 3] [--jobs 2] [--scenario paper] [--smoke]
        [--only SECTION [--only SECTION ...]]

A thin driver over the :mod:`repro.eval.bench` section registry. Each
registered section — ``solve`` (surveys / LoLi-IR updates / matching),
``engine`` (Fig. 3/5 end-to-end through the parallel engine), ``serving``
(multi-site in-process service), ``frontend`` (HTTP/tcp/unix wire + shard
fan-out), ``frontend_async`` (pipelined asyncio NDJSON), ``resilience``
(kill -9 under load), ``trust`` (quorum reads, corruption repair,
snapshot soak), ``loadgen`` (open/closed-loop load generation with the
SLO saturation search and the many-site soak) — owns its measurement,
its block of the printed report, and its ``--smoke`` CI gates.
``--only`` narrows a run to the named section(s); the default run emits
every section.
``--smoke`` runs a seconds-scale subset (``SMOKE_KNOBS``) and exits
non-zero on any registered smoke-gate failure, printing the command
that replays the failing sections with the same ``--seed``; it honors
``--out`` (written pass or fail) so the workflow can upload the JSON as
an artifact. The section gates are the only gate driver: every ``make
*-smoke`` target is this script with ``--smoke --only …`` (``make
bench-smoke`` → every section, ``BENCH_SMOKE.json``; the committed full
run is ``BENCH_PR10.json``).
See EXPERIMENTS.md for the recorded trajectory and how to read the
numbers. The file name is intentionally ``bench_*`` (not ``test_*``) so
pytest's benchmark collection does not pick it up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.eval.bench import (  # noqa: E402
    DEFAULT_SIZES,
    SMOKE_KNOBS,
    format_bench_report,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)


def replay_command(report, seed: int) -> str:
    """The ``--smoke`` command that re-runs ``report``'s failing sections."""
    failing = [
        section.name
        for section in sections()
        if report.get(section.report_key)
        and section.smoke_gates(report[section.report_key])
    ]
    return f"python benchmarks/bench_perf.py --smoke --seed {seed}" + "".join(
        f" --only {name}" for name in failing
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_PR10.json; with --smoke, no "
        "file is written unless --out is given)",
    )
    parser.add_argument(
        "--sizes",
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="scenario names ('paper', 'warehouse', ...) or 'square-<edge>m'",
    )
    parser.add_argument("--frames", type=int, default=500)
    parser.add_argument("--samples-per-cell", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker count for the engine benchmark section",
    )
    parser.add_argument(
        "--scenario", default="paper",
        help="scenario for the engine benchmark section",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=section_names(),
        default=None,
        metavar="SECTION",
        help="run only the named section(s); repeatable "
        f"(registered: {', '.join(section_names())})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale subset for CI: one tiny size, every section's "
        "smoke gates enforced (JSON still written to --out when given)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_perf_bench(
            **SMOKE_KNOBS,
            seed=args.seed,
            out_path=args.out,
            engine_jobs=args.jobs,
            engine_scenario=args.scenario,
            only=args.only,
        )
        print(format_bench_report(report))
        failures = smoke_failures(report)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            print(
                f"replay with: {replay_command(report, args.seed)}",
                file=sys.stderr,
            )
            return 1
        return 0

    out = args.out or "BENCH_PR10.json"
    report = run_perf_bench(
        sizes=args.sizes,
        frames=args.frames,
        samples_per_cell=args.samples_per_cell,
        repeat=args.repeat,
        seed=args.seed,
        out_path=out,
        engine_jobs=args.jobs,
        engine_scenario=args.scenario,
        serving_sites=tuple(args.sizes),
        frontend_sites=tuple(args.sizes),
        frontend_async_sites=tuple(args.sizes),
        resilience_sites=("square-3m", "square-4m", "square-5m"),
        trust_sites=("square-3m", "square-4m"),
        loadgen_sites=("square-3m", "square-4m"),
        loadgen_transports=("http", "aio"),
        loadgen_shards=(1, 2),
        loadgen_soak_sites=1000,
        only=args.only,
    )
    print(format_bench_report(report))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
