#!/usr/bin/env python
"""Run the gate sections and exit non-zero on any gate failure.

Usage::

    python benchmarks/bench_perf.py [--seed 2016] [--out REPORT.json]
        [--only SECTION [--only SECTION ...]]

A thin driver over the :mod:`repro.eval.bench` section registry. Each
registered section — ``engine`` (parallel vs serial figure
experiments), ``serving`` (multi-site in-process service),
``frontend`` (HTTP/tcp/unix wire + shard fan-out), ``frontend_async``
(pipelined and streamed asyncio NDJSON), ``resilience`` (kill -9,
snapshot respawn, live resize), ``trust`` (quorum reads, corruption
repair, degraded serving, snapshot retention), ``loadgen`` (SLO
saturation search, plan determinism, the many-site soak) — runs at
seconds scale and owns its gate conditions.
``--only`` narrows a run to the named section(s); the default runs
every section. The script prints each section's verdict, writes the
JSON report to ``--out`` (pass or fail) so CI can upload it, and on a
failure prints the command that replays the failing sections with the
same ``--seed``. Every ``make *-smoke`` target is this script with
``--only …``. Performance is measured by ``perfbench/``, not here.
The file name is intentionally ``bench_*`` (not ``test_*``) so pytest's
benchmark collection does not pick it up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.eval.bench import (  # noqa: E402
    BENCH_SEED,
    run_perf_bench,
    section_names,
    smoke_failures,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="write the JSON report here (pass or fail)"
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--only",
        action="append",
        choices=section_names(),
        default=None,
        metavar="SECTION",
        help="run only the named section(s); repeatable "
        f"(registered: {', '.join(section_names())})",
    )
    args = parser.parse_args(argv)

    report = run_perf_bench(seed=args.seed, only=args.only)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    verdicts = smoke_failures(report)
    for name, failures in verdicts.items():
        print(f"{name}: {'FAIL' if failures else 'pass'}")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    failing = [name for name, failures in verdicts.items() if failures]
    if failing:
        replay = f"python benchmarks/bench_perf.py --seed {args.seed}" + "".join(
            f" --only {name}" for name in failing
        )
        print(f"replay with: {replay}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
