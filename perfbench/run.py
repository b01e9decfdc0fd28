"""TafLoc serving benchmark: ``python3 perfbench/run.py --workload NAME``.

Run from the root of a checkout. Builds nothing (the program is pure
Python under ``src/``), drives a real ``tafloc-repro serve`` process and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the separate traced pass and reports the per-layer
metrics. The lines before it are the run's full report (host stamp,
plan fingerprints, every phase's counts and percentiles). Exits non-zero
without a result when the checkout has no program, when a server fails
or leaks a process, or when the generator lagged past its bound.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from procs import ROOT, SRC, host_stamp, pin_environment  # noqa: E402

pin_environment()


def parse_args(argv):
    from workload import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(correct, attempted, failed, values, declared) -> str:
    """The result object: ``values`` must hold exactly the metrics
    ``declared`` in BENCHMARK.json, which also gives their units."""
    if set(values) != {row["name"] for row in declared}:
        raise ValueError(f"measured {sorted(values)}, declared {declared}")
    missing = [name for name, value in values.items() if not math.isfinite(value)]
    if missing:
        raise ValueError(f"no measurement for {missing}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                row["name"]: {"value": float(values[row["name"]]), "unit": row["unit"]}
                for row in declared
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that: the servers would then ignore the SIGINT that stops
    # them gracefully. A handler here makes every child start with the
    # default disposition again.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import RunError, run_workload
    from workload import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            from layers import traced_run

            report, values = asyncio.run(traced_run(workload, args.seed, args.seconds))
        else:
            run = asyncio.run(run_workload(workload, args.seed, args.seconds))
            report, values = run.report(), run.metrics()
    except RunError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    report["host"] = host_stamp()
    print(json.dumps(report, sort_keys=True))
    if not report["valid"]:
        print(f"run invalid: {'; '.join(report['invalid'])}", file=sys.stderr)
        return 3
    attempted, failed = report["attempted"], report["failed"]
    kind = "per_layer" if args.trace else "end_to_end"
    correct = failed == 0 and report["mismatched"] == 0
    print(result_line(correct, attempted, failed, values, declared[kind]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
