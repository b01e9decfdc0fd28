"""The gate-section registry package.

Importing this package registers every section in run order —
``engine``, ``serving``, ``frontend``, ``frontend_async``,
``resilience``, ``trust``, ``loadgen`` — and re-exports the registry
functions plus each section's gate run. Each section's ``smoke_gates``
are the repository's only gate runner: ``benchmarks/bench_perf.py``
runs them, and every ``make *-smoke`` target is that script narrowed
with ``--only``. Performance is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

from repro.eval.bench.common import BENCH_SEED, bench_spec, identical
from repro.eval.bench.registry import (
    BenchSection,
    get_section,
    register,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)

# Importing each module registers its section; the import order here IS
# the run order.
from repro.eval.bench.engine import bench_engine
from repro.eval.bench.serving import bench_serving
from repro.eval.bench.frontend import bench_frontend
from repro.eval.bench.frontend_async import bench_frontend_async
from repro.eval.bench.resilience import bench_resilience
from repro.eval.bench.trust import bench_trust
from repro.eval.bench.loadgen import bench_loadgen

__all__ = [
    "BENCH_SEED",
    "BenchSection",
    "bench_engine",
    "bench_frontend",
    "bench_frontend_async",
    "bench_loadgen",
    "bench_resilience",
    "bench_serving",
    "bench_spec",
    "bench_trust",
    "get_section",
    "identical",
    "register",
    "run_perf_bench",
    "section_names",
    "sections",
    "smoke_failures",
]
