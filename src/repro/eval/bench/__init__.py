"""The bench-section registry package (the PR-10 API redesign).

Importing this package registers every section in canonical report
order — ``solve``, ``engine``, ``serving``, ``frontend``,
``frontend_async``, ``resilience``, ``trust``, ``loadgen`` — and
re-exports the registry drivers plus each section's public benchmark
function. Each section's ``smoke_gates`` are the repository's only gate
driver: ``benchmarks/bench_perf.py --smoke`` runs them at the
``SMOKE_KNOBS`` scale, and every ``make *-smoke`` target is that script
narrowed with ``--only``.
"""

from __future__ import annotations

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    DEFAULT_SIZES,
    LEGACY_SOLVER,
    SMOKE_KNOBS,
    StageTiming,
    bench_spec,
    best_of,
    build_bench_deployment,
    host_metadata,
    identical,
)
from repro.eval.bench.registry import (
    BenchSection,
    format_bench_report,
    get_section,
    register,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)

# Importing each module registers its section; the import order here IS
# the report order (the key order committed BENCH_PR*.json files use).
from repro.eval.bench.solve import bench_size
from repro.eval.bench.engine import bench_engine
from repro.eval.bench.serving import bench_serving
from repro.eval.bench.frontend import bench_frontend
from repro.eval.bench.frontend_async import bench_frontend_async
from repro.eval.bench.resilience import bench_resilience
from repro.eval.bench.trust import bench_trust
from repro.eval.bench.loadgen import bench_loadgen

__all__ = [
    "BENCH_SEED",
    "BenchConfig",
    "BenchSection",
    "DEFAULT_SIZES",
    "LEGACY_SOLVER",
    "SMOKE_KNOBS",
    "StageTiming",
    "bench_engine",
    "bench_frontend",
    "bench_frontend_async",
    "bench_loadgen",
    "bench_resilience",
    "bench_serving",
    "bench_size",
    "bench_spec",
    "bench_trust",
    "best_of",
    "build_bench_deployment",
    "format_bench_report",
    "get_section",
    "host_metadata",
    "identical",
    "register",
    "run_perf_bench",
    "section_names",
    "sections",
    "smoke_failures",
]
