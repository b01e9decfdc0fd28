"""Deterministic load generation and SLO benchmarking.

The subsystem behind ``tafloc-repro loadgen`` and the ``loadgen`` bench
section: seeded open-/closed-loop load plans (:mod:`repro.loadgen.plan`),
drivers that execute a plan against the in-process service or any wire
front-end while recording honest per-query latency
(:mod:`repro.loadgen.driver`), the SLO saturation search
(:mod:`repro.loadgen.slo`), and the many-site registration soak
(:mod:`repro.loadgen.soak`). The section's smoke gates are the CI
``loadgen-smoke`` gate (``bench_perf.py --only loadgen``).
"""

from repro.loadgen.driver import (
    DriverResult,
    run_closed_loop,
    run_open_loop,
    run_open_loop_aio,
)
from repro.loadgen.plan import (
    LoadPlan,
    closed_loop_plan,
    open_loop_plan,
)
from repro.loadgen.slo import SloSearchResult, find_max_sustained_qps
from repro.loadgen.soak import run_site_soak

__all__ = [
    "DriverResult",
    "LoadPlan",
    "SloSearchResult",
    "closed_loop_plan",
    "find_max_sustained_qps",
    "open_loop_plan",
    "run_closed_loop",
    "run_open_loop",
    "run_open_loop_aio",
    "run_site_soak",
]
