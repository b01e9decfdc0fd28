"""The ``engine`` gate section: figure experiments, parallel vs serial."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.eval.bench.registry import BenchSection, register
from repro.eval.engine import ExperimentEngine
from repro.eval.experiments import (
    run_fig3_reconstruction_error,
    run_fig5_localization,
)

__all__ = ["bench_engine"]

JOBS = 2
SCENARIO = "paper"
FIG3_DAYS = (3.0, 15.0, 45.0, 90.0)
FIG5_DAY = 90.0


def _fig3_identical(a, b) -> bool:
    return all(
        x.day == y.day
        and np.array_equal(x.errors, y.errors)
        and x.mean_error == y.mean_error
        and x.stale_mean_error == y.stale_mean_error
        and x.oracle_mean_error == y.oracle_mean_error
        for x, y in zip(a, b)
    )


def _fig5_identical(a, b) -> bool:
    return set(a.errors) == set(b.errors) and all(
        np.array_equal(a.errors[name], b.errors[name]) for name in a.errors
    )


def bench_engine(seed: int) -> Dict[str, object]:
    """Fig. 3 and Fig. 5 through a ``JOBS``-worker engine and a serial one.

    One persistent parallel engine serves both figures, so its pool
    starts once; ``bit_identical`` is the acceptance contract that the
    parallel results equal the serial ones exactly. Caching is disabled
    so both engines do the full work.
    """

    def run_fig3(engine):
        return run_fig3_reconstruction_error(
            days=FIG3_DAYS, seed=seed, engine=engine, scenario_spec=SCENARIO
        )

    def run_fig5(engine):
        return run_fig5_localization(
            day=FIG5_DAY, seed=seed, engine=engine, scenario_spec=SCENARIO
        )

    record: Dict[str, object] = {}
    with ExperimentEngine(jobs=JOBS, cache=False) as parallel_engine:
        for name, runner, identical in (
            ("fig3", run_fig3, _fig3_identical),
            ("fig5", run_fig5, _fig5_identical),
        ):
            serial = runner(ExperimentEngine(jobs=1, cache=False))
            parallel = runner(parallel_engine)
            record[name] = {"bit_identical": bool(identical(serial, parallel))}
    return record


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    if not all(record[f]["bit_identical"] for f in ("fig3", "fig5")):
        return ["parallel results differ from serial"]
    return []


register(
    BenchSection(name="engine", run=bench_engine, smoke_gates=_smoke_gates)
)
