"""Golden digests of the simulator's output bits.

The simulated radio world is the workload of every benchmark and the
oracle of every bit-identity test, so a refactor of the simulator must
leave its output unchanged to the last bit. This module hashes full and
subset surveys, live and walked traces, and the entry-drift field of every
registered scenario (plus two generic squares, and a bare
:class:`~repro.sim.drift.EntryFieldDrift` on degenerate grids) at integer
and fractional days asked out of order, and compares the hashes with the
committed ``sim_bits_golden.json``.

Regenerate the golden file only for a change that is *meant* to move the
simulator's bits::

    PYTHONPATH=src python tests/sim/test_sim_bits.py > tests/sim/sim_bits_golden.json

Bits are a contract of one numpy build, not across numpy releases, so the
comparison is skipped when the installed numpy differs from the one the
golden file was written with.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.sim import (
    RssCollector,
    build_scenario,
    get_scenario_spec,
    scenario_names,
)
from repro.sim.collector import CollectionProtocol
from repro.sim.drift import EntryFieldDrift
from repro.sim.geometry import Point

GOLDEN = Path(__file__).with_name("sim_bits_golden.json")

#: Out of order on purpose, with fractional days between lattice points.
DAYS = (45.0, 3.0, 12.5, 0.0, 30.25)
PROTOCOL = CollectionProtocol(samples_per_cell=20, empty_room_samples=6)
DRIFT = "entry-field-drift"


def _names():
    return scenario_names() + ["square-8m", "square-20m", DRIFT]


def _scenario_digest(name: str) -> str:
    scenario = build_scenario(get_scenario_spec(name))
    collector = RssCollector(scenario, protocol=PROTOCOL, seed=7)
    deployment = scenario.deployment
    cells = np.arange(deployment.cell_count)
    grid = deployment.grid
    corner = grid.center_of(0)
    far = grid.center_of(deployment.cell_count - 1)
    digest = hashlib.sha256()

    def add(array) -> None:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())

    for day in DAYS:
        full = collector.collect_full_survey(day).survey
        add(full.matrix)
        add(full.empty_rss)
        add(collector.collect_survey(day, cells[::-5]).survey.matrix)
        trace = collector.live_trace(day, cells[1::7], averaging=3)
        add(trace.rss)
        add(trace.true_positions)
        walk = collector.walk_trace(
            day, [corner, Point(far.x, corner.y), far], averaging=2
        )
        add(walk.rss)
        if scenario.entry_drift is not None:
            add(scenario.entry_drift.offsets(day))
    return digest.hexdigest()


def _drift_digest() -> str:
    """A bare entry-drift field, rough and grid-smoothed, days out of order."""
    digest = hashlib.sha256()
    for grid in ((0, 0), (3, 4), (1, 12), (12, 1)):
        drift = EntryFieldDrift(
            links=3, cells=12, grid_rows=grid[0], grid_columns=grid[1], seed=5
        )
        for day in (9.5, 2.0, 17.0, 0.0, 16.75):
            digest.update(np.ascontiguousarray(drift.offsets(day)).tobytes())
    return digest.hexdigest()


def _digest(name: str) -> str:
    return _drift_digest() if name == DRIFT else _scenario_digest(name)


def simulator_digests() -> Dict[str, object]:
    return {
        "numpy": np.__version__,
        "digests": {name: _digest(name) for name in _names()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden["digests"]) == sorted(_names())


@pytest.mark.parametrize("name", _names())
def test_simulator_bits_match_the_golden_digest(golden, name):
    if golden["numpy"] != np.__version__:
        pytest.skip(
            f"golden digests were taken with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__}"
        )
    assert _digest(name) == golden["digests"][name]


if __name__ == "__main__":
    json.dump(simulator_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
