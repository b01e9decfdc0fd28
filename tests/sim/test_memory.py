"""Memory regression tests for the simulator's largest allocations.

The commissioning survey builds one ``(cells, samples, links)`` float64
stack (plus the interference offsets, where a scenario has them), and
the entry-drift lattice grows by one ``(links, cells)`` array
per simulated day. Both set a serving process's resident memory, so both
are pinned here with :mod:`tracemalloc`, which sees numpy's buffers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import RssCollector, build_scenario, get_scenario_spec
from repro.sim.drift import EntryFieldDrift


def _peak_and_retained(action):
    """(peak, retained) bytes newly allocated while ``action`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = action()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, current - base, result


def test_full_survey_holds_one_sample_stack():
    scenario = build_scenario(get_scenario_spec("square-20m"))
    collector = RssCollector(scenario, seed=3)
    day = 30.0
    # Materialize the drift lattice and the entry weights first: they are
    # kept state, not survey scratch.
    scenario.entry_drift.offsets(day)
    scenario.entry_drift_weights()
    deployment = scenario.deployment
    stack = (
        deployment.cell_count
        * collector.protocol.samples_per_cell
        * deployment.link_count
        * np.dtype(np.float64).itemsize
    )
    peak, _, result = _peak_and_retained(lambda: collector.collect_full_survey(day))
    matrix = result.survey.matrix
    assert matrix.shape == (deployment.link_count, deployment.cell_count)
    assert peak <= 1.25 * stack, f"survey peak is {peak / stack:.2f} stacks"


def test_interference_survey_draws_its_offsets_in_place():
    """``atrium`` adds bursty interference to every survey sample. Its
    offsets are drawn into one ``(samples, links)`` array plus a mask,
    next to the survey's own stack (4.80 stacks before they were)."""
    scenario = build_scenario(get_scenario_spec("atrium"))
    assert scenario.interference_spec is not None
    collector = RssCollector(scenario, seed=3)
    day = 30.0
    if scenario.entry_drift is not None:
        scenario.entry_drift.offsets(day)
        scenario.entry_drift_weights()
    deployment = scenario.deployment
    stack = (
        deployment.cell_count
        * collector.protocol.samples_per_cell
        * deployment.link_count
        * np.dtype(np.float64).itemsize
    )
    peak, _, _ = _peak_and_retained(lambda: collector.collect_full_survey(day))
    assert peak <= 3.0 * stack, f"survey peak is {peak / stack:.2f} stacks"


def test_entry_drift_keeps_one_array_per_simulated_day():
    links, cells, days = 6, 400, 40
    drift = EntryFieldDrift(
        links=links, cells=cells, grid_rows=20, grid_columns=20, seed=1
    )
    array = links * cells * np.dtype(np.float64).itemsize
    _, retained, _ = _peak_and_retained(lambda: drift.offsets(float(days)))
    # Days 1..days are new; the AR(1) state is replaced, not accumulated.
    # The slack of 4 arrays covers that state and numpy's small caches; a
    # lattice that kept ``fast`` and ``slow`` per day would hold 2 * days.
    assert retained <= (days + 4) * array, f"{retained / array:.1f} arrays kept"
    assert retained >= days * array


def test_entry_drift_offsets_are_read_only():
    drift = EntryFieldDrift(links=3, cells=12, grid_rows=3, grid_columns=4, seed=2)
    day5 = drift.offsets(5.0)
    before = day5.copy()
    with pytest.raises(ValueError, match="read-only"):
        day5[0, 0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        day5 += 1.0
    np.testing.assert_array_equal(drift.offsets(5.0), before)
    # A fractional day is a fresh blend the caller owns.
    blend = drift.offsets(5.5)
    blend[0, 0] = 99.0
    np.testing.assert_array_equal(drift.offsets(5.0), before)
