"""The one-frame kernel behind ``Matcher.match`` gives the batch path's bits.

``match(x)`` must equal ``match_batch(x[None, :])[0]`` bit for bit (cell,
both position coordinates and the whole scores row) for every matcher.
RSS is quantised to whole dB, so exact distance ties are real: the
fingerprints here are integer-valued and carry duplicate template columns,
and some frames sit exactly on a template column.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import FingerprintMatrix
from repro.core.matching import (
    KnnMatcher,
    NearestNeighborMatcher,
    ProbabilisticMatcher,
)
from repro.sim.geometry import Grid, Room

#: Room (width, depth) in meters; with 0.6 m cells: 2, 6, 20 and 48 cells.
_ROOMS = ((1.2, 0.6), (1.8, 1.2), (3.0, 2.4), (4.8, 3.6))


@st.composite
def fingerprints_and_frames(draw):
    """A grid, an integer-dB fingerprint with duplicate columns, and
    quantised frames (some exactly on a template column)."""
    grid = Grid(Room(*draw(st.sampled_from(_ROOMS))), 0.6)
    links = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(-90, -30, size=(links, grid.cell_count)).astype(float)
    duplicates = draw(st.integers(0, grid.cell_count - 1))
    for target in rng.choice(grid.cell_count, size=duplicates, replace=False):
        values[:, target] = values[:, rng.integers(grid.cell_count)]
    empty = rng.integers(-50, -35, size=links).astype(float)
    frames = rng.integers(-95, -25, size=(6, links)).astype(float)
    on_column = rng.integers(grid.cell_count, size=2)
    frames[:2] = values[:, on_column].T
    fingerprint = FingerprintMatrix(values=values, empty_rss=empty)
    return fingerprint, grid, frames


def assert_same_bits(matcher, frames):
    for frame in frames:
        single = matcher.match(frame)
        row = matcher.match_batch(frame[None, :])[0]
        assert type(single.cell) is int
        assert single.cell == row.cell
        assert np.float64(single.position.x).tobytes() == np.float64(
            row.position.x
        ).tobytes()
        assert np.float64(single.position.y).tobytes() == np.float64(
            row.position.y
        ).tobytes()
        assert single.scores.dtype == row.scores.dtype
        assert single.scores.tobytes() == row.scores.tobytes()


@given(fingerprints_and_frames(), st.sampled_from(["euclidean", "manhattan"]))
@settings(max_examples=60, deadline=None)
def test_nearest_neighbor(case, metric):
    fingerprint, grid, frames = case
    assert_same_bits(NearestNeighborMatcher(fingerprint, grid, metric=metric), frames)


@given(fingerprints_and_frames(), st.sampled_from(["euclidean", "manhattan"]))
@settings(max_examples=30, deadline=None)
def test_nearest_neighbor_dips(case, metric):
    fingerprint, grid, frames = case
    matcher = NearestNeighborMatcher(
        fingerprint,
        grid,
        metric=metric,
        use_dips=True,
        live_empty_rss=fingerprint.empty_rss + 1.0,
    )
    assert_same_bits(matcher, frames)


@given(fingerprints_and_frames(), st.data())
@settings(max_examples=80, deadline=None)
def test_knn(case, data):
    fingerprint, grid, frames = case
    # k == cells takes the full-argsort branch; smaller k the argpartition one.
    k = data.draw(st.integers(1, grid.cell_count))
    assert_same_bits(KnnMatcher(fingerprint, grid, k=k), frames)


@given(fingerprints_and_frames(), st.floats(0.5, 8.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_probabilistic(case, sigma_db, skewed_prior):
    fingerprint, grid, frames = case
    prior = None
    if skewed_prior:
        prior = np.linspace(1.0, 2.0, grid.cell_count)
    matcher = ProbabilisticMatcher(fingerprint, grid, sigma_db=sigma_db, prior=prior)
    assert_same_bits(matcher, frames)
