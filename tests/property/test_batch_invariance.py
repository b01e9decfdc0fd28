"""A frame's answer does not depend on the batch it is scored in.

For every matcher, any frames and any split of them into consecutive
parts: the concatenated ``match_batch`` parts equal the whole batch, and
each row equals ``match(frame)`` — cells, positions and scores bit for
bit. The fingerprints carry fractional dB values at realistic link and
cell counts, so the inner products really round (an integer-valued case
would be exact in any summation order), plus duplicate template columns
and frames sitting on a column, so exact distance ties occur too.
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

#: Room (width, depth) in meters; with 0.6 m cells: 6, 20, 48 and 120 cells.
_ROOMS = ((1.8, 1.2), (3.0, 2.4), (4.8, 3.6), (7.2, 6.0))

#: Every matcher configuration; ``"cells"`` is k equal to the cell count.
_MATCHERS = (
    ("nn", "euclidean"),
    ("nn", "manhattan"),
    ("nn-dips", "euclidean"),
    ("knn", 1),
    ("knn", 3),
    ("knn", "cells"),
    ("probabilistic", None),
)


def build_matcher(kind, option, fingerprint, grid):
    if kind == "nn":
        return NearestNeighborMatcher(fingerprint, grid, metric=option)
    if kind == "nn-dips":
        return NearestNeighborMatcher(
            fingerprint,
            grid,
            use_dips=True,
            live_empty_rss=fingerprint.empty_rss + 0.7,
        )
    if kind == "knn":
        k = grid.cell_count if option == "cells" else option
        return KnnMatcher(fingerprint, grid, k=k)
    return ProbabilisticMatcher(fingerprint, grid, sigma_db=2.5)


@st.composite
def cases(draw):
    """A grid, a fingerprint, frames and a split of the frames."""
    grid = Grid(Room(*draw(st.sampled_from(_ROOMS))), 0.6)
    links = draw(st.integers(1, 48))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(-60.0, 8.0, size=(links, grid.cell_count))
    for target in rng.choice(
        grid.cell_count, size=grid.cell_count // 4, replace=False
    ):
        values[:, target] = values[:, rng.integers(grid.cell_count)]
    empty = rng.normal(-45.0, 3.0, size=links)
    frames = rng.normal(-60.0, 9.0, size=(count, links))
    on_column = rng.integers(grid.cell_count, size=min(2, count))
    frames[: len(on_column)] = values[:, on_column].T
    cuts = draw(
        st.lists(st.integers(1, max(1, count - 1)), max_size=6, unique=True)
    )
    bounds = [0, *sorted(cut for cut in cuts if cut < count), count]
    fingerprint = FingerprintMatrix(values=values, empty_rss=empty)
    return fingerprint, grid, frames, bounds


def float_bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@given(cases(), st.sampled_from(_MATCHERS))
@settings(max_examples=150, deadline=None)
def test_any_split_gives_the_whole_batch_and_lone_answers(case, spec):
    fingerprint, grid, frames, bounds = case
    matcher = build_matcher(*spec, fingerprint, grid)
    whole = matcher.match_batch(frames)
    parts = [
        matcher.match_batch(frames[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ]
    cells = np.concatenate([part.cells for part in parts])
    positions = np.concatenate([part.positions for part in parts])
    scores = np.concatenate([part.scores for part in parts])
    np.testing.assert_array_equal(cells, whole.cells)
    assert float_bits(positions) == float_bits(whole.positions)
    assert float_bits(scores) == float_bits(whole.scores)
    for index, frame in enumerate(frames):
        single = matcher.match(frame)
        assert single.cell == whole.cells[index]
        assert float_bits(
            [single.position.x, single.position.y]
        ) == float_bits(whole.positions[index])
        assert float_bits(single.scores) == float_bits(whole.scores[index])
