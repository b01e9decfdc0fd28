"""Property tests: the sparse smoothness operators equal their dense
definitions, and the gate weights equal the per-pair loop definitions.

The reference builders below are the original dense loops, kept here as the
oracle. "Equal" means the CSR arrays match ``csr_array(dense)`` field for
field (``indptr``, ``indices``, ``data`` and their dtypes), which is what
keeps every sparse product — and so every solve — bit-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from repro.core.operators import (
    continuity_operator,
    masked_pair_weights,
    similarity_operator,
)
from repro.sim.geometry import Grid, Room
from repro.sim.specs import build_deployment, get_scenario_spec

DEPLOYMENTS = ["paper", "square-3m", "square-6m", "square-12m", "square-20m"]


def dense_continuity(grid):
    pairs = [
        (cell, neighbor)
        for cell in range(grid.cell_count)
        for neighbor in grid.neighbors_of(cell)
        if neighbor > cell
    ]
    operator = np.zeros((grid.cell_count, len(pairs)))
    for p, (a, b) in enumerate(pairs):
        operator[a, p] = -1.0
        operator[b, p] = 1.0
    return operator


def dense_similarity(deployment):
    pairs = deployment.adjacent_link_pairs()
    operator = np.zeros((len(pairs), deployment.link_count))
    for p, (a, b) in enumerate(pairs):
        operator[p, a] = -1.0
        operator[p, b] = 1.0
    return operator


def loop_continuity_weights(mask, g):
    weights = np.zeros((mask.shape[0], g.shape[1]))
    for p in range(g.shape[1]):
        cells = np.flatnonzero(g[:, p])
        weights[:, p] = mask[:, cells[0]] & mask[:, cells[1]]
    return weights


def loop_similarity_weights(mask, h):
    weights = np.zeros((h.shape[0], mask.shape[1]))
    for p in range(h.shape[0]):
        links = np.flatnonzero(h[p])
        weights[p] = mask[links[0]] & mask[links[1]]
    return weights


def assert_same_csr(sparse, dense):
    reference = csr_array(dense)
    assert isinstance(sparse, csr_array)
    assert sparse.shape == reference.shape
    assert sparse.has_canonical_format
    for field in ("indptr", "indices", "data"):
        ours, theirs = getattr(sparse, field), getattr(reference, field)
        assert ours.dtype == theirs.dtype, field
        np.testing.assert_array_equal(ours, theirs, err_msg=field)


@given(
    columns=st.integers(1, 9),
    rows=st.integers(1, 9),
    cell_size=st.sampled_from([0.5, 0.6, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_continuity_operator_matches_dense_loop(columns, rows, cell_size):
    grid = Grid(Room(columns * cell_size, rows * cell_size), cell_size)
    assert (grid.columns, grid.rows) == (columns, rows)
    assert_same_csr(continuity_operator(grid), dense_continuity(grid))


@given(
    columns=st.integers(1, 9),
    rows=st.integers(1, 9),
    links=st.integers(1, 6),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_continuity_weights_match_loop(columns, rows, links, density, seed):
    grid = Grid(Room(float(columns), float(rows)), 1.0)
    mask = np.random.default_rng(seed).random((links, grid.cell_count)) < density
    g = continuity_operator(grid)
    w_g = masked_pair_weights(mask, g.tocsc().indices, axis=1)
    assert w_g.flags.c_contiguous
    np.testing.assert_array_equal(w_g, loop_continuity_weights(mask, g.toarray()))


@given(
    name=st.sampled_from(DEPLOYMENTS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_deployment_operators_match_dense_loops(name, density, seed):
    deployment = build_deployment(get_scenario_spec(name).geometry)
    g_dense = dense_continuity(deployment.grid)
    h_dense = dense_similarity(deployment)
    g = continuity_operator(deployment.grid)
    h = similarity_operator(deployment)
    assert_same_csr(g, g_dense)
    assert_same_csr(h, h_dense)
    shape = (deployment.link_count, deployment.cell_count)
    mask = np.random.default_rng(seed).random(shape) < density
    w_g = masked_pair_weights(mask, g.tocsc().indices, axis=1)
    w_h = masked_pair_weights(mask, h.indices, axis=0)
    for ours, theirs in (
        (w_g, loop_continuity_weights(mask, g_dense)),
        (w_h, loop_similarity_weights(mask, h_dense)),
    ):
        assert ours.flags.c_contiguous
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)


def test_similarity_covers_descending_link_pairs():
    """``adjacent_link_pairs`` emits some pairs high-to-low; the CSR row
    must still hold its indices sorted, with -1 on the first link."""
    deployment = build_deployment(get_scenario_spec("paper").geometry)
    pairs = deployment.adjacent_link_pairs()
    descending = [p for p, (a, b) in enumerate(pairs) if a > b]
    assert descending
    h = similarity_operator(deployment)
    assert_same_csr(h, dense_similarity(deployment))
    for p in descending:
        a, b = pairs[p]
        row = slice(h.indptr[p], h.indptr[p + 1])
        np.testing.assert_array_equal(h.indices[row], [b, a])
        np.testing.assert_array_equal(h.data[row], [1.0, -1.0])
