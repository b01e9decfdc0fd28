"""Property tests: the pair operators equal their dense definitions, every
product the solver takes with them equals scipy's CSR product bit for bit,
and the gate weights equal the per-pair loop definitions.

The reference builders below are the original dense loops, kept here as the
oracle. scipy is a test-side oracle only: ``csr_array`` of the dense
definition is the operator the solver multiplied by before, and
``kron(I_k, ·)`` of it is how a batch-last ``(k, rows)`` iterate went
through it. Bit-equal products are what keep every solve bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, identity, kron

from repro.core.loli_ir import LoliIrConfig, LoliIrProblem, _CompiledProblem
from repro.core.operators import (
    PairOperator,
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


def sprinkled(rng, shape):
    """Normal draws with a quarter ``+0.0`` and a quarter ``-0.0``."""
    values = rng.standard_normal(shape)
    zeros = rng.random(shape)
    values[zeros < 0.25] = 0.0
    values[zeros > 0.75] = -0.0
    return values


def assert_same_bits(ours, theirs, name):
    theirs = np.ascontiguousarray(theirs)
    assert ours.shape == theirs.shape, name
    np.testing.assert_array_equal(
        np.ascontiguousarray(ours).view(np.uint64), theirs.view(np.uint64), name
    )


def assert_products_match_csr(g, h, k, seed):
    """Every product ``_CompiledProblem`` takes with ``g`` and ``h`` against
    the same product with their CSR matrices."""
    cells, links = g.shape[0], h.shape[1]
    problem = LoliIrProblem(
        observed_mask=np.ones((links, cells), dtype=bool),
        observed_values=np.zeros((links, cells)),
        continuity_op=g,
        continuity_weights=np.ones((links, g.shape[1])),
        similarity_op=h,
        similarity_weights=np.ones((h.shape[0], cells)),
    )
    compiled = _CompiledProblem(problem, LoliIrConfig(rank=k), k)
    g_csr, h_csr = csr_array(g.toarray()), csr_array(h.toarray())
    g_t, h_t = g_csr.T.tocsr(), h_csr.T.tocsr()

    def through(operator, rows):
        repeated = kron(identity(k), operator, format="csr")
        return (repeated @ rows.ravel()).reshape(k, -1)

    rng = np.random.default_rng(seed)
    estimate = sprinkled(rng, (links, cells))
    left, right = sprinkled(rng, (links, k)), sprinkled(rng, (cells, k))
    cell_rows, link_rows = sprinkled(rng, (k, cells)), sprinkled(rng, (k, links))
    g_pairs = sprinkled(rng, (k, g.shape[1]))
    h_pairs = sprinkled(rng, (k, h.shape[0]))
    g_blocks = sprinkled(rng, (k * k, g.shape[1]))
    h_blocks = sprinkled(rng, (k * k, h.shape[0]))
    c = compiled
    products = {
        "apply_g": (c.apply_g(estimate), (g_t @ estimate.T).T),
        "apply_h": (c.apply_h(estimate), h_csr @ estimate),
        "apply_h(L)": (c.apply_h(left), h_csr @ left),
        "g_gather": (c.g_gather(right), g_t @ right),
        "g_gather_last": (c.g_gather_last(cell_rows), through(g_t, cell_rows)),
        "g_scatter_last": (c.g_scatter_last(g_pairs), through(g_csr, g_pairs)),
        "h_gather_last": (c.h_gather_last(link_rows), through(h_csr, link_rows)),
        "h_scatter_last": (c.h_scatter_last(h_pairs), through(h_t, h_pairs)),
        "g_sq_diag": (c.g_sq_diag(g_blocks), (g_csr.power(2) @ g_blocks.T).T),
        "h_sq_diag": (c.h_sq_diag(h_blocks), (h_t.power(2) @ h_blocks.T).T),
    }
    for name, (ours, theirs) in products.items():
        assert_same_bits(ours, theirs, name)


def pair_lists(nodes):
    """Pairs of distinct nodes in any order: ascending and descending pairs,
    repeats, and nodes in no pair all occur."""
    pair = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
    return st.lists(pair.filter(lambda p: p[0] != p[1]), min_size=1, max_size=24)


@st.composite
def operator_pairs(draw):
    cells, links = draw(st.integers(2, 12)), draw(st.integers(2, 8))
    g_pairs = np.array(draw(pair_lists(cells)))
    h_pairs = np.array(draw(pair_lists(links)))
    g = PairOperator(g_pairs[:, 0], g_pairs[:, 1], (cells, len(g_pairs)), 1)
    h = PairOperator(h_pairs[:, 0], h_pairs[:, 1], (len(h_pairs), links), 0)
    return g, h


@given(
    operators=operator_pairs(),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_pair_products_match_csr_bit_for_bit(operators, k, seed):
    g, h = operators
    assert_products_match_csr(g, h, k, seed)


@given(
    columns=st.integers(1, 9),
    rows=st.integers(1, 9),
    cell_size=st.sampled_from([0.5, 0.6, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_continuity_operator_matches_dense_loop(columns, rows, cell_size):
    grid = Grid(Room(columns * cell_size, rows * cell_size), cell_size)
    assert (grid.columns, grid.rows) == (columns, rows)
    np.testing.assert_array_equal(
        continuity_operator(grid).toarray(), dense_continuity(grid)
    )


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
    w_g = masked_pair_weights(mask, g.pairs, axis=1)
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
    np.testing.assert_array_equal(g.toarray(), g_dense)
    np.testing.assert_array_equal(h.toarray(), h_dense)
    shape = (deployment.link_count, deployment.cell_count)
    mask = np.random.default_rng(seed).random(shape) < density
    w_g = masked_pair_weights(mask, g.pairs, axis=1)
    w_h = masked_pair_weights(mask, h.pairs, axis=0)
    for ours, theirs in (
        (w_g, loop_continuity_weights(mask, g_dense)),
        (w_h, loop_similarity_weights(mask, h_dense)),
    ):
        assert ours.flags.c_contiguous
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    if h.shape[0]:
        assert_products_match_csr(g, h, k=6, seed=seed)


def test_similarity_covers_descending_link_pairs():
    """``adjacent_link_pairs`` emits some pairs high-to-low. ``H`` keeps each
    pair as given, -1 on its first link, and its products still equal those
    of the CSR matrix, which holds the row's two indices sorted."""
    deployment = build_deployment(get_scenario_spec("paper").geometry)
    pairs = deployment.adjacent_link_pairs()
    descending = [p for p, (a, b) in enumerate(pairs) if a > b]
    assert descending
    h = similarity_operator(deployment)
    np.testing.assert_array_equal(h.pairs, pairs)
    np.testing.assert_array_equal(h.toarray(), dense_similarity(deployment))
    assert_products_match_csr(continuity_operator(deployment.grid), h, k=6, seed=0)


def test_a_dense_incidence_matrix_converts_to_its_pairs():
    g = np.zeros((5, 3))
    for p, (a, b) in enumerate([(0, 1), (4, 2), (3, 0)]):
        g[a, p], g[b, p] = -1.0, 1.0
    op = PairOperator.from_dense("continuity_op", g, pair_axis=1)
    np.testing.assert_array_equal(op.pairs, [(0, 1), (4, 2), (3, 0)])
    np.testing.assert_array_equal(op.toarray(), g)
    h = PairOperator.from_dense("similarity_op", g.T, pair_axis=0)
    np.testing.assert_array_equal(h.toarray(), g.T)
    g[1, 0] = 0.5
    with pytest.raises(ValueError, match="continuity_op"):
        PairOperator.from_dense("continuity_op", g, pair_axis=1)
