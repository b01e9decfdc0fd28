"""The batch-last kernels of the coupled LoLi-IR half-steps against numpy's
reference routines: the SPD block inverse against ``np.linalg.inv``, the
block product against a stacked ``matmul``, and the batch-last pair
products against ``scipy.sparse.kron`` of the identity. The products of
random pair operators are checked bit for bit against ``scipy.sparse`` in
``tests/property/test_sparse_operators.py``."""

import numpy as np
import pytest
from scipy.sparse import identity, kron

from repro.core.loli_ir import _block_products, _PairEnds, _spd_block_inverse
from repro.core.operators import PairOperator

#: Ranks 1…6; 5 is ``square-6m``'s rank, 6 the default.
RANKS = range(1, 7)
#: A batch of one, and one wider than the rank.
BATCHES = (1, 37)


def _spd_stack(k, batch, seed, dtype=np.float64):
    """``(batch, k, k)`` SPD blocks, some of them badly conditioned."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((batch, k, k))
    blocks = factors @ factors.transpose(0, 2, 1)
    blocks += np.logspace(-3, 1, batch)[:, None, None] * np.eye(k)
    return blocks.astype(dtype)


def _batch_last(stack):
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("k", RANKS)
def test_spd_block_inverse_matches_numpy_inv(k, batch):
    blocks = _spd_stack(k, batch, seed=10 * k + batch)
    inverse = _spd_block_inverse(_batch_last(blocks))
    assert inverse.shape == (k, k, batch)
    np.testing.assert_allclose(
        np.moveaxis(inverse, -1, 0), np.linalg.inv(blocks), rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("k", RANKS)
def test_block_products_match_stacked_matmul(k, batch):
    rng = np.random.default_rng(k + 100 * batch)
    blocks = rng.standard_normal((batch, k, k))
    vectors = rng.standard_normal((batch, k))
    products = _block_products(_batch_last(blocks), np.ascontiguousarray(vectors.T))
    assert products.shape == (k, batch)
    np.testing.assert_allclose(
        products.T, (blocks @ vectors[:, :, None])[:, :, 0], rtol=1e-12, atol=1e-12
    )


def test_spd_block_inverse_keeps_float32():
    blocks = _spd_stack(6, 9, seed=3, dtype=np.float32)
    inverse = _spd_block_inverse(_batch_last(blocks))
    assert inverse.dtype == np.float32
    np.testing.assert_allclose(
        np.moveaxis(inverse, -1, 0),
        np.linalg.inv(blocks.astype(np.float64)),
        rtol=1e-2,
        atol=1e-2,
    )


@pytest.mark.parametrize("k", RANKS)
def test_a_block_that_is_not_spd_raises(k):
    blocks = _spd_stack(k, 5, seed=k)
    blocks[3] = -np.eye(k)
    with pytest.raises(np.linalg.LinAlgError):
        _spd_block_inverse(_batch_last(blocks))


@pytest.mark.parametrize("copies", (1, 2, 6))
def test_repeat_diagonal_is_kron_of_the_identity(copies):
    """A batch-last gather over ``copies`` rows is ``kron(I, op)`` applied to
    the flat rows, and its scatter is the transpose."""
    rng = np.random.default_rng(copies)
    a = rng.integers(0, 11, size=7)
    b = (a + rng.integers(1, 11, size=7)) % 11
    operator = PairOperator(a, b, (7, 11), 0)
    pair_ends = _PairEnds(operator, copies)
    expected = kron(identity(copies), operator.toarray()).toarray()
    unit_rows = np.eye(copies * 11).reshape(-1, copies, 11)
    repeated = np.stack([pair_ends.gather_rows(row).ravel() for row in unit_rows], 1)
    np.testing.assert_array_equal(repeated, expected)
    rows = np.random.default_rng(0).standard_normal((copies, 11))
    np.testing.assert_allclose(pair_ends.gather_rows(rows), rows @ operator.toarray().T)
    pairs = np.random.default_rng(1).standard_normal((copies, 7))
    np.testing.assert_allclose(
        pair_ends.scatter_rows(pairs),
        (expected.T @ pairs.ravel()).reshape(copies, -1),
    )
