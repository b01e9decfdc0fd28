"""Property test: the simulator's Gaussian smoothing equals ndimage's.

:func:`repro.sim.drift.gaussian_smooth` shapes every slow-drift innovation,
so its bits are the simulator's bits. ``scipy.ndimage`` is the oracle and
is imported here only; the package itself no longer loads it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from repro.sim.drift import gaussian_smooth

# Dimensions of 1, dimensions below the kernel radius (radius = 6 at
# sigma = 1.5, the default) and dimensions well above it.
DIMENSION = st.integers(min_value=1, max_value=40)
SIGMA = st.floats(min_value=0.0, max_value=4.0, exclude_min=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(
    links=st.integers(min_value=1, max_value=3),
    rows=DIMENSION,
    columns=DIMENSION,
    sigma=SIGMA,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# ndimage skips an axis at sigma <= 1e-15; the kernel radius steps at 1/8.
@example(links=1, rows=1, columns=1, sigma=5e-324, seed=0)
@example(links=1, rows=3, columns=2, sigma=1e-15, seed=1)
@example(links=2, rows=4, columns=5, sigma=2e-15, seed=2)
@example(links=1, rows=5, columns=1, sigma=0.125, seed=3)
@example(links=1, rows=2, columns=33, sigma=4.0, seed=4)
def test_gaussian_smooth_matches_ndimage_bit_for_bit(links, rows, columns, sigma, seed):
    field = np.random.default_rng(seed).standard_normal((links, rows, columns))
    expected = gaussian_filter(field, sigma=(0.0, sigma, sigma), mode="nearest")
    actual = gaussian_smooth(field, sigma)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(sigma=SIGMA, rows=DIMENSION, columns=DIMENSION)
def test_gaussian_smooth_leaves_its_input_alone(sigma, rows, columns):
    field = np.random.default_rng(0).standard_normal((1, rows, columns))
    before = field.copy()
    gaussian_smooth(field, sigma)
    np.testing.assert_array_equal(field, before)
