"""Argument-validation helpers shared across the library.

These raise early with actionable messages instead of letting malformed
arrays propagate into numerical code where failures are obscure.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Ensure a scalar is positive (or non-negative when ``strict=False``)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_probability(name: str, value: float) -> float:
    """Ensure a scalar lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_matrix(
    name: str,
    value: np.ndarray,
    *,
    ndim: int = 2,
    dtype: type = float,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``value`` to a float ndarray of dimension ``ndim`` and validate it."""
    array = np.asarray(value, dtype=dtype)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    if not allow_empty and array.size == 0:
        raise ValueError(f"{name} must not be empty")
    return array


def check_finite(name: str, value: np.ndarray) -> np.ndarray:
    """Ensure an array contains no NaN or infinity."""
    array = np.asarray(value)
    finite = np.isfinite(array)
    if not finite.all():
        bad = int(np.count_nonzero(~finite))
        raise ValueError(f"{name} contains {bad} non-finite entries")
    return array


def check_shape(
    name: str, value: np.ndarray, expected: Tuple[Optional[int], ...]
) -> np.ndarray:
    """Ensure ``value.shape`` matches ``expected`` (``None`` = wildcard)."""
    array = np.asarray(value)
    if len(array.shape) != len(expected):
        raise ValueError(
            f"{name} must have {len(expected)} dimensions, got shape {array.shape}"
        )
    for axis, (actual, want) in enumerate(zip(array.shape, expected)):
        if want is not None and actual != want:
            raise ValueError(
                f"{name} axis {axis} must have length {want}, got {actual} "
                f"(full shape {array.shape})"
            )
    return array


def check_index_array(
    name: str, value: Sequence[int], *, upper: int, allow_duplicates: bool = False
) -> np.ndarray:
    """Validate an integer index array against ``range(upper)``."""
    indices = np.asarray(value, dtype=int)
    if indices.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= upper):
        raise ValueError(
            f"{name} entries must lie in [0, {upper}), got range "
            f"[{indices.min()}, {indices.max()}]"
        )
    if not allow_duplicates and len(np.unique(indices)) != len(indices):
        raise ValueError(f"{name} must not contain duplicate indices")
    return indices
