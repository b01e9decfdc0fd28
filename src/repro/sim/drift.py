"""Slow temporal drift of RSS, the phenomenon that expires fingerprints.

The paper's motivating measurement: *"even without any change in the
environment, the RSS measurements still change slowly in the scale of days due
to temperature and humidity changes. In our experiments, the RSS values change
2.5 dBm and 6 dBm respectively after 5 and 45 days."*

We model per-link drift as a continuous-time stochastic process sampled at
arbitrary day offsets. The default :class:`GaussMarkovDrift` is an
Ornstein-Uhlenbeck-like process whose increment variance is calibrated so the
mean absolute drift magnitude reproduces the paper's two anchor points
(≈2.5 dBm @ 5 days, ≈6 dBm @ 45 days); see :func:`calibrated_paper_drift`.

Drift processes are deterministic functions of (seed, day): querying the same
day twice returns identical offsets, and days may be queried out of order.
This is achieved by generating the process on a fixed daily lattice at
construction time and interpolating.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_positive


class DriftProcess(abc.ABC):
    """Per-link additive RSS offset as a function of time (days)."""

    @abc.abstractmethod
    def offsets(self, day: float) -> np.ndarray:
        """Drift offsets (dB) of every link at ``day`` days after the survey."""

    @property
    @abc.abstractmethod
    def link_count(self) -> int:
        """Number of links the process covers."""


@dataclass
class GaussMarkovDrift(DriftProcess):
    """Mean-reverting (AR(1)) daily drift with cross-link correlation.

    Each day ``d``: ``x_d = rho * x_{d-1} + w_d`` where ``w_d`` is Gaussian
    with standard deviation ``sigma_daily`` and cross-link correlation
    ``link_correlation`` (temperature and humidity move all links together,
    antenna-specific aging does not). Mean reversion keeps long-horizon drift
    bounded the way real environmental drift is.

    Query times between lattice days are linearly interpolated.
    """

    links: int
    sigma_daily: float = 0.9
    rho: float = 0.985
    link_correlation: float = 0.6
    horizon_days: int = 400
    seed: RandomState = None
    _lattice: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.links < 1:
            raise ValueError(f"links must be >= 1, got {self.links}")
        check_positive("sigma_daily", self.sigma_daily, strict=False)
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 <= self.link_correlation <= 1.0:
            raise ValueError(
                f"link_correlation must lie in [0, 1], got {self.link_correlation}"
            )
        if self.horizon_days < 1:
            raise ValueError(f"horizon_days must be >= 1, got {self.horizon_days}")
        self._lattice = self._simulate(as_generator(self.seed))

    @property
    def link_count(self) -> int:
        return self.links

    def offsets(self, day: float) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        if day > self.horizon_days:
            raise ValueError(
                f"day {day} beyond simulated horizon of {self.horizon_days} days"
            )
        low = int(np.floor(day))
        high = min(low + 1, self.horizon_days)
        frac = day - low
        return (1.0 - frac) * self._lattice[low] + frac * self._lattice[high]

    def _simulate(self, rng: np.random.Generator) -> np.ndarray:
        days = self.horizon_days + 1
        lattice = np.zeros((days, self.links))
        common_weight = np.sqrt(self.link_correlation)
        private_weight = np.sqrt(1.0 - self.link_correlation)
        for d in range(1, days):
            common = rng.normal(0.0, self.sigma_daily)
            private = rng.normal(0.0, self.sigma_daily, size=self.links)
            innovation = common_weight * common + private_weight * private
            lattice[d] = self.rho * lattice[d - 1] + innovation
        return lattice


@dataclass
class RandomWalkDrift(DriftProcess):
    """Pure random-walk drift (no mean reversion); grows like sqrt(day).

    Kept as an alternative for ablations — it stresses the reconstruction
    harder at long horizons than the mean-reverting default.
    """

    links: int
    sigma_daily: float = 0.35
    link_correlation: float = 0.6
    horizon_days: int = 400
    seed: RandomState = None
    _lattice: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.links < 1:
            raise ValueError(f"links must be >= 1, got {self.links}")
        check_positive("sigma_daily", self.sigma_daily, strict=False)
        if not 0.0 <= self.link_correlation <= 1.0:
            raise ValueError(
                f"link_correlation must lie in [0, 1], got {self.link_correlation}"
            )
        rng = as_generator(self.seed)
        common_weight = np.sqrt(self.link_correlation)
        private_weight = np.sqrt(1.0 - self.link_correlation)
        days = self.horizon_days + 1
        steps = np.empty((days, self.links))
        steps[0] = 0.0
        for d in range(1, days):
            common = rng.normal(0.0, self.sigma_daily)
            private = rng.normal(0.0, self.sigma_daily, size=self.links)
            steps[d] = common_weight * common + private_weight * private
        self._lattice = np.cumsum(steps, axis=0)

    @property
    def link_count(self) -> int:
        return self.links

    def offsets(self, day: float) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        if day > self.horizon_days:
            raise ValueError(
                f"day {day} beyond simulated horizon of {self.horizon_days} days"
            )
        low = int(np.floor(day))
        high = min(low + 1, self.horizon_days)
        frac = day - low
        return (1.0 - frac) * self._lattice[low] + frac * self._lattice[high]


@dataclass
class LinearDrift(DriftProcess):
    """Deterministic linear drift — handy for exact-value unit tests."""

    links: int
    slope_db_per_day: float = 0.1

    def __post_init__(self) -> None:
        if self.links < 1:
            raise ValueError(f"links must be >= 1, got {self.links}")

    @property
    def link_count(self) -> int:
        return self.links

    def offsets(self, day: float) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        return np.full(self.links, self.slope_db_per_day * day)


@dataclass
class CompositeDrift(DriftProcess):
    """Sum of component drift processes over the same links."""

    components: Sequence[DriftProcess]

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValueError("composite drift needs at least one component")
        counts = {c.link_count for c in self.components}
        if len(counts) != 1:
            raise ValueError(f"components disagree on link count: {sorted(counts)}")

    @property
    def link_count(self) -> int:
        return self.components[0].link_count

    def offsets(self, day: float) -> np.ndarray:
        total = np.zeros(self.link_count)
        for component in self.components:
            total = total + component.offsets(day)
        return total


@dataclass
class EntryFieldDrift:
    """Per-entry (link x cell) drift of the *target-present* RSS.

    Physics: the empty-room RSS of a link drifts with temperature/humidity
    (modeled by the per-link processes above), but the multipath interaction
    between a *body at a specific cell* and a specific link drifts too — and
    that component is not expressible as a per-link offset, so it cannot be
    recovered from a fresh empty-room calibration alone. It is exactly this
    component that limits fingerprint-reconstruction accuracy over time
    (the paper's Fig. 3 growth).

    Model: each matrix entry follows the sum of two independent stationary
    AR(1) processes:

    * a *fast* component (time constant of days): short-term weather swings
      whose spatial pattern is rough — entry-to-entry independent — and
      therefore unrecoverable by any reconstruction. This is what makes even
      a 3-day-old fingerprint imperfect.
    * a *slow* component (time constant of months): structural change of the
      room's multipath whose spatial pattern is *smooth over the grid*
      (temperature affects neighboring locations alike). Its smoothness is
      exactly what the paper's continuity/similarity properties and the LRR
      transfer capture, so a good reconstruction recovers much — not all —
      of it.

    Parameterized by stationary standard deviations, so calibration is
    direct: ``std(day) = stat_std * sqrt(1 - rho^(2*day))``.

    When ``grid_rows``/``grid_columns`` are provided, the slow component's
    innovations are drawn as Gaussian-filtered fields over the cell grid
    (``slow_smooth_sigma_cells``, see :func:`gaussian_smooth`); otherwise
    both components are rough.

    The lattice is simulated lazily day by day; innovations for step ``d``
    derive from ``(seed, d)``, so query order never changes results.
    Storage is one ``(links, cells)`` array per simulated day — the
    ``fast + slow`` sum that :meth:`offsets` reads — plus the AR(1) state
    (``_fast``, ``_slow``) of the last simulated day only, which is all the
    next step needs.
    """

    links: int
    cells: int
    fast_stat_std: float = 3.6
    fast_rho: float = 0.6
    slow_stat_std: float = 10.0
    slow_rho: float = 0.99
    grid_rows: int = 0
    grid_columns: int = 0
    slow_smooth_sigma_cells: float = 1.5
    seed: RandomState = None

    def __post_init__(self) -> None:
        if self.links < 1 or self.cells < 1:
            raise ValueError(
                f"links and cells must be >= 1, got {self.links}, {self.cells}"
            )
        for name, rho in (("fast_rho", self.fast_rho), ("slow_rho", self.slow_rho)):
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {rho}")
        check_positive("fast_stat_std", self.fast_stat_std, strict=False)
        check_positive("slow_stat_std", self.slow_stat_std, strict=False)
        check_positive(
            "slow_smooth_sigma_cells", self.slow_smooth_sigma_cells, strict=False
        )
        if self.grid_rows and self.grid_columns:
            if self.grid_rows * self.grid_columns != self.cells:
                raise ValueError(
                    f"grid {self.grid_rows} x {self.grid_columns} does not tile "
                    f"{self.cells} cells"
                )
        if isinstance(self.seed, np.random.Generator):
            self._entropy = int(self.seed.integers(0, 2**31 - 1))
        elif self.seed is None:
            self._entropy = 0
        elif isinstance(self.seed, np.random.SeedSequence):
            entropy = self.seed.entropy
            self._entropy = int(entropy) & 0x7FFFFFFF if isinstance(entropy, int) else 0
        else:
            self._entropy = int(self.seed) & 0x7FFFFFFF
        shape = (self.links, self.cells)
        self._fast = np.zeros(shape)
        self._slow = np.zeros(shape)
        self._lattice: List[np.ndarray] = [_read_only(self._fast + self._slow)]

    @property
    def link_count(self) -> int:
        return self.links

    def offsets(self, day: float) -> np.ndarray:
        """Entry drift matrix (links x cells, dB) at ``day``.

        At an integer day this is the stored lattice array itself, marked
        read-only so no caller can corrupt the lattice; copy it to modify.
        """
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        high = int(np.ceil(day))
        self._extend_to(high)
        low = int(np.floor(day))
        frac = day - low
        if frac == 0.0:
            return self._lattice[low]
        return (1.0 - frac) * self._lattice[low] + frac * self._lattice[high]

    def _slow_innovation(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-variance slow-innovation field, smooth when a grid is known."""
        if not (self.grid_rows and self.grid_columns and self.slow_smooth_sigma_cells):
            return rng.standard_normal((self.links, self.cells))
        white = rng.standard_normal((self.links, self.grid_rows, self.grid_columns))
        smooth = gaussian_smooth(white, self.slow_smooth_sigma_cells)
        scale = smooth.std()
        if scale > 0:
            smooth = smooth / scale
        return smooth.reshape(self.links, self.cells)

    def _extend_to(self, day: int) -> None:
        fast_innov = self.fast_stat_std * np.sqrt(1.0 - self.fast_rho**2)
        slow_innov = self.slow_stat_std * np.sqrt(1.0 - self.slow_rho**2)
        shape = (self.links, self.cells)
        while len(self._lattice) <= day:
            step = len(self._lattice)
            rng = np.random.default_rng(
                np.random.SeedSequence([self._entropy, step])
            )
            fast_step = fast_innov * rng.standard_normal(shape)
            slow_step = slow_innov * self._slow_innovation(rng)
            self._fast = self.fast_rho * self._fast + fast_step
            self._slow = self.slow_rho * self._slow + slow_step
            self._lattice.append(_read_only(self._fast + self._slow))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth the last two axes of ``field``, edges replicated.

    Bit-identical to SciPy's ``gaussian_filter(field, (0, ..., sigma,
    sigma), mode="nearest")``, without importing it: the same truncated,
    normalised kernel, one separable pass per axis in SciPy's axis order
    (rows, then columns), and the same order of float operations within a
    pass (see :func:`_correlate_axis`).
    """
    if sigma <= 1e-15:  # SciPy leaves such an axis unfiltered
        return field.copy()
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps**2)
    kernel = kernel / kernel.sum()
    # Correlation uses the reversed kernel; w[j] weighs the taps at +-j.
    weights = kernel[::-1][radius:]
    return _correlate_axis(_correlate_axis(field, weights, -2), weights, -1)


def _correlate_axis(field: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Symmetric correlation along ``axis`` with edge-replicated padding.

    Accumulates like SciPy's symmetric-kernel path: ``x[i] * w[0]``, then
    ``+= (x[i - j] + x[i + j]) * w[j]`` from the outermost tap inward.
    """
    radius = len(weights) - 1
    length = field.shape[axis]

    def span(array: np.ndarray, start: int, stop: int) -> np.ndarray:
        index = [slice(None)] * array.ndim
        index[axis] = slice(start, stop)
        return array[tuple(index)]

    padded = np.concatenate(
        [
            np.repeat(span(field, 0, 1), radius, axis=axis),
            field,
            np.repeat(span(field, length - 1, length), radius, axis=axis),
        ],
        axis=axis,
    )
    out = span(padded, radius, radius + length) * weights[0]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(
            span(padded, radius - j, radius - j + length),
            span(padded, radius + j, radius + j + length),
            out=pair,
        )
        pair *= weights[j]
        out += pair
    return out


def calibrated_paper_drift(links: int, seed: RandomState = None) -> GaussMarkovDrift:
    """Drift process calibrated to the paper's anchor magnitudes.

    The defaults of :class:`GaussMarkovDrift` were fit (by the calibration
    test in ``tests/sim/test_drift.py``) so that the ensemble mean absolute
    offset is ≈2.5 dB at 5 days and ≈6 dB at 45 days, the paper's in-text
    figures. Absolute per-run values vary with the seed, as they do on air.
    """
    return GaussMarkovDrift(
        links=links,
        sigma_daily=1.35,
        rho=0.988,
        link_correlation=0.6,
        seed=seed,
    )
