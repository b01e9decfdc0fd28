"""Interference injection: bursty co-channel disturbances.

Real 2.4 GHz deployments share the band with neighboring WiFi, Bluetooth
and microwave ovens. Interference shows up as bursts of large one-sided
RSS perturbations on a subset of links — very different from the Gaussian
measurement noise the channel model carries — and is the standard failure
mode detection/robustness code must survive.

:class:`BurstyInterferenceModel` produces per-sample offsets: each link is
independently in a *burst* with some probability per sample (bursts are
drawn i.i.d. per sample for simplicity — at a 1 Hz sampling rate, bursts
shorter than a sample are indistinguishable from that anyway), and a burst
adds a one-sided offset of configurable magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class InterferenceSpec:
    """Declarative (serializable) description of the interference regime.

    A :class:`~repro.sim.scenario.Scenario` may carry one of these; any
    :class:`~repro.sim.collector.RssCollector` built on such a scenario
    materializes a :class:`BurstyInterferenceModel` from it automatically,
    so high-interference environments (e.g. the ``atrium`` registry
    scenario) disturb every measurement stream without call sites opting
    in. All fields are plain data — the spec travels through engine task
    payloads and JSON scenario files.
    """

    burst_probability: float = 0.05
    magnitude_low_db: float = 3.0
    magnitude_high_db: float = 10.0
    direction: str = "negative"

    def __post_init__(self) -> None:
        check_probability("burst_probability", self.burst_probability)
        if self.magnitude_high_db < self.magnitude_low_db:
            raise ValueError(
                f"magnitude range inverted: ({self.magnitude_low_db}, "
                f"{self.magnitude_high_db})"
            )

    def build(self, links: int, *, seed: RandomState = None) -> "BurstyInterferenceModel":
        """Materialize the model for a deployment of ``links`` links."""
        return BurstyInterferenceModel(
            links=links,
            burst_probability=self.burst_probability,
            magnitude_db=(self.magnitude_low_db, self.magnitude_high_db),
            direction=self.direction,
            seed=seed,
        )


@dataclass
class BurstyInterferenceModel:
    """Per-sample bursty RSS offsets.

    Attributes:
        links: Number of links.
        burst_probability: Probability a given link is hit on a given sample.
        magnitude_db: (low, high) of the uniform burst magnitude draw.
        direction: ``"negative"`` (collisions lower measured RSS of the
            probe traffic — the common case), ``"positive"``, or ``"both"``.
        seed: Randomness.
    """

    links: int
    burst_probability: float = 0.05
    magnitude_db: tuple = (3.0, 10.0)
    direction: str = "negative"
    seed: RandomState = None

    def __post_init__(self) -> None:
        if self.links < 1:
            raise ValueError(f"links must be >= 1, got {self.links}")
        check_probability("burst_probability", self.burst_probability)
        low, high = self.magnitude_db
        check_positive("magnitude low", low, strict=False)
        if high < low:
            raise ValueError(f"magnitude range inverted: {self.magnitude_db}")
        if self.direction not in ("negative", "positive", "both"):
            raise ValueError(
                f"direction must be negative/positive/both, got "
                f"{self.direction!r}"
            )
        self._rng = as_generator(self.seed)

    def sample_offsets(self) -> np.ndarray:
        """Offsets (dB) for one RSS sample across all links."""
        hit = self._rng.random(self.links) < self.burst_probability
        magnitudes = self._rng.uniform(*self.magnitude_db, size=self.links)
        if self.direction == "negative":
            signs = -1.0
        elif self.direction == "positive":
            signs = 1.0
        else:
            signs = self._rng.choice((-1.0, 1.0), size=self.links)
        return np.where(hit, signs * magnitudes, 0.0)

    def sample_offsets_batch(self, count: int) -> np.ndarray:
        """Offsets for ``count`` consecutive samples, shape ``(count, links)``.

        Statistically identical to ``count`` :meth:`sample_offsets` calls but
        drawn as whole arrays (burst indicators first, then magnitudes), so
        the exact realization for a given seed differs from the one-by-one
        sequence; batch consumers should draw all their interference through
        this method.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        shape = (count, self.links)
        # In place on the magnitude draw, in the same draw order: the
        # offsets are one (count, links) array plus a boolean mask.
        miss = self._rng.random(shape) >= self.burst_probability
        offsets = self._rng.uniform(*self.magnitude_db, size=shape)
        if self.direction == "negative":
            np.negative(offsets, out=offsets)
        elif self.direction == "both":
            offsets *= self._rng.choice((-1.0, 1.0), size=shape)
        np.copyto(offsets, 0.0, where=miss)
        return offsets
