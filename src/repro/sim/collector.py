"""RSS collection: turn a scenario into surveys and live traces.

The collector implements the paper's measurement protocol — "for each grid,
100 continuous RSS are collected one per second" — and keeps an account of
every sample taken, so the Fig. 4 labor-cost numbers fall straight out of the
recorded sample counts instead of being asserted separately.

The hot paths (:meth:`RssCollector.collect_survey`,
:meth:`RssCollector.live_vector_multi`, :meth:`RssCollector.walk_trace`,
:meth:`RssCollector.live_trace`) are *batched*: all randomness for an
operation is drawn up front in a fixed layout, and the physics — shadowing
geometry, channel gain, quantization — runs as broadcasted array ops over
every (cell, link, sample) triple at once. A reference loop implementation
(``vectorized=False``) consumes the identical pre-drawn randomness and
applies the scalar physics APIs cell by cell; the equivalence tests assert
both paths agree, which pins the batched math to the original semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.sim.geometry import Point
from repro.sim.interference import BurstyInterferenceModel
from repro.sim.scenario import Scenario
from repro.sim.trace import FingerprintSurvey, LiveTrace
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_index_array, check_positive


@dataclass(frozen=True)
class CollectionProtocol:
    """Sampling protocol parameters (paper defaults).

    The jitter fields model where a person actually stands, uniformly within
    that fraction of the cell around its center (1.0 = anywhere in the
    cell), one draw per visit. Surveys are a controlled procedure — the
    surveyor deliberately stands mid-cell — so ``survey_jitter`` is small;
    a live target walks wherever they please, so ``live_jitter`` spans the
    whole cell. Stance variation is the dominant "noise" between two surveys
    of the same room and contributes the dB-scale floor that
    fingerprint-vs-fingerprint comparisons show even at short time gaps.
    """

    samples_per_cell: int = 100
    sample_period_s: float = 1.0
    empty_room_samples: int = 60
    survey_jitter: float = 0.25
    live_jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.samples_per_cell < 1:
            raise ValueError(
                f"samples_per_cell must be >= 1, got {self.samples_per_cell}"
            )
        check_positive("sample_period_s", self.sample_period_s)
        if self.empty_room_samples < 1:
            raise ValueError(
                f"empty_room_samples must be >= 1, got {self.empty_room_samples}"
            )
        for name, value in (
            ("survey_jitter", self.survey_jitter),
            ("live_jitter", self.live_jitter),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def survey_seconds(self, cell_count: int) -> float:
        """Wall-clock seconds to survey ``cell_count`` cells."""
        return cell_count * self.samples_per_cell * self.sample_period_s


@dataclass(frozen=True)
class SurveyResult:
    """A survey plus its cost accounting."""

    survey: FingerprintSurvey
    samples_taken: int
    seconds_spent: float


@dataclass
class RssCollector:
    """Collects noisy RSS measurements from a :class:`Scenario`.

    All randomness flows through the generator created from ``seed`` at
    construction, so a collector replays identically for the same seed and
    call sequence. An optional :class:`BurstyInterferenceModel` injects
    co-channel disturbance into every sample drawn (failure-injection for
    robustness tests).

    ``vectorized`` selects between the batched physics implementation
    (default; one broadcasted pass over all cells/frames) and the reference
    per-cell loop. Both consume the exact same random draws, so they produce
    the same measurements — the loop exists as the executable specification
    the batch path is tested against.
    """

    scenario: Scenario
    protocol: CollectionProtocol = field(default_factory=CollectionProtocol)
    seed: RandomState = None
    interference: Optional[BurstyInterferenceModel] = None
    vectorized: bool = True

    def __post_init__(self) -> None:
        self._rng = as_generator(self.seed)
        self._samples_taken = 0
        if self.interference is None and self.scenario.interference_spec is not None:
            # The scenario declares its interference regime; materialize it
            # on this collector's stream so the realization replays with the
            # collector seed like every other draw.
            self.interference = self.scenario.interference_spec.build(
                self.scenario.deployment.link_count, seed=self._rng
            )
        if self.interference is not None and (
            self.interference.links != self.scenario.deployment.link_count
        ):
            raise ValueError(
                f"interference covers {self.interference.links} links, "
                f"deployment has {self.scenario.deployment.link_count}"
            )

    @property
    def samples_taken(self) -> int:
        """Total number of RSS samples drawn so far (all calls)."""
        return self._samples_taken

    # ------------------------------------------------------------------
    # surveys
    # ------------------------------------------------------------------
    def collect_empty_room(self, day: float) -> np.ndarray:
        """Averaged empty-room calibration vector at ``day``."""
        samples = self._draw_samples(day, cell=None, count=self.protocol.empty_room_samples)
        return samples.mean(axis=0)

    def collect_full_survey(self, day: float) -> SurveyResult:
        """Survey every grid cell — the expensive operation TafLoc avoids."""
        cells = np.arange(self.scenario.deployment.cell_count)
        return self.collect_survey(day, cells)

    def collect_survey(self, day: float, cells: Sequence[int]) -> SurveyResult:
        """Survey a subset of cells (e.g. just the reference locations)."""
        cell_indices = check_index_array(
            "cells", cells, upper=self.scenario.deployment.cell_count
        )
        empty = self.collect_empty_room(day)
        link_count = self.scenario.deployment.link_count
        count = len(cell_indices)
        samples_per_cell = self.protocol.samples_per_cell
        if count == 0:
            matrix = np.zeros((link_count, 0))
        else:
            spots, noise = self._survey_draws(cell_indices)
            offsets = self._interference_offsets(count * samples_per_cell)
            if offsets is not None:
                offsets = offsets.reshape(count, samples_per_cell, link_count)
            if self.vectorized:
                matrix = self._survey_matrix_batch(
                    day, cell_indices, spots, noise, offsets
                )
            else:
                matrix = self._survey_matrix_loop(
                    day, cell_indices, spots, noise, offsets
                )
            self._samples_taken += count * samples_per_cell
        survey = FingerprintSurvey(
            day=day,
            matrix=matrix,
            empty_rss=empty,
            samples_per_cell=samples_per_cell,
            sample_period_s=self.protocol.sample_period_s,
            cells=cell_indices,
        )
        survey_samples = count * samples_per_cell
        seconds = survey_samples * self.protocol.sample_period_s
        # Cost accounting counts the person-time of walking the grid; the
        # empty-room calibration needs nobody in the room and is excluded,
        # matching the paper's 100*N/3600 accounting.
        return SurveyResult(
            survey=survey, samples_taken=survey_samples, seconds_spent=seconds
        )

    # ------------------------------------------------------------------
    # live measurement
    # ------------------------------------------------------------------
    def live_vector(
        self,
        day: float,
        *,
        cell: Optional[int] = None,
        point: Optional[Point] = None,
        averaging: int = 1,
    ) -> np.ndarray:
        """One live RSS vector (optionally averaged over several samples)."""
        if averaging < 1:
            raise ValueError(f"averaging must be >= 1, got {averaging}")
        samples = self._draw_samples(day, cell=cell, point=point, count=averaging)
        return samples.mean(axis=0)

    def live_vector_multi(
        self,
        day: float,
        cells: Sequence[int],
        *,
        averaging: int = 1,
    ) -> np.ndarray:
        """One live RSS vector with several targets present at once.

        Each target stands at a jittered spot in its cell; shadows and
        entry drifts superpose (see
        :meth:`repro.sim.scenario.Scenario.true_rss_multi`).
        """
        if averaging < 1:
            raise ValueError(f"averaging must be >= 1, got {averaging}")
        cell_array = check_index_array(
            "cells", cells, upper=self.scenario.deployment.cell_count
        )
        spots = np.array(
            [
                self._jittered_point_xy(int(cell), self.protocol.live_jitter)
                for cell in cell_array
            ]
        ).reshape(len(cell_array), 2)
        if self.vectorized:
            shadow = self.scenario.shadow_matrix(spots).sum(axis=0)
            drift = self.scenario.environment_offsets(day)
            drift = drift + self.scenario.entry_drift_matrix(day, cell_array).sum(
                axis=0
            )
        else:
            shadow = np.zeros(self.scenario.deployment.link_count)
            drift = self.scenario.environment_offsets(day)
            for index, cell in enumerate(cell_array):
                shadow = shadow + self.scenario.shadow_at_point(
                    Point(*spots[index])
                )
                drift = drift + self.scenario.entry_drift_at(day, int(cell))
        rows = self.scenario.channel.sample_batch(
            averaging, shadow_db=shadow, drift_db=drift, rng=self._noise_rng()
        )
        offsets = self._interference_offsets(averaging)
        if offsets is not None:
            rows = rows + offsets
        self._samples_taken += averaging
        return rows.mean(axis=0)

    def live_trace(
        self,
        day: float,
        cells: Sequence[int],
        *,
        averaging: int = 1,
    ) -> LiveTrace:
        """A trace of live vectors with the target visiting ``cells`` in order.

        The target stands at a jittered spot inside each visited cell (per
        the protocol), and ``true_positions`` records the *actual* spots, so
        localization errors are measured against where the person really
        stood, not an idealized cell center.
        """
        if averaging < 1:
            raise ValueError(f"averaging must be >= 1, got {averaging}")
        cell_array = check_index_array(
            "cells",
            cells,
            upper=self.scenario.deployment.cell_count,
            allow_duplicates=True,
        )
        frames = len(cell_array)
        link_count = self.scenario.deployment.link_count
        sigma = self.scenario.channel.params.noise_sigma_db
        spots = np.empty((frames, 2))
        noise = None
        if sigma > 0:
            noise = np.empty((frames, averaging, link_count))
        # Jitter and noise interleave frame by frame, exactly like repeated
        # live_vector() calls, so traces replay identically per seed.
        for index, cell in enumerate(cell_array):
            spots[index] = self._jittered_point_xy(
                int(cell), self.protocol.live_jitter
            )
            if noise is not None:
                noise[index] = self._rng.normal(
                    0.0, sigma, size=(averaging, link_count)
                )
        rss = self._frames_at_points(day, spots, noise, cell_array, averaging)
        return LiveTrace(
            day=day,
            rss=rss,
            true_cells=cell_array,
            true_positions=spots.copy(),
        )

    def walk_trace(
        self,
        day: float,
        waypoints: Sequence[Point],
        *,
        step_m: float = 0.3,
        averaging: int = 1,
    ) -> LiveTrace:
        """A trace along a continuous path through ``waypoints``.

        The path is sampled every ``step_m`` meters; frames carry continuous
        ground-truth positions and the containing cell, which exercises the
        "fine-grained" (off-grid-center) localization regime.
        """
        check_positive("step_m", step_m)
        if averaging < 1:
            raise ValueError(f"averaging must be >= 1, got {averaging}")
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints to walk")
        path_points: List[List[float]] = []
        for start, end in zip(waypoints[:-1], waypoints[1:]):
            span = start.distance_to(end)
            steps = max(1, int(np.ceil(span / step_m)))
            for k in range(steps):
                t = k / steps
                path_points.append(
                    [start.x + t * (end.x - start.x), start.y + t * (end.y - start.y)]
                )
        path_points.append([waypoints[-1].x, waypoints[-1].y])
        points = np.array(path_points)

        sigma = self.scenario.channel.params.noise_sigma_db
        noise = None
        if sigma > 0:
            # One array op over every (frame, sample, link) triple; fills the
            # generator's stream in the same order as per-frame draws.
            noise = self._rng.normal(
                0.0,
                sigma,
                size=(len(points), averaging, self.scenario.deployment.link_count),
            )
        cells = self.scenario.deployment.grid.cells_at(points)
        rss = self._frames_at_points(day, points, noise, cells, averaging)
        return LiveTrace(
            day=day,
            rss=rss,
            true_cells=cells,
            true_positions=points,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _jittered_point(self, cell: int, jitter: float) -> Point:
        """Where the person actually stands during a visit to ``cell``."""
        grid = self.scenario.deployment.grid
        center = grid.center_of(cell)
        if jitter == 0.0:
            return center
        half = 0.5 * grid.cell_size * jitter
        return Point(
            center.x + self._rng.uniform(-half, half),
            center.y + self._rng.uniform(-half, half),
        )

    def _jittered_point_xy(self, cell: int, jitter: float) -> List[float]:
        point = self._jittered_point(cell, jitter)
        return [point.x, point.y]

    def _noise_rng(self) -> Optional[np.random.Generator]:
        """The generator channel sampling should draw noise from."""
        return self._rng

    def _interference_offsets(self, count: int) -> Optional[np.ndarray]:
        if self.interference is None:
            return None
        return self.interference.sample_offsets_batch(count)

    def _survey_draws(self, cell_indices: np.ndarray):
        """Pre-draw all survey randomness in the canonical per-cell order."""
        link_count = self.scenario.deployment.link_count
        samples_per_cell = self.protocol.samples_per_cell
        sigma = self.scenario.channel.params.noise_sigma_db
        spots = np.empty((len(cell_indices), 2))
        noise = None
        if sigma > 0:
            noise = np.empty((len(cell_indices), samples_per_cell, link_count))
        for index, cell in enumerate(cell_indices):
            spots[index] = self._jittered_point_xy(
                int(cell), self.protocol.survey_jitter
            )
            if noise is not None:
                noise[index] = self._rng.normal(
                    0.0, sigma, size=(samples_per_cell, link_count)
                )
        return spots, noise

    def _survey_matrix_batch(
        self,
        day: float,
        cell_indices: np.ndarray,
        spots: np.ndarray,
        noise: Optional[np.ndarray],
        offsets: Optional[np.ndarray],
    ) -> np.ndarray:
        """All survey physics as one broadcasted (cell, sample, link) pass.

        The pass runs in place on the pre-drawn ``noise`` stack, which it
        consumes: the base RSS is added into it, it is quantized there and
        the interference offsets are added on top, so the survey holds one
        ``(cells, samples, links)`` stack rather than one per step. Each
        in-place step is the same float operation as its out-of-place
        form, so the bits do not change.
        """
        scenario = self.scenario
        shadows = scenario.shadow_matrix(spots)  # (cells, links)
        drift = scenario.environment_offsets(day)[None, :]
        drift = drift + scenario.entry_drift_matrix(day, cell_indices)
        base = scenario.channel.empty_room_rss()[None, :] - shadows + drift
        if noise is None:
            frames = self._quantize(base[:, None, :])
            if offsets is not None:
                frames = frames + offsets
        else:
            noise += base[:, None, :]
            frames = self._quantize(noise, out=noise)
            if offsets is not None:
                frames += offsets
        return frames.mean(axis=1).T

    def _survey_matrix_loop(
        self,
        day: float,
        cell_indices: np.ndarray,
        spots: np.ndarray,
        noise: Optional[np.ndarray],
        offsets: Optional[np.ndarray],
    ) -> np.ndarray:
        """Reference per-cell loop over the scalar physics APIs."""
        scenario = self.scenario
        columns: List[np.ndarray] = []
        for index, cell in enumerate(cell_indices):
            shadow = scenario.shadow_at_point(Point(*spots[index]))
            drift = scenario.environment_offsets(day)
            drift = drift + scenario.entry_drift_at(day, int(cell))
            rows = []
            for s in range(self.protocol.samples_per_cell):
                sample = scenario.channel.sample(
                    shadow_db=shadow, drift_db=drift, rng=None, quantize=False
                )
                if noise is not None:
                    sample = sample + noise[index, s]
                sample = self._quantize(sample)
                if offsets is not None:
                    sample = sample + offsets[index, s]
                rows.append(sample)
            columns.append(np.vstack(rows).mean(axis=0))
        return np.column_stack(columns)

    def _frames_at_points(
        self,
        day: float,
        points: np.ndarray,
        noise: Optional[np.ndarray],
        cells: np.ndarray,
        averaging: int,
    ) -> np.ndarray:
        """Measured frames at ``points`` from pre-drawn noise, batched."""
        frames = len(points)
        offsets = self._interference_offsets(frames * averaging)
        if self.vectorized:
            scenario = self.scenario
            shadows = scenario.shadow_matrix(points)  # (frames, links)
            drift = scenario.environment_offsets(day)[None, :]
            drift = drift + scenario.entry_drift_matrix(day, cells)
            base = scenario.channel.empty_room_rss()[None, :] - shadows + drift
            # In place on the pre-drawn noise, like _survey_matrix_batch.
            if noise is not None:
                noise += base[:, None, :]
                stack = noise
            else:
                stack = np.repeat(base[:, None, :], averaging, axis=1)
            stack = self._quantize(stack, out=stack)
            if offsets is not None:
                stack += offsets.reshape(frames, averaging, -1)
            rss = stack.mean(axis=1)
        else:
            rows = []
            for index in range(len(points)):
                shadow = self.scenario.shadow_at_point(Point(*points[index]))
                drift = self.scenario.environment_offsets(day)
                drift = drift + self.scenario.entry_drift_at(day, int(cells[index]))
                samples = []
                for s in range(averaging):
                    sample = self.scenario.channel.sample(
                        shadow_db=shadow, drift_db=drift, rng=None, quantize=False
                    )
                    if noise is not None:
                        sample = sample + noise[index, s]
                    sample = self._quantize(sample)
                    if offsets is not None:
                        sample = sample + offsets[index * averaging + s]
                    samples.append(sample)
                rows.append(np.vstack(samples).mean(axis=0))
            rss = np.vstack(rows)
        self._samples_taken += len(points) * averaging
        return rss

    def _quantize(
        self, rss: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Round to the RSSI quantum; with ``out=rss`` it works in place."""
        quantum = self.scenario.channel.params.rssi_quantum_db
        if quantum > 0:
            scaled = np.divide(rss, quantum, out=out)
            np.round(scaled, out=scaled)
            return np.multiply(scaled, quantum, out=scaled)
        return rss

    def _draw_samples(
        self,
        day: float,
        *,
        cell: Optional[int] = None,
        point: Optional[Point] = None,
        count: int = 1,
    ) -> np.ndarray:
        shadow = None
        if cell is not None and point is not None:
            raise ValueError("pass at most one of cell/point")
        drift = self.scenario.environment_offsets(day)
        if cell is not None:
            # Cell-addressed draws are survey visits: one (small) jittered
            # stance per visit, held for all `count` samples.
            spot = self._jittered_point(cell, self.protocol.survey_jitter)
            shadow = self.scenario.shadow_at_point(spot)
            drift = drift + self.scenario.entry_drift_at(day, cell)
        elif point is not None:
            shadow = self.scenario.shadow_at_point(point)
            drift = drift + self.scenario.entry_drift_at(
                day, self.scenario.deployment.grid.cell_at(point)
            )
        samples = self.scenario.channel.sample_batch(
            count, shadow_db=shadow, drift_db=drift, rng=self._noise_rng()
        )
        offsets = self._interference_offsets(count)
        if offsets is not None:
            samples = samples + offsets
        self._samples_taken += count
        return samples
