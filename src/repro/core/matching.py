"""Fingerprint matching: estimate the target cell from a live RSS vector.

After reconstruction, "the real-time RSS measurements are collected as
``Y = (y_i)_{M×1}``; then the target location can be estimated by matching
``Y`` with ``X``" (paper, end of section 2). Three matchers are provided:

* :class:`NearestNeighborMatcher` — argmin over columns of a distance between
  ``Y`` and ``x_j`` (Euclidean by default). The baseline rule.
* :class:`KnnMatcher` — distance-weighted average of the K best cells'
  centers; returns sub-grid ("fine-grained") positions.
* :class:`ProbabilisticMatcher` — Gaussian likelihood per cell with a noise
  scale, returning a posterior over cells; composes with the particle-filter
  tracker.

All matchers consume a :class:`~repro.core.fingerprint.FingerprintMatrix`
and a grid so they can translate cells to coordinates.

:meth:`Matcher.match_batch` scores an entire ``(frames, links)`` trace
against every grid cell in one broadcasted pass, which is what gives
trace-level localization its throughput (see ``benchmarks/bench_perf.py``).
The distance kernel is batch-invariant: a frame's row has the same bits
whatever batch it is scored in (pinned by a split-invariance property
test), so a frame's answer never depends on how many other frames share
its request. Per-frame :meth:`Matcher.match` has its own one-frame kernel:
the same distances as a batch of one, then 1-D selection and a
:class:`MatchResult` built directly. It returns exactly the bits of
``match_batch(vector[None, :])[0]``, scores included, without the batch
path's per-row gathers and result boxing. Template squared norms are
computed once per matcher, and matchers are cached per epoch
(:meth:`repro.core.pipeline.TafLoc.matcher_for_day`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.fingerprint import FingerprintMatrix
from repro.sim.geometry import Grid, Point
from repro.util.validation import check_finite, check_positive

#: Cap on the elements of one broadcasted (frames, links, cells) distance
#: block; larger traces are scored in frame chunks to bound peak memory.
_BLOCK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class MatchResult:
    """A localization estimate.

    Attributes:
        cell: Most likely grid cell.
        position: Estimated coordinates (may be off-center for KNN).
        scores: Per-cell score; higher is better (negated distance or
            log-likelihood, matcher-dependent).
    """

    cell: int
    position: Point
    scores: np.ndarray


@dataclass(frozen=True)
class BatchMatchResult:
    """Localization estimates for a whole trace.

    Behaves as a sequence of :class:`MatchResult` (indexing, iteration,
    ``len``) while storing everything columnar, so batch consumers can work
    on the arrays directly without re-boxing frames.

    Attributes:
        cells: Most likely grid cell per frame, shape ``(frames,)``.
        positions: Estimated coordinates per frame, shape ``(frames, 2)``.
        scores: Per-(frame, cell) score, shape ``(frames, cells)``; higher
            is better, same convention as :class:`MatchResult`.
    """

    cells: np.ndarray
    positions: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=int)
        positions = np.asarray(self.positions, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        if positions.shape != (len(cells), 2):
            raise ValueError(
                f"positions shape {positions.shape} must be ({len(cells)}, 2)"
            )
        if scores.shape[0] != len(cells):
            raise ValueError(
                f"scores cover {scores.shape[0]} frames, expected {len(cells)}"
            )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "scores", scores)

    @property
    def frame_count(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return self.frame_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.frame_count))]
        if not -self.frame_count <= index < self.frame_count:
            raise IndexError(f"frame {index} out of range [0, {self.frame_count})")
        return MatchResult(
            cell=int(self.cells[index]),
            position=Point(
                float(self.positions[index, 0]), float(self.positions[index, 1])
            ),
            scores=self.scores[index],
        )

    def __iter__(self) -> Iterator[MatchResult]:
        for index in range(self.frame_count):
            yield self[index]


class Matcher(abc.ABC):
    """Interface of fingerprint matchers.

    Args:
        fingerprint: The epoch to match against.
        grid: The grid its columns cover.
        templates: ``(links, cells)`` columns the live frames are compared
            with; the fingerprint's values by default.
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        templates: Optional[np.ndarray] = None,
    ) -> None:
        if fingerprint.cell_count != grid.cell_count:
            raise ValueError(
                f"fingerprint covers {fingerprint.cell_count} cells, grid has "
                f"{grid.cell_count}"
            )
        self.fingerprint = fingerprint
        self.grid = grid
        self._centers = grid.centers_array()
        self._templates = fingerprint.values if templates is None else templates
        # ||t||² per template column, the constant term of the Gram
        # expansion in _distances_batch: computed once, not per call.
        self._template_norms = np.sum(self._templates**2, axis=0)

    @abc.abstractmethod
    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        """Estimate target locations for a whole ``(frames, links)`` trace."""

    @abc.abstractmethod
    def _match_row(self, frame: np.ndarray) -> MatchResult:
        """The one-frame kernel behind :meth:`match`.

        ``frame`` is one checked ``(1, links)`` row. The answer must equal
        ``match_batch(frame)[0]`` bit for bit, so the distances keep the
        batch path's shapes and only the selection is 1-D.
        """

    def match(self, live_rss: np.ndarray) -> MatchResult:
        """Estimate the target location from one live RSS vector."""
        return self._match_row(self._check_vector(live_rss)[None, :])

    def _result(self, cell: int, scores: np.ndarray) -> MatchResult:
        """A result positioned at ``cell``'s center."""
        return MatchResult(
            cell=cell, position=Point(*self._centers[cell].tolist()), scores=scores
        )

    def _check_vector(self, live_rss: np.ndarray) -> np.ndarray:
        vector = np.asarray(live_rss, dtype=float)
        if vector.shape != (self.fingerprint.link_count,):
            raise ValueError(
                f"live vector shape {vector.shape} must be "
                f"({self.fingerprint.link_count},)"
            )
        return check_finite("live vector", vector)

    def _check_frames(self, frames: np.ndarray) -> np.ndarray:
        array = np.asarray(frames, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.fingerprint.link_count:
            raise ValueError(
                f"frames shape {array.shape} must be "
                f"(n_frames, {self.fingerprint.link_count})"
            )
        return check_finite("frames", array)

    def _distances_batch(
        self, frames: np.ndarray, metric: str = "euclidean"
    ) -> np.ndarray:
        """``(frames, cells)`` distances between rows and template columns.

        Euclidean distances go through the Gram expansion
        ``||f - t||² = ||f||² - 2 f·t + ||t||²`` so the inner product runs
        in BLAS — an order of magnitude faster than materializing the
        ``(frames, links, cells)`` delta tensor, at the cost of ~1e-12
        relative rounding versus the direct form. The product is a stacked
        matmul, ``(frames, 1, links) @ (links, cells)``: numpy runs the same
        ``(1, links) @ (links, cells)`` product for every frame, so row *i*
        has the same bits whether it is scored alone or in a batch of any
        size. One ``(frames, links) @ (links, cells)`` GEMM would block the
        reduction by batch size and break that. Manhattan distances have no
        such factorization and broadcast the delta tensor in frame chunks to
        bound peak memory.
        """
        templates = self._templates
        if metric in ("euclidean", "sqeuclidean"):
            inner = (frames[:, None, :] @ templates)[:, 0, :]
            squared = (frames**2).sum(axis=1)[:, None] - 2.0 * inner
            squared += self._template_norms[None, :]
            np.maximum(squared, 0.0, out=squared)
            if metric == "sqeuclidean":
                return squared
            return np.sqrt(squared, out=squared)
        count, links = frames.shape
        cells = templates.shape[1]
        block = max(1, _BLOCK_ELEMENTS // max(1, links * cells))
        out = np.empty((count, cells))
        for start in range(0, count, block):
            stop = min(count, start + block)
            deltas = templates[None, :, :] - frames[start:stop, :, None]
            out[start:stop] = np.sum(np.abs(deltas), axis=1)
        return out


class NearestNeighborMatcher(Matcher):
    """Nearest column in Euclidean (or Manhattan) distance.

    ``use_dips=True`` matches on attenuation relative to the empty room
    instead of absolute dBm, which cancels any residual common drift between
    the fingerprint's calibration and the live measurement; it requires the
    caller to supply the live empty-room RSS estimate.
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        metric: str = "euclidean",
        use_dips: bool = False,
        live_empty_rss: Optional[np.ndarray] = None,
    ) -> None:
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.use_dips = use_dips
        self._live_empty = None
        templates = None
        if use_dips:
            empty = (
                fingerprint.empty_rss if live_empty_rss is None else np.asarray(
                    live_empty_rss, dtype=float
                )
            )
            if empty.shape != (fingerprint.link_count,):
                raise ValueError(
                    f"live_empty_rss shape {empty.shape} must be "
                    f"({fingerprint.link_count},)"
                )
            self._live_empty = empty
            templates = fingerprint.dips()
        super().__init__(fingerprint, grid, templates)

    def _distances(self, vectors: np.ndarray) -> np.ndarray:
        if self.use_dips:
            vectors = self._live_empty[None, :] - vectors
        return self._distances_batch(vectors, self.metric)

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        distances = self._distances(self._check_frames(frames))
        cells = np.argmin(distances, axis=1)
        return BatchMatchResult(
            cells=cells, positions=self._centers[cells], scores=-distances
        )

    def _match_row(self, frame: np.ndarray) -> MatchResult:
        distances = self._distances(frame)[0]
        return self._result(int(np.argmin(distances)), -distances)


class KnnMatcher(Matcher):
    """K nearest columns, inverse-distance-weighted centroid of their cells.

    This is what makes the estimate "fine-grained": the returned position
    interpolates between grid centers, so error is not floored at half a
    cell diagonal.
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        k: int = 3,
        epsilon: float = 1e-6,
    ) -> None:
        super().__init__(fingerprint, grid)
        if not 1 <= k <= fingerprint.cell_count:
            raise ValueError(
                f"k must lie in [1, {fingerprint.cell_count}], got {k}"
            )
        check_positive("epsilon", epsilon)
        self.k = k
        self.epsilon = epsilon

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        distances = self._distances_batch(self._check_frames(frames))
        if self.k < distances.shape[1]:
            nearest = np.argpartition(distances, self.k, axis=1)[:, : self.k]
            # argpartition leaves the k winners unordered; order them so the
            # reported best cell matches the per-frame argsort convention.
            order_in_block = np.argsort(
                np.take_along_axis(distances, nearest, axis=1), axis=1
            )
            order = np.take_along_axis(nearest, order_in_block, axis=1)
        else:
            order = np.argsort(distances, axis=1)[:, : self.k]
        best_distances = np.take_along_axis(distances, order, axis=1)
        return BatchMatchResult(
            cells=order[:, 0],
            positions=self._weighted_centers(best_distances, order),
            scores=-distances,
        )

    def _match_row(self, frame: np.ndarray) -> MatchResult:
        distances = self._distances_batch(frame)[0]
        if self.k < distances.shape[0]:
            nearest = np.argpartition(distances, self.k)[: self.k]
            order = nearest[np.argsort(distances[nearest])]
        else:
            order = np.argsort(distances)[: self.k]
        position = self._weighted_centers(distances[order][None, :], order[None, :])
        return MatchResult(
            cell=int(order[0]),
            position=Point(*position[0].tolist()),
            scores=-distances,
        )

    def _weighted_centers(self, distances: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Inverse-distance-weighted ``(frames, 2)`` centroids of the
        ``(frames, k)`` nearest cells ``order`` at ``distances``."""
        weights = 1.0 / (distances + self.epsilon)
        weights = weights / weights.sum(axis=1, keepdims=True)
        return np.einsum("fk,fkd->fd", weights, self._centers[order])


class ProbabilisticMatcher(Matcher):
    """Per-cell Gaussian likelihood ``N(Y; x_j, sigma^2 I)``.

    Returns the MAP cell; :meth:`posterior` exposes the normalized posterior
    for consumers that need full uncertainty (e.g. the tracker).
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        sigma_db: float = 2.0,
        prior: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(fingerprint, grid)
        check_positive("sigma_db", sigma_db)
        self.sigma_db = sigma_db
        if prior is None:
            prior = np.full(fingerprint.cell_count, 1.0 / fingerprint.cell_count)
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (fingerprint.cell_count,):
            raise ValueError(
                f"prior shape {prior.shape} must be ({fingerprint.cell_count},)"
            )
        if np.any(prior < 0) or prior.sum() <= 0:
            raise ValueError("prior must be non-negative and not all zero")
        self.prior = prior / prior.sum()

    def log_likelihoods_batch(self, frames: np.ndarray) -> np.ndarray:
        """Unnormalized Gaussian log-likelihoods, shape ``(frames, cells)``."""
        vectors = self._check_frames(frames)
        squared = self._distances_batch(vectors, "sqeuclidean")
        return -0.5 * squared / self.sigma_db**2

    def log_likelihoods(self, live_rss: np.ndarray) -> np.ndarray:
        """Unnormalized per-cell Gaussian log-likelihoods."""
        vector = self._check_vector(live_rss)
        return self.log_likelihoods_batch(vector[None, :])[0]

    def posterior_batch(self, frames: np.ndarray) -> np.ndarray:
        """Normalized per-frame posteriors, shape ``(frames, cells)``."""
        log_like = self.log_likelihoods_batch(frames) + np.log(self.prior)[None, :]
        log_like -= log_like.max(axis=1, keepdims=True)
        weights = np.exp(log_like)
        return weights / weights.sum(axis=1, keepdims=True)

    def posterior(self, live_rss: np.ndarray) -> np.ndarray:
        """Normalized posterior over cells given the live vector."""
        vector = self._check_vector(live_rss)
        return self.posterior_batch(vector[None, :])[0]

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        posteriors = self.posterior_batch(frames)
        cells = np.argmax(posteriors, axis=1)
        return BatchMatchResult(
            cells=cells,
            positions=self._centers[cells],
            scores=np.log(posteriors + 1e-300),
        )

    def _match_row(self, frame: np.ndarray) -> MatchResult:
        posterior = self.posterior_batch(frame)[0]
        return self._result(int(np.argmax(posterior)), np.log(posterior + 1e-300))


def expected_position(posterior: np.ndarray, grid: Grid) -> Point:
    """Posterior-mean position (used by the tracker and examples)."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (grid.cell_count,):
        raise ValueError(
            f"posterior shape {posterior.shape} must be ({grid.cell_count})"
        )
    total = posterior.sum()
    if total <= 0:
        raise ValueError("posterior sums to zero")
    centers = grid.centers_array()
    return Point(
        float(posterior @ centers[:, 0] / total),
        float(posterior @ centers[:, 1] / total),
    )
