"""Fingerprint-matrix abstraction (the paper's Fig. 1).

A fingerprint matrix ``X`` has one row per link and one column per location
grid cell: ``x_ij`` is the RSS of link ``i`` while the target stands in cell
``j``. :class:`FingerprintMatrix` wraps the array together with the
empty-room calibration it was measured against, since almost every operation
downstream (distortion detection, RTI, RASS) works on the *dip* relative to
the empty room rather than on absolute dBm.

:class:`FingerprintDatabase` versions the matrices over time: a survey or a
reconstruction appends an epoch, and localization always queries the freshest
epoch at or before the query day.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.linalg import effective_rank
from repro.util.validation import check_finite, check_matrix


@dataclass(frozen=True)
class FingerprintMatrix:
    """An immutable fingerprint matrix plus its calibration context.

    Attributes:
        values: RSS in dBm, shape ``(links, cells)``.
        empty_rss: Empty-room RSS per link at measurement time.
        day: Day offset at which the matrix is valid.
        source: Provenance tag: ``"survey"``, ``"reconstruction"``, ...
    """

    values: np.ndarray
    empty_rss: np.ndarray
    day: float = 0.0
    source: str = "survey"

    def __post_init__(self) -> None:
        values = check_finite("values", check_matrix("values", self.values))
        empty = check_finite("empty_rss", np.asarray(self.empty_rss, dtype=float))
        if empty.shape != (values.shape[0],):
            raise ValueError(
                f"empty_rss shape {empty.shape} does not match link count "
                f"{values.shape[0]}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "empty_rss", empty)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def link_count(self) -> int:
        return self.values.shape[0]

    @property
    def cell_count(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def dips(self) -> np.ndarray:
        """Attenuation matrix ``empty_rss[:, None] - values``.

        Positive entries mean the target at that cell *reduced* the link's
        RSS. This is the quantity whose structure properties (continuity
        along a link, similarity across adjacent links) the paper exploits.
        """
        return self.empty_rss[:, None] - self.values

    def column(self, cell: int) -> np.ndarray:
        if not 0 <= cell < self.cell_count:
            raise IndexError(f"cell {cell} out of range [0, {self.cell_count})")
        return self.values[:, cell]

    def columns(self, cells: np.ndarray) -> np.ndarray:
        return self.values[:, np.asarray(cells, dtype=int)]

    def effective_rank(self, energy: float = 0.99) -> int:
        """Numerical rank of the matrix (the paper's property i)."""
        return effective_rank(self.values, energy)

    def with_values(
        self, values: np.ndarray, *, source: str, day: Optional[float] = None
    ) -> "FingerprintMatrix":
        """A copy carrying new values (e.g. a reconstruction) and provenance."""
        return FingerprintMatrix(
            values=values,
            empty_rss=self.empty_rss,
            day=self.day if day is None else day,
            source=source,
        )

    def with_empty_rss(self, empty_rss: np.ndarray) -> "FingerprintMatrix":
        """A copy with a refreshed empty-room calibration."""
        return FingerprintMatrix(
            values=self.values, empty_rss=empty_rss, day=self.day, source=self.source
        )


@dataclass
class FingerprintDatabase:
    """Time-ordered collection of fingerprint matrices.

    The database is the thing the paper says is costly to maintain; TafLoc's
    update path appends *reconstructed* epochs next to the original surveyed
    one. Epochs are keyed by day; lookups return the most recent epoch at or
    before the requested day.
    """

    # ``(days, epochs)`` as one pair of tuples, replaced by one assignment:
    # a reader that takes the pair once never sees a half-added epoch.
    _index: Tuple[Tuple[float, ...], Tuple[FingerprintMatrix, ...]] = ((), ())
    _version: int = 0

    def add(self, matrix: FingerprintMatrix) -> None:
        """Insert an epoch, keeping the database sorted by day.

        The sorted days and epochs are rebuilt and swapped in together, so
        a concurrent :meth:`at` resolves against the old pair or the new
        one, never a mix of the two. Every insertion then bumps
        :attr:`version`, which is how downstream caches keyed on day→epoch
        resolution (e.g. the :class:`~repro.core.pipeline.TafLoc` matcher
        cache) learn that their lookups may now resolve differently.
        """
        days, epochs = self._index
        if epochs and matrix.shape != epochs[0].shape:
            raise ValueError(
                f"epoch shape {matrix.shape} does not match database shape "
                f"{epochs[0].shape}"
            )
        position = bisect.bisect_right(days, matrix.day)
        self._index = (
            days[:position] + (matrix.day,) + days[position:],
            epochs[:position] + (matrix,) + epochs[position:],
        )
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic counter of mutations; bumped by every :meth:`add`."""
        return self._version

    def at(self, day: float) -> FingerprintMatrix:
        """Most recent epoch whose day is <= ``day``."""
        days, epochs = self._index
        if not epochs:
            raise LookupError("fingerprint database is empty")
        position = bisect.bisect_right(days, day) - 1
        if position < 0:
            raise LookupError(
                f"no fingerprint epoch at or before day {day}; earliest is "
                f"day {days[0]}"
            )
        return epochs[position]

    def latest(self) -> FingerprintMatrix:
        epochs = self._index[1]
        if not epochs:
            raise LookupError("fingerprint database is empty")
        return epochs[-1]

    def initial(self) -> FingerprintMatrix:
        epochs = self._index[1]
        if not epochs:
            raise LookupError("fingerprint database is empty")
        return epochs[0]

    @property
    def epoch_count(self) -> int:
        return len(self._index[1])

    @property
    def days(self) -> List[float]:
        return list(self._index[0])

    def epochs(self) -> List[FingerprintMatrix]:
        return list(self._index[1])

    def staleness(self, day: float) -> float:
        """Days elapsed since the epoch serving queries at ``day``."""
        return day - self.at(day).day

    def summary(self) -> Dict[str, float]:
        """Small diagnostic summary used by the examples and reports."""
        if not self._index[1]:
            return {"epochs": 0}
        latest = self.latest()
        return {
            "epochs": float(self.epoch_count),
            "links": float(latest.link_count),
            "cells": float(latest.cell_count),
            "latest_day": float(latest.day),
            "effective_rank": float(latest.effective_rank()),
        }
