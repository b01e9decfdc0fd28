"""TafLoc: the deployable end-to-end system.

Lifecycle (mirrors the paper's deployment story):

1. **Commission** (:meth:`TafLoc.commission`) — run the one expensive full
   survey, learn the time-stable structure (reference locations, LRR
   correlation, distortion masks).
2. **Update** (:meth:`TafLoc.update`) — at any later day, collect only the
   empty-room calibration and the ``n`` reference cells, reconstruct the
   whole matrix with LoLi-IR, and append it to the database. Returns an
   :class:`UpdateReport` with the cost accounting that feeds Fig. 4.
3. **Localize** (:meth:`TafLoc.localize` / :meth:`TafLoc.localize_trace`) —
   match live RSS vectors against the freshest fingerprint epoch.

The class is written against the abstract measurement interface of
:class:`~repro.sim.collector.RssCollector`, so swapping the simulator for a
real testbed log only means implementing that interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.fingerprint import FingerprintDatabase, FingerprintMatrix
from repro.core.matching import (
    BatchMatchResult,
    KnnMatcher,
    Matcher,
    MatchResult,
    NearestNeighborMatcher,
    ProbabilisticMatcher,
)
from repro.core.reconstruction import (
    ReconstructionConfig,
    ReconstructionReport,
    Reconstructor,
)
from repro.sim.collector import RssCollector
from repro.sim.trace import LiveTrace
from repro.util.rng import RandomState


@dataclass(frozen=True)
class TafLocConfig:
    """End-to-end system configuration.

    Attributes:
        reconstruction: The reconstruction-scheme configuration.
        matcher: Matching rule: ``"nn"``, ``"knn"`` or ``"probabilistic"``.
        knn_k: K for the KNN matcher.
        matcher_sigma_db: Noise scale for the probabilistic matcher.
    """

    reconstruction: ReconstructionConfig = field(
        default_factory=ReconstructionConfig
    )
    matcher: str = "knn"
    knn_k: int = 3
    matcher_sigma_db: float = 2.0

    def __post_init__(self) -> None:
        if self.matcher not in ("nn", "knn", "probabilistic"):
            raise ValueError(
                f"matcher must be nn/knn/probabilistic, got {self.matcher!r}"
            )


@dataclass(frozen=True)
class UpdateReport:
    """Outcome and cost of one fingerprint update.

    Attributes:
        day: When the update ran.
        reconstruction: The solver report.
        samples_taken: RSS samples spent on this update.
        seconds_spent: Person-time spent walking to reference cells.
        full_survey_seconds: What a from-scratch survey would have cost under
            the same protocol — the Fig. 4 comparison.
    """

    day: float
    reconstruction: ReconstructionReport
    samples_taken: int
    seconds_spent: float
    full_survey_seconds: float

    @property
    def savings_factor(self) -> float:
        """How many times cheaper the TafLoc update was."""
        if self.seconds_spent == 0:
            return float("inf")
        return self.full_survey_seconds / self.seconds_spent


class TafLoc:
    """The TafLoc system bound to a measurement source."""

    def __init__(
        self,
        collector: RssCollector,
        config: Optional[TafLocConfig] = None,
        *,
        seed: RandomState = 0,
    ) -> None:
        self.collector = collector
        self.config = config if config is not None else TafLocConfig()
        self._seed = seed
        self.database = FingerprintDatabase()
        self.reconstructor: Optional[Reconstructor] = None
        self.update_reports: List[UpdateReport] = []
        # Matchers cached per resolved epoch; see matcher_for_day().
        self._matcher_cache: Dict[int, Matcher] = {}
        self._matcher_cache_version: int = -1

    @property
    def deployment(self):
        return self.collector.scenario.deployment

    @property
    def commissioned(self) -> bool:
        return self.reconstructor is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def commission(self, day: float = 0.0) -> FingerprintMatrix:
        """Run the one full survey and learn the time-stable structure."""
        result = self.collector.collect_full_survey(day)
        fingerprint = FingerprintMatrix(
            values=result.survey.matrix,
            empty_rss=result.survey.empty_rss,
            day=day,
            source="survey",
        )
        self.database.add(fingerprint)
        self.reconstructor = Reconstructor(
            self.deployment,
            fingerprint,
            self.config.reconstruction,
            seed=self._seed,
        )
        return fingerprint

    def update(self, day: float) -> UpdateReport:
        """Cheap fingerprint refresh at ``day`` (the paper's contribution)."""
        reconstructor = self._require_commissioned()
        empty = self.collector.collect_empty_room(day)
        survey = self.collector.collect_survey(day, reconstructor.references.cells)
        report = reconstructor.reconstruct(
            survey.survey.matrix, empty, day=day
        )
        self.database.add(report.fingerprint)
        protocol = self.collector.protocol
        update_report = UpdateReport(
            day=day,
            reconstruction=report,
            samples_taken=survey.samples_taken,
            seconds_spent=survey.seconds_spent,
            full_survey_seconds=protocol.survey_seconds(
                self.deployment.cell_count
            ),
        )
        self.update_reports.append(update_report)
        return update_report

    # ------------------------------------------------------------------
    # localization
    # ------------------------------------------------------------------
    def matcher_for_day(self, day: float, *, refresh: bool = False) -> Matcher:
        """The configured matcher on the freshest epoch for ``day``, cached.

        Matchers are cached per resolved epoch and invalidated whenever
        :meth:`FingerprintDatabase.add` bumps the database version (a new
        epoch can change which fingerprint serves a given day), so the
        steady-state query path — many localizations against the same
        epoch — never rebuilds a matcher (nor its template norms).
        ``refresh=True`` forces a rebuild (the pre-cache behavior, kept for
        benchmarking the rebuild cost and for callers that mutate matcher
        state).

        The lookup tolerates a concurrent :meth:`update` (e.g. the serving
        layer's background refresh scheduler appending an epoch while query
        threads run): a query never sees a half-built cache entry — it
        either reuses a complete matcher or builds its own — at worst
        rebuilding one matcher redundantly around the epoch flip.
        """
        if self._matcher_cache_version != self.database.version:
            self._matcher_cache.clear()
            self._matcher_cache_version = self.database.version
        fingerprint = self.database.at(day)
        # Epochs are immutable and stay referenced by the database for its
        # lifetime, so id() is a stable key within one cache generation.
        key = id(fingerprint)
        matcher = None if refresh else self._matcher_cache.get(key)
        if matcher is None:
            matcher = self._build_matcher(fingerprint)
            self._matcher_cache[key] = matcher
        return matcher

    def _build_matcher(self, fingerprint) -> Matcher:
        grid = self.deployment.grid
        if self.config.matcher == "nn":
            return NearestNeighborMatcher(fingerprint, grid)
        if self.config.matcher == "knn":
            return KnnMatcher(fingerprint, grid, k=self.config.knn_k)
        return ProbabilisticMatcher(
            fingerprint, grid, sigma_db=self.config.matcher_sigma_db
        )

    def localize(self, live_rss: np.ndarray, day: float) -> MatchResult:
        """Localize one live RSS vector measured at ``day``."""
        self._require_commissioned()
        return self.matcher_for_day(day).match(live_rss)

    def localize_batch(self, frames: np.ndarray, day: float) -> BatchMatchResult:
        """Localize a ``(frames, links)`` RSS batch measured at ``day``.

        The batch analogue of :meth:`localize` for callers (e.g. the
        serving layer) that hold raw frame arrays rather than a
        :class:`~repro.sim.trace.LiveTrace`.
        """
        self._require_commissioned()
        return self.matcher_for_day(day).match_batch(frames)

    def localize_trace(self, trace: LiveTrace) -> BatchMatchResult:
        """Localize every frame of a trace against its day's fingerprints.

        The whole trace is scored in one :meth:`Matcher.match_batch` pass;
        the result behaves as a sequence of per-frame
        :class:`~repro.core.matching.MatchResult` objects while exposing the
        columnar arrays for batch consumers.
        """
        self._require_commissioned()
        matcher = self.matcher_for_day(trace.day)
        return matcher.match_batch(trace.rss)

    def localization_errors(self, trace: LiveTrace) -> np.ndarray:
        """Per-frame Euclidean error (m) against the trace's ground truth."""
        if trace.true_positions is None:
            raise ValueError("trace carries no ground-truth positions")
        results = self.localize_trace(trace)
        deltas = results.positions - trace.true_positions
        return np.hypot(deltas[:, 0], deltas[:, 1])

    # ------------------------------------------------------------------
    def _require_commissioned(self) -> Reconstructor:
        if self.reconstructor is None:
            raise RuntimeError(
                "TafLoc is not commissioned yet; call commission() first"
            )
        return self.reconstructor
