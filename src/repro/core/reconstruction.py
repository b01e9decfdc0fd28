"""High-level fingerprint reconstruction: the full TafLoc update step.

:class:`Reconstructor` is built once from the *initial* full survey — it
learns everything that is stable over time (reference locations, the LRR
correlation ``Z``, the distortion masks, the smoothness operators) — and is
then invoked at any later day with nothing but a fresh empty-room calibration
and fresh measurements at the ``n`` reference locations. It assembles the
LoLi-IR problem and returns the reconstructed fingerprint matrix.

This is the object a downstream user interacts with when they want the
paper's contribution without the full pipeline (which additionally owns
matching and the database).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.distortion import DistortionProfile, build_distortion_profile
from repro.core.fingerprint import FingerprintMatrix
from repro.core.loli_ir import LoliIrConfig, LoliIrProblem, LoliIrResult, LoliIrSolver
from repro.core.lrr import LrrConfig, LrrModel, fit_lrr
from repro.core.operators import (
    continuity_operator,
    masked_pair_weights,
    similarity_operator,
)
from repro.core.reference import ReferenceSelection, select_references
from repro.sim.deployment import Deployment
from repro.util.rng import RandomState
from repro.util.validation import check_matrix


@dataclass(frozen=True)
class ReconstructionConfig:
    """Configuration of the reconstruction scheme.

    Attributes:
        reference_count: Number of reference locations ``n`` (paper: 10).
        reference_strategy: Column-selection strategy (paper: maximum
            linearly independent columns → ``"pivoted_qr"``).
        undistorted_threshold_db / distorted_threshold_db: Entry
            classification thresholds (see :mod:`repro.core.distortion`).
        lrr: LRR fit configuration.
        solver: LoLi-IR configuration.
        use_lrr / use_smoothness: Ablation switches for the objective terms.
    """

    reference_count: int = 10
    reference_strategy: str = "pivoted_qr"
    undistorted_threshold_db: float = 1.0
    distorted_threshold_db: float = 3.0
    lrr: LrrConfig = field(default_factory=LrrConfig)
    solver: LoliIrConfig = field(default_factory=LoliIrConfig)
    use_lrr: bool = True
    use_smoothness: bool = True

    def __post_init__(self) -> None:
        if self.reference_count < 1:
            raise ValueError(
                f"reference_count must be >= 1, got {self.reference_count}"
            )


@dataclass(frozen=True)
class ReconstructionReport:
    """A reconstructed fingerprint matrix plus solve diagnostics."""

    fingerprint: FingerprintMatrix
    solver_result: LoliIrResult
    lrr_residual: float
    observed_fraction: float

    @property
    def solve_seconds(self) -> float:
        """Wall time of the LoLi-IR solve — the compute part of the paper's
        Fig. 4 update cost (the labor part lives in eval.costmodel)."""
        return self.solver_result.solve_seconds

    @property
    def sweep_seconds(self) -> np.ndarray:
        """Per-sweep convergence cost of the solve."""
        return self.solver_result.sweep_seconds


class Reconstructor:
    """Learns the time-stable structure once; reconstructs cheaply forever.

    Args:
        deployment: The deployment geometry (grids, link adjacency).
        initial: The day-0 full survey as a :class:`FingerprintMatrix`.
        config: Scheme configuration.
        seed: Randomness for stochastic reference strategies.
    """

    def __init__(
        self,
        deployment: Deployment,
        initial: FingerprintMatrix,
        config: Optional[ReconstructionConfig] = None,
        *,
        seed: RandomState = 0,
    ) -> None:
        config = config if config is not None else ReconstructionConfig()
        if initial.cell_count != deployment.cell_count:
            raise ValueError(
                f"survey covers {initial.cell_count} cells, deployment has "
                f"{deployment.cell_count}"
            )
        if initial.link_count != deployment.link_count:
            raise ValueError(
                f"survey covers {initial.link_count} links, deployment has "
                f"{deployment.link_count}"
            )
        self.deployment = deployment
        self.initial = initial
        self.config = config

        n = min(config.reference_count, initial.cell_count)
        self.references: ReferenceSelection = select_references(
            initial.values, n, strategy=config.reference_strategy, seed=seed
        )
        self.lrr_model: LrrModel = fit_lrr(
            initial.values, self.references.cells, config.lrr
        )
        self.profile: DistortionProfile = build_distortion_profile(
            initial,
            undistorted_threshold_db=config.undistorted_threshold_db,
            distorted_threshold_db=config.distorted_threshold_db,
        )
        # G and H stay pair ends from birth to solve. W_g / W_h gate each
        # pair to the entries where both ends are largely distorted — only
        # there does property iii apply.
        self._continuity_op = continuity_operator(deployment.grid)
        self._similarity_op = similarity_operator(deployment)
        mask = self.profile.largely_distorted
        self._continuity_weights = masked_pair_weights(
            mask, self._continuity_op.pairs, axis=1
        )
        self._similarity_weights = masked_pair_weights(
            mask, self._similarity_op.pairs, axis=0
        )
        self._solver = LoliIrSolver(config.solver)

    # ------------------------------------------------------------------
    # the cheap update
    # ------------------------------------------------------------------
    def reconstruct(
        self,
        reference_matrix: np.ndarray,
        empty_rss: np.ndarray,
        *,
        day: float = 0.0,
    ) -> ReconstructionReport:
        """Reconstruct the full fingerprint matrix from cheap measurements.

        Args:
            reference_matrix: Fresh RSS at the reference cells, columns in
                :attr:`references` order; shape ``(links, n)``.
            empty_rss: Fresh empty-room calibration, shape ``(links,)``.
            day: Day stamp recorded on the produced fingerprint.
        """
        reference_matrix = check_matrix("reference_matrix", reference_matrix)
        empty_rss = np.asarray(empty_rss, dtype=float)
        if reference_matrix.shape != (
            self.initial.link_count,
            self.references.count,
        ):
            raise ValueError(
                f"reference_matrix shape {reference_matrix.shape} must be "
                f"({self.initial.link_count}, {self.references.count})"
            )
        if empty_rss.shape != (self.initial.link_count,):
            raise ValueError(
                f"empty_rss shape {empty_rss.shape} must be "
                f"({self.initial.link_count},)"
            )

        problem = self._build_problem(reference_matrix, empty_rss)
        result = self._solver.solve(problem)
        matrix = np.asarray(result.matrix, dtype=float)
        # The reference columns were just measured; trust them exactly.
        matrix[:, self.references.cells] = reference_matrix
        fingerprint = FingerprintMatrix(
            values=matrix, empty_rss=empty_rss, day=day, source="reconstruction"
        )
        return ReconstructionReport(
            fingerprint=fingerprint,
            solver_result=result,
            lrr_residual=self.lrr_model.training_residual,
            observed_fraction=float(np.mean(problem.observed_mask)),
        )

    # ------------------------------------------------------------------
    # problem assembly
    # ------------------------------------------------------------------
    def _build_problem(
        self, reference_matrix: np.ndarray, empty_rss: np.ndarray
    ) -> LoliIrProblem:
        cfg = self.config
        observed_mask = np.array(self.profile.undistorted, copy=True)
        observed_values = self.profile.known_entries(empty_rss)
        # The freshly measured reference columns are fully observed.
        observed_mask[:, self.references.cells] = True
        observed_values[:, self.references.cells] = reference_matrix

        lrr_target: Optional[np.ndarray] = None
        if cfg.use_lrr:
            lrr_target = self.lrr_model.predict(reference_matrix)

        if cfg.use_smoothness:
            return LoliIrProblem(
                observed_mask=observed_mask,
                observed_values=observed_values,
                lrr_target=lrr_target,
                continuity_op=self._continuity_op,
                continuity_weights=self._continuity_weights,
                similarity_op=self._similarity_op,
                similarity_weights=self._similarity_weights,
            )
        return LoliIrProblem(
            observed_mask=observed_mask,
            observed_values=observed_values,
            lrr_target=lrr_target,
        )
