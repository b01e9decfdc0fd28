"""Radio Tomographic Imaging (Wilson & Patwari, IEEE TMC 2010).

RTI is the model-based comparator of the paper's Fig. 5. It images the
attenuation field of the monitored area from per-link RSS *changes* relative
to an empty-room calibration:

1. Measure the link-change vector ``Δy = calibration - live`` (positive where
   a body attenuates a link).
2. Model ``Δy = W a + noise`` where ``a`` is the per-voxel (here: per grid
   cell) attenuation and ``W`` is the ellipse weight model: cell ``j``
   contributes to link ``i`` iff its excess path length is within ``λ``, with
   weight ``1 / sqrt(link length)``.
3. Solve the regularized least squares ``a = (WᵀW + α Cᵀ C)⁻¹ Wᵀ Δy`` where
   ``C`` penalizes differences between adjacent cells (Tikhonov image prior).
4. The target estimate is the attenuation-image peak (optionally the centroid
   of the near-peak region).

Because RTI re-calibrates against the *current* empty room, it is immune to
slow drift — but its accuracy is bounded by the ellipse model and link
density, which is why the paper's fingerprint approach beats it when the
fingerprints are fresh (or freshly reconstructed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import DeviceFreeLocalizer
from repro.core.operators import continuity_operator
from repro.sim.deployment import Deployment
from repro.sim.geometry import Point
from repro.util.validation import check_positive


@dataclass(frozen=True)
class RtiConfig:
    """RTI parameters (defaults follow the original paper's regime).

    Attributes:
        lambda_m: Ellipse excess-path-length width of the weight model.
        regularization: Tikhonov weight α on the image smoothness prior.
        peak_fraction: Cells with attenuation within this fraction of the
            peak are averaged for the final position (1.0 = pure argmax).
        min_change_db: Link changes below this magnitude are zeroed
            (denoising; RSSI quantization otherwise leaks into the image).
    """

    lambda_m: float = 0.3
    regularization: float = 3.0
    peak_fraction: float = 0.9
    min_change_db: float = 0.5

    def __post_init__(self) -> None:
        check_positive("lambda_m", self.lambda_m)
        check_positive("regularization", self.regularization, strict=False)
        if not 0.0 < self.peak_fraction <= 1.0:
            raise ValueError(
                f"peak_fraction must lie in (0, 1], got {self.peak_fraction}"
            )
        check_positive("min_change_db", self.min_change_db, strict=False)


class RtiLocalizer(DeviceFreeLocalizer):
    """Radio tomographic imaging over a gridded deployment.

    Args:
        deployment: Link and grid geometry.
        calibration_rss: Empty-room RSS vector measured at (or near) query
            time; RTI's drift immunity comes from keeping this fresh.
        config: Algorithm parameters.
    """

    def __init__(
        self,
        deployment: Deployment,
        calibration_rss: np.ndarray,
        config: Optional[RtiConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config if config is not None else RtiConfig()
        calibration = np.asarray(calibration_rss, dtype=float)
        if calibration.shape != (deployment.link_count,):
            raise ValueError(
                f"calibration shape {calibration.shape} must be "
                f"({deployment.link_count},)"
            )
        self.calibration = calibration
        self._weights = self._build_weight_matrix()
        self._solver = self._build_solver()

    # ------------------------------------------------------------------
    def recalibrate(self, calibration_rss: np.ndarray) -> None:
        """Replace the empty-room calibration (cheap, no survey)."""
        calibration = np.asarray(calibration_rss, dtype=float)
        if calibration.shape != self.calibration.shape:
            raise ValueError(
                f"calibration shape {calibration.shape} must be "
                f"{self.calibration.shape}"
            )
        self.calibration = calibration

    def attenuation_image(self, live_rss: np.ndarray) -> np.ndarray:
        """The reconstructed per-cell attenuation field (the RTI image)."""
        live = np.asarray(live_rss, dtype=float)
        if live.shape != (self.deployment.link_count,):
            raise ValueError(
                f"live vector shape {live.shape} must be "
                f"({self.deployment.link_count},)"
            )
        changes = self.calibration - live
        changes[np.abs(changes) < self.config.min_change_db] = 0.0
        return self._solver @ changes

    def locate(self, live_rss: np.ndarray) -> Point:
        image = self.attenuation_image(live_rss)
        peak = float(image.max())
        if peak <= 0.0:
            # No attenuation anywhere: target absent or invisible; report the
            # room center rather than an arbitrary corner.
            return self.deployment.grid.room.center
        threshold = self.config.peak_fraction * peak
        candidates = np.flatnonzero(image >= threshold)
        weights = image[candidates]
        centers = [self.deployment.grid.center_of(int(j)) for j in candidates]
        total = float(weights.sum())
        return Point(
            float(sum(w * c.x for w, c in zip(weights, centers)) / total),
            float(sum(w * c.y for w, c in zip(weights, centers)) / total),
        )

    # ------------------------------------------------------------------
    def _build_weight_matrix(self) -> np.ndarray:
        grid = self.deployment.grid
        weights = np.zeros((self.deployment.link_count, grid.cell_count))
        for i, link in enumerate(self.deployment.links):
            norm = 1.0 / np.sqrt(max(link.length, 1e-9))
            for j in range(grid.cell_count):
                if link.excess_path_length(grid.center_of(j)) <= self.config.lambda_m:
                    weights[i, j] = norm
        return weights

    def _build_solver(self) -> np.ndarray:
        """Precompute ``(WᵀW + α CᵀC + εI)⁻¹ Wᵀ`` once per deployment."""
        w = self._weights
        difference = continuity_operator(self.deployment.grid).toarray().T  # pairs x cells
        gram = w.T @ w + self.config.regularization * (difference.T @ difference)
        gram += 1e-6 * np.eye(gram.shape[0])
        return np.linalg.solve(gram, w.T)
