"""The query front-end: route ``(site, day, RSS)`` to the right pipeline.

:class:`LocalizationService` is the serving layer's public surface. It owns a
:class:`~repro.serve.manager.SiteManager` and answers localization queries by
routing them to the site's commissioned pipeline, whose epoch-keyed matcher
cache (see :meth:`repro.core.pipeline.TafLoc.matcher_for_day`) keeps the warm
query path free of per-call set-up: a steady stream of same-day queries
reuses one matcher object (template norms included) and runs straight
through its one-frame or batch matching kernel.

Error contract (what a front-end can rely on for input validation):

* unknown site → :class:`KeyError` (from the manager);
* queries against a site whose pipeline is not commissioned →
  :class:`RuntimeError` (from :class:`~repro.core.pipeline.TafLoc`);
* a query day before the site's first fingerprint epoch, or an empty
  database → :class:`LookupError` (from
  :meth:`repro.core.fingerprint.FingerprintDatabase.at`);
* malformed RSS vectors → :class:`ValueError` (from the matcher);
* :meth:`LocalizationService.update` on a *cold* site (pipeline never
  materialized/commissioned) → :class:`RuntimeError` unless the caller
  opts into ``cold="commission"`` (the cold-update contract; see
  :meth:`repro.serve.manager.SiteManager.update`).

The wire front-end (:mod:`repro.serve.frontend`) maps this contract onto
HTTP-style status codes: ``ValueError``/``TypeError`` → 400, ``KeyError``
→ 404, other ``LookupError`` → 409, ``RuntimeError`` → 503.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.core.matching import BatchMatchResult, MatchResult
from repro.core.pipeline import TafLoc, UpdateReport
from repro.eval.engine import task_fingerprint
from repro.serve.manager import SiteManager
from repro.serve.sentinel import measure_drift, probe_seed
from repro.sim.specs import ScenarioSpec
from repro.sim.trace import LiveTrace

__all__ = ["LocalizationService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Per-service query accounting (what the bench reports qps from)."""

    queries: int = 0
    frames: int = 0
    frames_by_site: Dict[str, int] = field(default_factory=dict)

    def record(self, site: str, frames: int) -> None:
        self.queries += 1
        self.frames += frames
        self.frames_by_site[site] = self.frames_by_site.get(site, 0) + frames


class LocalizationService:
    """Routes localization queries across the manager's sites.

    Construct over an existing manager, or use :meth:`from_specs` to stand
    up a service from a plain ``{site: spec}`` mapping in one call. All
    query entry points resolve the site through the manager (materializing
    its pipeline on first touch) and answer through the batch matcher
    kernels; results are bit-identical to calling the site's
    :class:`~repro.core.pipeline.TafLoc` directly.
    """

    #: Hint for event-loop front-ends (:mod:`repro.serve.aio`): warm
    #: queries against this backend are µs-scale numpy calls that never
    #: block on I/O, so dispatching inline on the loop is cheaper than a
    #: thread-pool handoff. Anything that can park a call on a pipe or
    #: lock (the sharded router) must say ``"offload"`` instead.
    wire_dispatch = "inline"

    def __init__(self, manager: Optional[SiteManager] = None, **manager_kwargs) -> None:
        if manager is not None and manager_kwargs:
            raise ValueError(
                "pass either a manager or manager kwargs, not both"
            )
        self.manager = manager if manager is not None else SiteManager(**manager_kwargs)
        self.stats = ServiceStats()

    @classmethod
    def from_specs(
        cls,
        specs: Mapping[str, Union[ScenarioSpec, dict, str]],
        **manager_kwargs,
    ) -> "LocalizationService":
        """Build a service serving every ``{site: spec}`` entry."""
        service = cls(**manager_kwargs)
        for site, spec in specs.items():
            service.manager.register(site, spec)
        return service

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def sites(self) -> List[str]:
        return self.manager.sites()

    def register(self, site: str, spec) -> None:
        """Register a new site on the live service (resize handoff path)."""
        self.manager.register(site, spec)

    def deregister(self, site: str) -> None:
        """Drop a site (and its pipeline, when unshared) from the service."""
        self.manager.deregister(site)

    def pipeline(self, site: str) -> TafLoc:
        return self.manager.pipeline(site)

    def warm(self, sites: Optional[Iterable[str]] = None) -> List[str]:
        """Materialize (and commission) pipelines ahead of traffic.

        Returns the warmed site names — the cold-start control for the
        serving benchmark's cold-vs-warm comparison.
        """
        names = list(sites) if sites is not None else self.manager.sites()
        for site in names:
            self.manager.pipeline(site)
        return names

    def update(
        self, site: str, day: float, *, cold: str = "raise"
    ) -> Optional[UpdateReport]:
        """Refresh the site's fingerprints (appends an epoch; the site's
        matcher cache invalidates automatically).

        Follows the manager's cold-update contract: a site with no
        commissioned pipeline raises :class:`RuntimeError` by default, or
        is commissioned at ``day`` (returning ``None``) with
        ``cold="commission"`` — see :meth:`SiteManager.update
        <repro.serve.manager.SiteManager.update>`.
        """
        return self.manager.update(site, day, cold=cold)

    def commission(self, site: str, day: float) -> None:
        """Run the site's commissioning survey at ``day`` (cold sites only;
        an already-commissioned site raises ``RuntimeError``)."""
        self.manager.commission(site, day)

    def staleness(self, site: str, day: float) -> Optional[float]:
        """Days since the epoch serving queries at ``day``, or ``None``.

        ``None`` means the site is *cold* — its pipeline was never
        materialized or never commissioned — so there is nothing to
        refresh, only to commission. A site whose epochs all lie after
        ``day`` reports ``0.0`` (nothing older to refresh). This is the
        signal the update scheduler ranks sites by; it never materializes
        a pipeline.
        """
        if not self.manager.materialized(site):  # KeyError for unknown site
            return None
        system = self.manager.pipeline(site)
        if not system.commissioned or system.database.epoch_count == 0:
            return None
        try:
            return system.database.staleness(day)
        except LookupError:
            return 0.0

    def drift(
        self, site: str, day: float, frames: int = 32
    ) -> Optional[Dict[str, float]]:
        """Measured model drift for ``site`` at ``day``, or ``None`` cold.

        Wraps :func:`~repro.serve.sentinel.measure_drift` with a probe
        stream derived per pipeline identity (spec fingerprint, mirroring
        the serving-seed recipe) so the measurement is deterministic,
        held-out, and independent of the model being judged — see the
        sentinel module docstring for why that independence matters.
        ``None`` mirrors :meth:`staleness`: a cold site has nothing to
        measure, only to commission. The body is JSON-plain (the wire
        ``drift`` method forwards it unchanged).
        """
        if not self.manager.materialized(site):  # KeyError when unknown
            return None
        system = self.manager.pipeline(site)
        if not system.commissioned or system.database.epoch_count == 0:
            return None
        spec = self.manager.spec(site)
        identity = site if spec is None else task_fingerprint(spec)
        reading = measure_drift(
            system,
            day,
            frames=frames,
            seed=probe_seed(self.manager.seed, identity),
        )
        return {"site": site, **reading.to_dict()}

    def verify_site(self, site: str) -> Dict[str, object]:
        """Compare the site's live state digest against its snapshot's.

        The arbitration primitive of the anti-entropy scrub: ``matches``
        is ``True``/``False`` when both digests exist, ``None`` when
        either side is unavailable (cold site, no snapshot directory, or
        no readable snapshot). Never materializes a pipeline.
        """
        live = self.manager.live_digest(site)
        snapshot = self.manager.snapshot_digest(site)
        matches = (
            None if live is None or snapshot is None else live == snapshot
        )
        return {
            "site": site,
            "live_digest": live,
            "snapshot_digest": snapshot,
            "matches": matches,
        }

    def repair(self, site: str) -> Dict[str, object]:
        """Rebuild the site's pipeline from authoritative state (see
        :meth:`SiteManager.repair_site
        <repro.serve.manager.SiteManager.repair_site>`)."""
        return self.manager.repair_site(site)

    def snapshot_maintenance(self) -> Dict[str, object]:
        """Run one snapshot lifecycle pass (save + scrub + compact)."""
        return self.manager.snapshot_maintenance()

    def service_stats(self) -> ServiceStats:
        """The query counters (one method shared with the sharded router,
        whose counters live in its worker processes)."""
        return self.stats

    def health(self) -> Dict[str, object]:
        """Liveness report (the wire ``health`` method's body).

        The in-process service is trivially "ok" when reachable; the
        interesting fields are the manager counters — in particular
        ``snapshots_restored``, which is how the resilience gate proves a
        respawned worker warmed from disk instead of re-surveying.
        """
        stats = self.manager.stats
        return {
            "status": "ok",
            "sites": len(self.manager.sites()),
            "pipelines_built": stats.pipelines_built,
            "pipelines_shared": stats.pipelines_shared,
            "snapshots_saved": stats.snapshots_saved,
            "snapshots_restored": stats.snapshots_restored,
            "snapshots_rejected": stats.snapshots_rejected,
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, site: str, live_rss: np.ndarray, day: float) -> MatchResult:
        """Localize one live RSS vector measured at ``site`` on ``day``."""
        result = self.pipeline(site).localize(live_rss, day)
        self.stats.record(site, 1)
        return result

    def query_batch(
        self, site: str, frames: np.ndarray, day: float
    ) -> BatchMatchResult:
        """Localize a whole ``(frames, links)`` RSS batch in one pass."""
        result = self.pipeline(site).localize_batch(frames, day)
        self.stats.record(site, result.frame_count)
        return result

    def query_trace(self, site: str, trace: LiveTrace) -> BatchMatchResult:
        """Localize every frame of a live trace (uses the trace's day)."""
        result = self.pipeline(site).localize_trace(trace)
        self.stats.record(site, result.frame_count)
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def site_summary(self, site: str) -> Dict[str, object]:
        """Small status record for one site (CLI ``serve`` table rows)."""
        materialized = self.manager.materialized(site)
        record: Dict[str, object] = {
            "site": site,
            "materialized": materialized,
        }
        spec = self.manager.spec(site)
        if spec is not None:
            record["scenario"] = spec.name
        if materialized:
            system = self.manager.pipeline(site)
            record["commissioned"] = system.commissioned
            record["links"] = system.deployment.link_count
            record["cells"] = system.deployment.cell_count
            record["epochs"] = system.database.epoch_count
            if system.database.epoch_count:
                epochs = system.database.epochs()
                record["first_day"] = float(epochs[0].day)
                record["last_day"] = float(epochs[-1].day)
        return record

    def summary(self) -> List[Dict[str, object]]:
        return [self.site_summary(site) for site in self.sites()]
