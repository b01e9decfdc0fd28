"""Staleness-driven fingerprint refresh, off the query path.

The paper's whole point is that fingerprints age: a site whose database
was last refreshed 45 days ago answers with ~3.6 dB of reconstruction
error where a fresh one sits at ~2.7 (Fig. 3). In a serving deployment
that refresh has to happen *continuously and cheaply* — someone walks the
``n`` reference cells, the service reconstructs — and deciding *which*
site gets the next refresh budget is a scheduling problem. This module
makes that policy explicit:

* :class:`UpdateScheduler` tracks per-site **staleness** (days since the
  epoch serving current queries, via
  :meth:`~repro.serve.service.LocalizationService.staleness`) and turns it
  into update decisions. Planning is a pure function of ``(service state,
  day)`` — :meth:`UpdateScheduler.plan` — so tests drive it with explicit
  days and get deterministic answers; :meth:`UpdateScheduler.tick`
  executes a plan.
* Four policies: ``"interval"`` (every site whose staleness crossed the
  threshold, stalest first), ``"round-robin"`` (budget-limited fair
  rotation over the stale sites), ``"priority"`` (stale sites ranked by
  query traffic since their last refresh — the busiest fingerprints age
  fastest in user-visible error, so they get the budget first), and
  ``"drift"`` (refresh on *measured* degradation, not age: each warm
  site is probed via
  :meth:`~repro.serve.service.LocalizationService.drift` and becomes
  eligible when held-out localization error has degraded by at least
  ``drift_threshold_m`` meters — a volatile site gets refreshed days
  before an age-only policy would notice, and a quiet one is left
  alone past its nominal interval).
* An optional **snapshot cadence**: with ``snapshot_cadence_days`` set,
  the tick that crosses each cadence boundary also runs one snapshot
  lifecycle pass (save + digest scrub + keep-last-K compaction) through
  ``service.snapshot_maintenance()``, so durable state stays fresh and
  the snapshot directory stays bounded without a second daemon.
* **Cold sites** (pipeline never materialized/commissioned) cannot be
  *updated* at all — the cold-update contract in
  :meth:`repro.serve.manager.SiteManager.update` — so the scheduler
  commissions them at the tick day (``cold="commission"``), skips them
  (``cold="skip"``), or surfaces the error (``cold="raise"``).
* :meth:`UpdateScheduler.start` runs ticks on a daemon thread against a
  day clock (e.g. :class:`SimClock`), while queries keep flowing on the
  front-end threads: the refresh path adds an epoch (the database swaps
  its sorted days and epochs in as one pair, so a concurrent lookup sees
  the old database or the new one, never a half-added epoch) and bumps
  the database version, and the query path's matcher cache tolerates the
  concurrent flip (see :meth:`repro.core.pipeline.TafLoc.matcher_for_day`).

The scheduler only ever talks to the public service surface, so it runs
unchanged over an in-process :class:`~repro.serve.service.LocalizationService`
or a :class:`~repro.serve.shard.ShardedService` router.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import UpdateReport

__all__ = ["SchedulerConfig", "SimClock", "UpdateAction", "UpdateScheduler"]

_POLICIES = ("interval", "round-robin", "priority", "drift")
_COLD_MODES = ("commission", "skip", "raise")


@dataclass(frozen=True)
class SchedulerConfig:
    """Update policy knobs.

    Attributes:
        policy: ``"interval"``, ``"round-robin"``, ``"priority"`` or
            ``"drift"``.
        interval_days: Staleness threshold (days): a site becomes
            *eligible* for refresh once the epoch serving current queries
            is at least this old. The age-based policies share the
            threshold; they differ in how they order and cap the eligible
            set. The ``"drift"`` policy ignores it — eligibility there is
            measured, not aged.
        budget: Max refresh actions per tick (``None`` = unlimited). This
            is the person-time knob: one budget unit is one walk of a
            site's reference cells (or one commissioning survey for a
            cold site).
        cold: What a tick does with cold sites: ``"commission"`` them at
            the tick day (default — a site registered mid-flight gets its
            survey on the next tick), ``"skip"`` them, or ``"raise"``.
        drift_threshold_m: ``"drift"`` policy only — a site is eligible
            once its held-out probe error has degraded by at least this
            many meters over its fresh-conditions baseline (see
            :mod:`repro.serve.sentinel`). The 0.75 m default sits between
            a quiet site's measurement noise (≲0.5 m) and the ≳1 m
            degradation a genuinely drifted database shows.
        drift_frames: Probe frames per drift measurement (cost knob; the
            measurement is a small held-out batch per warm site per
            plan).
        snapshot_cadence_days: When set, run one snapshot lifecycle pass
            (``service.snapshot_maintenance()``) on the first tick at or
            past each cadence boundary. ``None`` (default) disables the
            hook. Works with any policy.
    """

    policy: str = "interval"
    interval_days: float = 30.0
    budget: Optional[int] = None
    cold: str = "commission"
    drift_threshold_m: float = 0.75
    drift_frames: int = 32
    snapshot_cadence_days: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )
        if self.cold not in _COLD_MODES:
            raise ValueError(
                f"cold must be one of {_COLD_MODES}, got {self.cold!r}"
            )
        if self.interval_days <= 0:
            raise ValueError(
                f"interval_days must be > 0, got {self.interval_days}"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.drift_threshold_m <= 0:
            raise ValueError(
                f"drift_threshold_m must be > 0, got {self.drift_threshold_m}"
            )
        if self.drift_frames < 1:
            raise ValueError(
                f"drift_frames must be >= 1, got {self.drift_frames}"
            )
        if (
            self.snapshot_cadence_days is not None
            and self.snapshot_cadence_days <= 0
        ):
            raise ValueError(
                "snapshot_cadence_days must be > 0, got "
                f"{self.snapshot_cadence_days}"
            )


@dataclass(frozen=True)
class UpdateAction:
    """One executed (or planned) refresh decision.

    ``staleness`` carries the eligibility metric that triggered the
    action: days-since-epoch for the age-based policies, measured
    degradation in meters for ``policy="drift"`` (``None`` for
    commissions).
    """

    site: str
    day: float
    action: str  # "update" | "commission"
    staleness: Optional[float]
    report: Optional[UpdateReport] = None


@dataclass
class SchedulerStats:
    """Counters over the scheduler's lifetime."""

    ticks: int = 0
    updates: int = 0
    commissions: int = 0
    last_day: Optional[float] = None
    errors: int = 0
    snapshot_runs: int = 0
    snapshot_files_removed: int = 0
    snapshot_bytes_reclaimed: int = 0
    last_snapshot_day: Optional[float] = None


class SimClock:
    """Map wall time to simulation days: ``start_day + rate * elapsed``.

    The CLI's ``serve --listen`` uses this to drive background refresh in
    demos (e.g. ``--days-per-second 30`` ages the fleet a month per wall
    second); tests and deployments with a real calendar pass their own
    zero-argument callable instead.
    """

    def __init__(
        self, start_day: float = 0.0, days_per_second: float = 1.0
    ) -> None:
        self.start_day = float(start_day)
        self.days_per_second = float(days_per_second)
        self._anchor = time.monotonic()

    def __call__(self) -> float:
        elapsed = time.monotonic() - self._anchor
        return self.start_day + elapsed * self.days_per_second


class UpdateScheduler:
    """Plan and run staleness-driven refreshes over a service's sites.

    ``service`` is anything exposing the serving surface (``sites``,
    ``staleness``, ``update``, ``commission``, ``service_stats``) — the
    in-process service or the sharded router.
    """

    def __init__(self, service, config: Optional[SchedulerConfig] = None) -> None:
        self.service = service
        self.config = config if config is not None else SchedulerConfig()
        self.stats = SchedulerStats()
        self._cursor = 0  # round-robin rotation point (site-list index)
        self._frames_at_refresh: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # planning (pure: no service mutation)
    # ------------------------------------------------------------------
    def plan(self, day: float) -> List[Tuple[str, str, Optional[float]]]:
        """The refresh actions a tick at ``day`` would run, in order.

        Returns ``(site, action, metric)`` tuples, ``action`` being
        ``"update"`` or ``"commission"`` and ``metric`` the eligibility
        signal (staleness in days, or measured degradation in meters for
        ``policy="drift"``). Cold sites come first — an uncommissioned
        site serves *nothing*, which is strictly worse than any
        staleness — then eligible sites in policy order, the whole list
        capped by the budget.
        """
        sites = list(self.service.sites())
        staleness = {site: self.service.staleness(site, day) for site in sites}
        planned: List[Tuple[str, str, Optional[float]]] = []
        if self.config.cold == "commission":
            planned.extend(
                (site, "commission", None)
                for site in sites
                if staleness[site] is None
            )
        elif self.config.cold == "raise":
            cold = [site for site in sites if staleness[site] is None]
            if cold:
                raise RuntimeError(
                    f"cold site(s) at day {day:g}: {', '.join(cold)}; "
                    "commission them or configure cold='commission'/'skip'"
                )
        if self.config.policy == "drift":
            planned.extend(self._plan_drift(day, sites, staleness))
        else:
            eligible = [
                site
                for site in sites
                if staleness[site] is not None
                and staleness[site] >= self.config.interval_days
            ]
            planned.extend(
                (site, "update", staleness[site])
                for site in self._order(eligible, sites, staleness)
            )
        if self.config.budget is not None:
            planned = planned[: self.config.budget]
        return planned

    def _plan_drift(
        self,
        day: float,
        sites: List[str],
        staleness: Dict[str, Optional[float]],
    ) -> List[Tuple[str, str, Optional[float]]]:
        """Eligibility by *measured* degradation: probe every warm site
        and refresh the ones whose held-out error grew past the
        threshold, worst first. Probing reads the service but mutates
        nothing, so planning stays side-effect free."""
        degradation: Dict[str, float] = {}
        for site in sites:
            if staleness[site] is None:
                continue  # cold: handled by the cold policy above
            try:
                reading = self.service.drift(
                    site, day, frames=self.config.drift_frames
                )
            except LookupError:
                continue  # every epoch is after `day`: nothing to refresh
            if reading is not None:
                degradation[site] = float(reading["degradation_m"])
        index = {site: rank for rank, site in enumerate(sites)}
        eligible = sorted(
            (
                site
                for site, worsened in degradation.items()
                if worsened >= self.config.drift_threshold_m
            ),
            key=lambda site: (-degradation[site], index[site]),
        )
        return [(site, "update", degradation[site]) for site in eligible]

    def _order(
        self,
        eligible: List[str],
        sites: List[str],
        staleness: Dict[str, Optional[float]],
    ) -> List[str]:
        index = {site: rank for rank, site in enumerate(sites)}
        if self.config.policy == "interval":
            # Stalest first; registration order breaks ties.
            return sorted(
                eligible, key=lambda site: (-staleness[site], index[site])
            )
        if self.config.policy == "round-robin":
            # Fair rotation: start after the last site this policy
            # refreshed, wrapping around the registration order.
            return sorted(
                eligible,
                key=lambda site: (index[site] - self._cursor) % len(sites),
            )
        # priority: the most query traffic since last refresh goes first —
        # a stale fingerprint under heavy traffic costs the most answers.
        served = dict(self.service.service_stats().frames_by_site)

        def pressure(site: str) -> int:
            return served.get(site, 0) - self._frames_at_refresh.get(site, 0)

        return sorted(
            eligible, key=lambda site: (-pressure(site), index[site])
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def tick(self, day: float) -> List[UpdateAction]:
        """Execute the plan for ``day``; returns what actually ran."""
        planned = self.plan(day)
        actions: List[UpdateAction] = []
        served: Optional[Dict[str, int]] = None
        for site, action, staleness in planned:
            if action == "commission":
                self.service.commission(site, day)
                self.stats.commissions += 1
                report = None
            else:
                report = self.service.update(site, day)
                self.stats.updates += 1
            if self.config.policy == "priority":
                if served is None:
                    served = dict(self.service.service_stats().frames_by_site)
                self._frames_at_refresh[site] = served.get(site, 0)
            actions.append(
                UpdateAction(
                    site=site,
                    day=day,
                    action=action,
                    staleness=staleness,
                    report=report,
                )
            )
        if actions and self.config.policy == "round-robin":
            sites = list(self.service.sites())
            last = actions[-1].site
            if last in sites:
                self._cursor = (sites.index(last) + 1) % len(sites)
        self._maybe_snapshot(day)
        self.stats.ticks += 1
        self.stats.last_day = float(day)
        return actions

    def _maybe_snapshot(self, day: float) -> None:
        """Run the snapshot lifecycle pass when the cadence boundary has
        been crossed (first tick counts as crossing it — durable state
        should exist as soon as maintenance starts)."""
        cadence = self.config.snapshot_cadence_days
        if cadence is None:
            return
        last = self.stats.last_snapshot_day
        if last is not None and float(day) - last < cadence:
            return
        maintenance = getattr(self.service, "snapshot_maintenance", None)
        if maintenance is None:
            return  # plain service without the lifecycle surface
        report = maintenance()
        self.stats.snapshot_runs += 1
        self.stats.snapshot_files_removed += int(report.get("files_removed", 0))
        self.stats.snapshot_bytes_reclaimed += int(
            report.get("bytes_reclaimed", 0)
        )
        self.stats.last_snapshot_day = float(day)

    # ------------------------------------------------------------------
    # background driving
    # ------------------------------------------------------------------
    def start(
        self,
        clock: Callable[[], float],
        *,
        period_seconds: float = 1.0,
    ) -> "UpdateScheduler":
        """Tick against ``clock()`` every ``period_seconds`` on a daemon
        thread until :meth:`stop`. Exceptions are counted
        (``stats.errors``) and do not kill the loop — a failed refresh
        must not take background maintenance down with it."""
        if self._thread is not None:
            raise RuntimeError("scheduler is already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(period_seconds):
                try:
                    self.tick(clock())
                except Exception:  # noqa: BLE001 - keep maintenance alive
                    self.stats.errors += 1

        self._thread = threading.Thread(
            target=loop, daemon=True, name="UpdateScheduler"
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background thread (idempotent).

        Blocks until the in-flight tick (if any) finishes or ``timeout``
        seconds pass. A tick stuck in a long survey can outlive the join
        timeout; the escalation is surfaced as a warning rather than
        silently leaking the daemon thread. A tick that *does* finish is
        never half-applied: ``stop()`` only interrupts the sleep between
        ticks, not the epoch appends inside one.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                warnings.warn(
                    f"UpdateScheduler thread did not stop within {timeout:g}s "
                    "(tick still running); it will die with the process",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._thread = None

    def __enter__(self) -> "UpdateScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
