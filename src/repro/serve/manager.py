"""Multi-site pipeline management: one process, many scenario realizations.

The registry (PR 3) made every experiment runnable on any environment; this
module is the serving-side counterpart: a :class:`SiteManager` holds a fleet
of named *sites*, each bound to a :class:`~repro.sim.specs.ScenarioSpec`
(registered name, dict, JSON file — anything
:func:`~repro.sim.specs.as_scenario_spec` accepts), and lazily materializes
one commissioned :class:`~repro.core.pipeline.TafLoc` pipeline per distinct
spec.

Materialization is deterministic and shared:

* Scenario realizations go through
  :func:`repro.eval.engine.cached_scenario`, so a spec's world is built at
  most once per process no matter how many sites or services reference it.
* Pipelines are cached by the spec's structural fingerprint
  (:func:`repro.eval.engine.task_fingerprint`), so two sites registered
  with byte-identical specs share one commissioned pipeline — commissioning
  (the expensive full survey) runs once per distinct environment.
* Collector and reconstructor seeds derive from ``(manager seed, spec
  fingerprint)`` via :func:`repro.util.rng.task_key` (see
  :func:`pipeline_seed` / :func:`reconstructor_seed`), so a manager-built
  pipeline is bit-identical to a standalone
  :class:`~repro.core.pipeline.TafLoc` constructed with the same derived
  seeds — the contract the serving tests assert, including for stochastic
  reference-selection strategies.

Two PR-6 additions make the manager the durability layer of the elastic
fleet:

* ``snapshot_dir`` — every commission/update writes a checksummed
  :mod:`~repro.serve.snapshot` file, and lazy materialization restores
  from it when the spec/config/protocol fingerprints match, so a
  respawned or re-sharded worker warms in milliseconds without
  re-surveying. Restores apply only to the lazy (auto-commission) path;
  the explicit :meth:`commission`/:meth:`update` lifecycle entry points
  always get a virgin pipeline, keeping their contracts unchanged.
* ``share_pipelines=False`` — pipelines keyed per *site* instead of per
  spec fingerprint, so a site's stream state depends only on its own
  call sequence. That is what keeps R-way replicas of a site
  bit-identical to each other (and to any other layout) no matter which
  other sites each worker happens to own; the sharded router enables it
  whenever replication or snapshots are on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.fingerprint import FingerprintMatrix
from repro.core.pipeline import TafLoc, TafLocConfig, UpdateReport
from repro.eval.engine import cached_scenario, task_fingerprint
from repro.serve.snapshot import (
    SnapshotError,
    SnapshotStore,
    epochs_digest,
    load_snapshot,
    read_snapshot_digest,
    restore_into,
    snapshot_state,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import ScenarioSpec, as_scenario_spec, build_scenario
from repro.util.rng import task_key

__all__ = [
    "SiteManager",
    "SiteManagerStats",
    "pipeline_seed",
    "reconstructor_seed",
]


def _spec_fingerprint(spec: ScenarioSpec) -> str:
    fingerprint = task_fingerprint(spec)
    if fingerprint is None:  # pragma: no cover - specs are always plain data
        raise ValueError(f"scenario spec {spec.name!r} is not fingerprintable")
    return fingerprint


def pipeline_seed(spec: ScenarioSpec, seed: int = 0) -> int:
    """Deterministic collector seed for the pipeline serving ``spec``.

    Keyed by the spec's structural fingerprint rather than its name, so the
    stream follows the environment (two sites sharing a spec share the
    stream along with the pipeline) and never collides across distinct
    environments or adjacent manager seeds.
    """
    return task_key(seed, "serve-pipeline", _spec_fingerprint(spec))


def reconstructor_seed(spec: ScenarioSpec, seed: int = 0) -> int:
    """Deterministic reconstructor seed for the pipeline serving ``spec``.

    The second half of the bit-identity recipe: a standalone pipeline
    equal to the manager's is
    ``TafLoc(RssCollector(scenario, protocol, seed=pipeline_seed(spec, s)),
    config, seed=reconstructor_seed(spec, s))``. The reconstructor seed
    only matters for stochastic reference-selection strategies; deriving
    it per spec keeps those streams independent across environments.
    """
    return task_key(seed, "serve-reconstructor", _spec_fingerprint(spec))


@dataclass
class SiteManagerStats:
    """Counters for one manager's lifetime."""

    pipelines_built: int = 0
    pipelines_shared: int = 0
    snapshots_saved: int = 0
    snapshots_restored: int = 0
    snapshots_rejected: int = 0


class SiteManager:
    """Registry of sites and lazy cache of their commissioned pipelines.

    Args:
        config: :class:`~repro.core.pipeline.TafLocConfig` applied to every
            materialized pipeline.
        protocol: Collection protocol for the commissioning survey (and any
            later :meth:`update` calls).
        commission_day: Day at which lazily materialized pipelines run
            their commissioning survey.
        seed: Master seed; per-pipeline collector streams derive from it
            via :func:`pipeline_seed`.
        auto_commission: When ``False``, materialized pipelines are *not*
            commissioned — queries against them raise ``RuntimeError``
            until the caller commissions explicitly (the staged-rollout /
            real-testbed path).
        snapshot_dir: When set, commissioned state is persisted there
            (one checksummed file per pipeline) after every
            commission/update, and lazy materialization restores from a
            matching snapshot instead of re-surveying.
        snapshot_keep: Retention policy for ``snapshot_dir``: ``None``
            (default) keeps the single-file-per-site layout, ``K`` makes
            every save a new version and prunes each site's history to
            the newest ``K`` (see
            :class:`~repro.serve.snapshot.SnapshotStore`). Restores try
            newest-first either way.
        share_pipelines: When ``False``, every site gets its own pipeline
            (still seeded per spec fingerprint) instead of sharing one per
            distinct spec — the replica-consistency mode (see module
            docstring).

    Error contract: any site-keyed lookup against an unregistered name
    raises :class:`KeyError`; registering a duplicate name raises
    :class:`ValueError`.
    """

    def __init__(
        self,
        *,
        config: Optional[TafLocConfig] = None,
        protocol: Optional[CollectionProtocol] = None,
        commission_day: float = 0.0,
        seed: int = 0,
        auto_commission: bool = True,
        snapshot_dir: Optional[Union[str, Path]] = None,
        snapshot_keep: Optional[int] = None,
        share_pipelines: bool = True,
    ) -> None:
        self.config = config if config is not None else TafLocConfig()
        self.protocol = (
            protocol if protocol is not None else CollectionProtocol()
        )
        self.commission_day = float(commission_day)
        self.seed = int(seed)
        self.auto_commission = auto_commission
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self._store: Optional[SnapshotStore] = None
        if self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            self._store = SnapshotStore(self.snapshot_dir, keep_last=snapshot_keep)
        elif snapshot_keep is not None:
            raise ValueError("snapshot_keep requires a snapshot_dir")
        self.share_pipelines = bool(share_pipelines)
        self.stats = SiteManagerStats()
        self._specs: Dict[str, ScenarioSpec] = {}
        self._attached: Dict[str, TafLoc] = {}
        self._pipelines: Dict[str, TafLoc] = {}  # pipeline key -> pipeline
        self._by_site: Dict[str, TafLoc] = {}  # resolved site -> pipeline

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, site: str, spec: Union[ScenarioSpec, dict, str]
    ) -> ScenarioSpec:
        """Bind ``site`` to a scenario spec (object, dict, or registry name)."""
        if site in self._specs or site in self._attached:
            raise ValueError(f"site {site!r} is already registered")
        resolved = as_scenario_spec(spec)
        self._specs[site] = resolved
        return resolved

    def attach(self, site: str, system: TafLoc) -> None:
        """Bind ``site`` to an existing pipeline (e.g. a real testbed).

        The pipeline is served as-is: if it has not been commissioned,
        queries raise ``RuntimeError`` until it is.
        """
        if site in self._specs or site in self._attached:
            raise ValueError(f"site {site!r} is already registered")
        self._attached[site] = system

    def deregister(self, site: str) -> None:
        """Drop ``site`` and free its pipeline if no other site shares it.

        The live-resize handoff path: a worker that lost ownership of a
        site under a new shard layout deregisters it so its memory is
        reclaimed. Unknown sites raise :class:`KeyError`.
        """
        if site not in self:
            raise KeyError(self._unknown(site))
        spec = self._specs.pop(site, None)
        self._attached.pop(site, None)
        self._by_site.pop(site, None)
        if spec is not None:
            key = self._pipeline_key(site, spec)
            still_used = any(
                self._pipeline_key(other, other_spec) == key
                for other, other_spec in self._specs.items()
            )
            if not still_used:
                self._pipelines.pop(key, None)

    def sites(self) -> List[str]:
        """Registered site names, in registration order."""
        return [*self._specs, *self._attached]

    def __contains__(self, site: str) -> bool:
        return site in self._specs or site in self._attached

    def spec(self, site: str) -> Optional[ScenarioSpec]:
        """The site's spec (``None`` for attached pipelines)."""
        if site in self._specs:
            return self._specs[site]
        if site in self._attached:
            return None
        raise KeyError(self._unknown(site))

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def pipeline(self, site: str) -> TafLoc:
        """The (lazily materialized, fingerprint-cached) pipeline for ``site``.

        The first lookup per site fingerprints its spec to find (or build)
        the shared pipeline; later lookups are a plain dict hit, so the
        steady-state routing path does no per-call work beyond it.
        """
        return self._resolve(site)

    def _resolve(self, site: str, *, commission: Optional[bool] = None) -> TafLoc:
        """Shared site→pipeline resolution behind :meth:`pipeline` and
        :meth:`_resolve_raw`; ``commission`` only applies when this call
        is the one that materializes (``None`` = the manager's
        ``auto_commission`` policy, ``False`` = leave it raw for an
        explicit lifecycle caller)."""
        resolved = self._by_site.get(site)
        if resolved is not None:
            return resolved
        if site in self._attached:
            resolved = self._attached[site]
        elif site in self._specs:
            spec = self._specs[site]
            key = self._pipeline_key(site, spec)
            if key not in self._pipelines:
                self._pipelines[key] = self._materialize(
                    site, spec, commission=commission
                )
                self.stats.pipelines_built += 1
            else:
                self.stats.pipelines_shared += 1
            resolved = self._pipelines[key]
        else:
            raise KeyError(self._unknown(site))
        self._by_site[site] = resolved
        return resolved

    def _pipeline_key(self, site: str, spec: ScenarioSpec) -> str:
        """Cache key for the pipeline serving ``site``.

        The spec fingerprint alone in shared mode (twin sites share one
        pipeline); fingerprint *plus site name* otherwise, so each site's
        collector stream is private to its own call sequence.
        """
        fingerprint = _spec_fingerprint(spec)
        if self.share_pipelines:
            return fingerprint
        return f"{fingerprint}@{site}"

    def materialized(self, site: str) -> bool:
        """Whether the site's pipeline has been built (never builds one)."""
        if site in self._attached:
            return True
        if site not in self._specs:
            raise KeyError(self._unknown(site))
        return self._pipeline_key(site, self._specs[site]) in self._pipelines

    def commission(self, site: str, day: float) -> FingerprintMatrix:
        """Run the site's commissioning survey at ``day``, explicitly.

        Materializes the pipeline if needed — *without* the lazy path's
        implicit ``commission_day`` survey — and commissions it at ``day``,
        so a cold site's first epoch lands exactly where the caller (e.g.
        the update scheduler catching up a site registered mid-flight)
        says it does. Raises :class:`RuntimeError` if the site is already
        commissioned: re-surveying is not a refresh, it would shadow the
        learned time-stable structure — call :meth:`update` instead.
        """
        system = self._resolve_raw(site)
        if system.commissioned:
            raise RuntimeError(
                f"site {site!r} is already commissioned (epoch days: "
                f"{system.database.days}); use update() to refresh it"
            )
        fingerprint = system.commission(day)
        self._save_snapshot_for(site)
        return fingerprint

    def update(
        self, site: str, day: float, *, cold: str = "raise"
    ) -> Optional[UpdateReport]:
        """Run a cheap fingerprint refresh on the site's pipeline.

        The **cold-update contract**: updating a site whose pipeline was
        never materialized (or never commissioned) is ambiguous — there is
        no reference structure to reconstruct against, and silently
        commissioning first would plant a surprise epoch at
        ``commission_day`` next to the requested one. ``cold`` selects the
        behavior explicitly:

        * ``"raise"`` (default) — raise :class:`RuntimeError`; the caller
          decides between :meth:`commission` and :meth:`pipeline`/warm.
        * ``"commission"`` — run the commissioning survey at ``day``
          instead (the refresh *is* the survey) and return ``None``: the
          site ends up with exactly one epoch, at ``day``, and later
          updates reconstruct against it.

        Returns the :class:`~repro.core.pipeline.UpdateReport` for a warm
        update, ``None`` when ``cold="commission"`` commissioned instead.
        """
        if cold not in ("raise", "commission"):
            raise ValueError(
                f"cold must be 'raise' or 'commission', got {cold!r}"
            )
        if site not in self:
            raise KeyError(self._unknown(site))
        if self.materialized(site):
            system = self.pipeline(site)
            if system.commissioned:
                report = system.update(day)
                self._save_snapshot_for(site)
                return report
        if cold == "raise":
            # Deliberately does not materialize anything: a refused cold
            # update must leave the site exactly as lazy as it found it.
            raise RuntimeError(
                f"cold update: site {site!r} has no commissioned pipeline "
                f"to refresh at day {day:g}; call commission(site, day) "
                "(or warm the site) first, or pass cold='commission' to "
                "survey at the update day"
            )
        self._resolve_raw(site).commission(day)
        self._save_snapshot_for(site)
        return None

    # ------------------------------------------------------------------
    def _resolve_raw(self, site: str) -> TafLoc:
        """The site's pipeline, materialized *without* auto-commissioning.

        The commission/update entry points use this so lifecycle decisions
        (when and whether to survey) stay theirs; the returned pipeline is
        the same shared object :meth:`pipeline` would serve.
        """
        return self._resolve(site, commission=False)

    def _materialize(
        self, site: str, spec: ScenarioSpec, *, commission: Optional[bool] = None
    ) -> TafLoc:
        want_commission = (
            self.auto_commission if commission is None else commission
        )
        if want_commission and self.snapshot_dir is not None:
            restored = self._try_restore(site, spec)
            if restored is not None:
                return restored
        system = self._build_raw(spec)
        if want_commission:
            system.commission(self.commission_day)
            self._save_snapshot_system(site, spec, system)
        return system

    def _build_raw(self, spec: ScenarioSpec) -> TafLoc:
        """A virgin pipeline for ``spec`` with the manager-derived seeds."""
        scenario = cached_scenario(spec, build_scenario)
        return TafLoc(
            RssCollector(
                scenario, self.protocol, seed=pipeline_seed(spec, self.seed)
            ),
            self.config,
            seed=reconstructor_seed(spec, self.seed),
        )

    # ------------------------------------------------------------------
    # snapshots (the durability layer; see repro.serve.snapshot)
    # ------------------------------------------------------------------
    def snapshot_path(self, site: str) -> Path:
        """Where the site's snapshot lives (requires ``snapshot_dir``).

        With a retention policy this is the *base* name version files
        derive from (``<base>.vNNNNNN.snap.npz``); use
        :attr:`snapshot_store` ``.latest(path)`` for the newest file.
        """
        if self.snapshot_dir is None:
            raise RuntimeError(
                "this manager has no snapshot_dir; construct it with one "
                "to enable snapshots"
            )
        spec = self._specs.get(site)
        if spec is None:
            if site in self._attached:
                raise RuntimeError(
                    f"site {site!r} is an attached pipeline; snapshots "
                    "cover spec-backed sites only"
                )
            raise KeyError(self._unknown(site))
        key = self._pipeline_key(site, spec)
        digest = hashlib.blake2b(
            f"{key}|{self._seed_key()}".encode("utf-8"), digest_size=16
        ).hexdigest()
        safe_name = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in spec.name
        )
        return self.snapshot_dir / f"{safe_name}-{digest}.snap.npz"

    @property
    def snapshot_store(self) -> Optional[SnapshotStore]:
        """The lifecycle manager over ``snapshot_dir`` (``None`` without one)."""
        return self._store

    def snapshot_site(self, site: str) -> Path:
        """Persist the site's commissioned state now; returns the path.

        Idempotent by digest: when the newest on-disk snapshot already
        records byte-identical epochs, the existing file is returned
        without writing — so R replicas running maintenance over a shared
        directory don't churn R identical versions per pass through the
        retention window.
        """
        system = self._by_site.get(site)
        if system is None or not system.commissioned:
            raise RuntimeError(
                f"site {site!r} has no commissioned pipeline to snapshot; "
                "warm or commission it first"
            )
        path = self.snapshot_path(site)  # validates dir + spec-backed
        spec = self._specs[site]
        live = self.live_digest(site)
        if live is not None and live == self.snapshot_digest(site):
            latest = self._store.latest(path)
            if latest is not None:
                return latest
        written = self._store.save(path, self._capture(site, spec, system))
        self.stats.snapshots_saved += 1
        return written

    def snapshot_all(self) -> Dict[str, Path]:
        """Snapshot every commissioned spec-backed site; ``{site: path}``."""
        written: Dict[str, Path] = {}
        for site in self._specs:
            system = self._by_site.get(site)
            if system is not None and system.commissioned:
                written[site] = self.snapshot_site(site)
        return written

    def _seed_key(self) -> int:
        return task_key(self.seed, "serve-snapshot")

    def _capture(self, site: str, spec: ScenarioSpec, system: TafLoc):
        return snapshot_state(
            system,
            spec_name=spec.name,
            spec_fingerprint=_spec_fingerprint(spec),
            config_fingerprint=task_fingerprint(self.config),
            protocol_fingerprint=task_fingerprint(self.protocol),
            seed_key=self._seed_key(),
        )

    def _save_snapshot_for(self, site: str) -> None:
        """Best-effort persistence hook behind commission/update."""
        if self.snapshot_dir is None or site not in self._specs:
            return
        system = self._by_site.get(site)
        if system is None or not system.commissioned:
            return
        self._save_snapshot_system(site, self._specs[site], system)

    def _save_snapshot_system(
        self, site: str, spec: ScenarioSpec, system: TafLoc
    ) -> None:
        if self.snapshot_dir is None:
            return
        self._store.save(self.snapshot_path(site), self._capture(site, spec, system))
        self.stats.snapshots_saved += 1

    def _restore_one(self, path: Path, spec: ScenarioSpec) -> TafLoc:
        """Restore from one specific file; raises :class:`SnapshotError`."""
        snapshot = load_snapshot(path)
        expectations = (
            (snapshot.spec_fingerprint, _spec_fingerprint(spec), "spec"),
            (
                snapshot.config_fingerprint,
                task_fingerprint(self.config),
                "config",
            ),
            (
                snapshot.protocol_fingerprint,
                task_fingerprint(self.protocol),
                "protocol",
            ),
        )
        for stored, expected, label in expectations:
            if stored != expected:
                raise SnapshotError(
                    f"snapshot {path} was written under a different "
                    f"{label} (fingerprint {stored!r} != {expected!r})"
                )
        return restore_into(self._build_raw(spec), snapshot)

    def _try_restore(self, site: str, spec: ScenarioSpec) -> Optional[TafLoc]:
        """Restore ``site`` from its snapshot(s), or ``None`` to rebuild.

        Candidates are tried newest-first (with retention there can be
        several). A missing file is the normal cold path; a present-but-
        unusable one (corrupt, wrong format version, or written under a
        different spec/config/protocol) counts as *rejected* and the next-
        older version gets its chance — a stale snapshot must never win
        over correctness, but one bad write should not force a re-survey
        when a verified predecessor exists.
        """
        for path in self._store.candidates(self.snapshot_path(site)):
            try:
                system = self._restore_one(path, spec)
            except SnapshotError:
                self.stats.snapshots_rejected += 1
                continue
            self.stats.snapshots_restored += 1
            return system
        return None

    # ------------------------------------------------------------------
    # anti-entropy (digest arbitration + read-repair; see serve.snapshot)
    # ------------------------------------------------------------------
    def live_digest(self, site: str) -> Optional[str]:
        """Digest of the site's live fingerprint database, or ``None`` cold.

        Comparable bit-for-bit with :meth:`snapshot_digest` — equal
        digests mean the live epochs and the snapshotted ones are
        byte-identical. Never materializes a pipeline.
        """
        if not self.materialized(site):  # KeyError for unknown sites
            return None
        system = self.pipeline(site)
        if not system.commissioned or system.database.epoch_count == 0:
            return None
        return epochs_digest(system.database.epochs())

    def snapshot_digest(self, site: str) -> Optional[str]:
        """Digest recorded by the site's newest *readable* snapshot.

        Walks retention candidates newest-first and returns the first
        whose meta block validates; ``None`` when the site has no usable
        snapshot (no directory, never saved, or all copies corrupt).
        """
        if self.snapshot_dir is None or site not in self._specs:
            return None
        for path in self._store.candidates(self.snapshot_path(site)):
            try:
                return read_snapshot_digest(path)
            except SnapshotError:
                continue
        return None

    def has_snapshot(self, site: str) -> bool:
        """Whether any snapshot file exists for ``site`` (no validation)."""
        if self.snapshot_dir is None or site not in self._specs:
            return False
        return bool(self._store.candidates(self.snapshot_path(site)))

    def restore_site(self, site: str, *, refresh: bool = False) -> TafLoc:
        """Materialize ``site`` strictly from its snapshot — never survey.

        The degraded-serving path: when every replica of a site is down,
        the router answers from the last verified snapshot, and answering
        must not trigger a commissioning survey in the parent process.
        ``refresh=True`` drops any cached pipeline first so a newer
        snapshot wins. Raises :class:`SnapshotError` when no usable
        snapshot exists.
        """
        if self.snapshot_dir is None:
            raise RuntimeError(
                "this manager has no snapshot_dir; construct it with one "
                "to enable snapshot restores"
            )
        if site in self._attached:
            raise RuntimeError(
                f"site {site!r} is an attached pipeline; snapshots cover "
                "spec-backed sites only"
            )
        if site not in self._specs:
            raise KeyError(self._unknown(site))
        spec = self._specs[site]
        key = self._pipeline_key(site, spec)
        if refresh:
            self._drop_pipeline(site, spec)
        cached = self._by_site.get(site)
        if cached is not None:
            return cached
        if key not in self._pipelines:
            restored = self._try_restore(site, spec)
            if restored is None:
                raise SnapshotError(
                    f"no usable snapshot for site {site!r} in "
                    f"{self.snapshot_dir}"
                )
            self._pipelines[key] = restored
            self.stats.pipelines_built += 1
        else:
            self.stats.pipelines_shared += 1
        self._by_site[site] = self._pipelines[key]
        return self._by_site[site]

    def _drop_pipeline(self, site: str, spec: ScenarioSpec) -> None:
        """Forget the site's pipeline (and its aliases in shared mode)."""
        key = self._pipeline_key(site, spec)
        for other, other_spec in self._specs.items():
            if self._pipeline_key(other, other_spec) == key:
                self._by_site.pop(other, None)
        self._pipelines.pop(key, None)

    def repair_site(self, site: str) -> Dict[str, object]:
        """Rebuild the site's pipeline from authoritative state.

        The read-repair half of the anti-entropy loop: the diverged (e.g.
        bit-flipped) in-memory pipeline is dropped and the site is
        re-materialized through the lazy path — restoring from the newest
        valid snapshot when one exists (milliseconds, and bit-identical to
        the state the snapshot froze), falling back to a fresh
        commissioning survey when the snapshots themselves are unusable
        (correct fingerprints, at the cost of the survey and any epochs
        recorded since). Returns what happened.
        """
        if site in self._attached:
            raise RuntimeError(
                f"site {site!r} is an attached pipeline; repair covers "
                "spec-backed sites only"
            )
        if site not in self._specs:
            raise KeyError(self._unknown(site))
        spec = self._specs[site]
        self._drop_pipeline(site, spec)
        restored_before = self.stats.snapshots_restored
        system = self.pipeline(site)
        return {
            "site": site,
            "restored": self.stats.snapshots_restored > restored_before,
            "commissioned": bool(system.commissioned),
            "epochs": int(system.database.epoch_count),
        }

    def snapshot_maintenance(self) -> Dict[str, object]:
        """One lifecycle pass: save, scrub, compact; returns the report.

        The scheduler's snapshot-cadence hook (see
        ``SchedulerConfig.snapshot_cadence_days``): persists every
        commissioned site, checksum-verifies the whole directory
        (quarantining corrupt files out of the restore path), and prunes
        history per the retention policy. A no-op report without a
        ``snapshot_dir``.
        """
        if self.snapshot_dir is None:
            return {
                "enabled": False,
                "written": 0,
                "checked": 0,
                "corrupt": 0,
                "files_removed": 0,
                "bytes_reclaimed": 0,
                "total_bytes": 0,
            }
        # Saves prune inline (SnapshotStore.save compacts its own base),
        # so report the pass's prune work as a delta of the store's
        # lifetime counters rather than only the final compact's output.
        pruned_files = self._store.pruned_files
        pruned_bytes = self._store.pruned_bytes
        written = self.snapshot_all()
        scrubbed = self._store.scrub()
        self._store.compact()
        return {
            "enabled": True,
            "written": len(written),
            "checked": int(scrubbed["checked"]),
            "corrupt": int(scrubbed["corrupt"]),
            "files_removed": self._store.pruned_files - pruned_files,
            "bytes_reclaimed": self._store.pruned_bytes - pruned_bytes,
            "total_bytes": self._store.total_bytes(),
        }

    def _unknown(self, site: str) -> str:
        known = ", ".join(self.sites()) or "<none>"
        return f"unknown site {site!r}; registered: {known}"
