"""Snapshot round-trip gates: restore must change nothing, ever.

The contracts under test, per the module docstring of
:mod:`repro.serve.snapshot`:

* restore-vs-original bit-identity — database epochs, query answers, and
  *future updates* (the RNG-state part) — across every registered
  scenario, including the interference-bearing ones;
* corruption, version skew, and context mismatches (spec, protocol,
  manager seed) are *rejected*, falling back to a clean rebuild that
  still answers bit-identically.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import TafLocConfig
from repro.serve.manager import SiteManager
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotStore,
    load_snapshot,
    restore_into,
    save_snapshot,
    snapshot_state,
)
from repro.sim.collector import CollectionProtocol
from repro.sim.specs import list_scenarios
from repro.util.rng import counter_stream

PROTOCOL = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
SEED = 77


def _manager(tmp_path, **overrides):
    kwargs = dict(
        protocol=PROTOCOL,
        seed=SEED,
        snapshot_dir=tmp_path,
        share_pipelines=False,
    )
    kwargs.update(overrides)
    return SiteManager(**kwargs)


def _frames(system, count=5):
    links = system.deployment.link_count
    return counter_stream(SEED, 9).normal(-55.0, 6.0, size=(count, links))


def _assert_epochs_identical(left, right):
    left_epochs, right_epochs = left.database.epochs(), right.database.epochs()
    assert len(left_epochs) == len(right_epochs)
    for a, b in zip(left_epochs, right_epochs):
        assert a.day == b.day
        assert a.source == b.source
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.empty_rss, b.empty_rss)


class TestRoundTripAcrossScenarios:
    @pytest.mark.parametrize("name", sorted(list_scenarios()))
    def test_restore_is_bit_identical_including_future_updates(
        self, name, tmp_path
    ):
        """The full durability contract, per registered scenario: a
        restored pipeline has identical epochs, answers identical
        queries, and — the RNG-state part — its *next* update draws the
        same randomness the original would have, producing an identical
        new epoch."""
        origin = _manager(tmp_path)
        origin.register("site", name)
        system = origin.pipeline("site")  # commission + snapshot
        origin.update("site", 5.0)  # second epoch + re-snapshot

        revived = _manager(tmp_path)
        revived.register("site", name)
        restored = revived.pipeline("site")
        assert revived.stats.snapshots_restored == 1
        assert revived.stats.pipelines_built == 1  # built via restore path
        _assert_epochs_identical(system, restored)

        frames = _frames(system)
        assert np.array_equal(
            system.localize_batch(frames, 5.0).cells,
            restored.localize_batch(frames, 5.0).cells,
        )
        assert np.array_equal(
            system.localize_batch(frames, 5.0).positions,
            restored.localize_batch(frames, 5.0).positions,
        )

        original_report = origin.update("site", 9.0)
        restored_report = revived.update("site", 9.0)
        assert original_report.samples_taken == restored_report.samples_taken
        _assert_epochs_identical(system, restored)
        assert system.collector.samples_taken == restored.collector.samples_taken


class TestRejection:
    def _seed_snapshot(self, tmp_path):
        origin = _manager(tmp_path)
        origin.register("site", "square-3m")
        origin.pipeline("site")
        return origin.snapshot_path("site")

    def test_truncated_snapshot_is_rejected_then_rebuilt(self, tmp_path):
        path = self._seed_snapshot(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        revived = _manager(tmp_path)
        revived.register("site", "square-3m")
        restored = revived.pipeline("site")
        assert revived.stats.snapshots_rejected == 1
        assert revived.stats.snapshots_restored == 0
        assert restored.commissioned  # rebuilt from a clean survey

    def test_bitflipped_file_is_rejected(self, tmp_path):
        path = self._seed_snapshot(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # corrupt a stored array byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_stale_array_checksum_is_rejected(self, tmp_path):
        """A well-formed archive whose array bytes no longer match their
        recorded digest must fail the per-array checksum."""
        path = self._seed_snapshot(tmp_path)
        snapshot = load_snapshot(path)
        tampered = dataclasses.replace(
            snapshot,
            epochs=[
                dataclasses.replace(epoch, values=epoch.values + 1e-9)
                for epoch in snapshot.epochs
            ],
        )
        # save_snapshot digests the tampered arrays consistently, so write
        # the tampered arrays under the ORIGINAL meta block instead.
        save_snapshot(path, tampered)
        import numpy as _np

        with _np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        good = tmp_path / "good.snap.npz"
        save_snapshot(good, snapshot)
        with _np.load(good) as archive:
            arrays["meta"] = archive["meta"]
        with open(path, "wb") as handle:
            _np.savez_compressed(handle, **arrays)
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

    def test_version_skew_is_rejected(self, tmp_path):
        path = self._seed_snapshot(tmp_path)
        snapshot = load_snapshot(path)
        future = dataclasses.replace(snapshot, version=SNAPSHOT_VERSION + 1)
        save_snapshot(path, future)
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)
        revived = _manager(tmp_path)
        revived.register("site", "square-3m")
        revived.pipeline("site")
        assert revived.stats.snapshots_rejected == 1

    def test_older_version_is_refused_and_rebuilt_to_fresh_bits(self, tmp_path):
        """A version-1 snapshot was written before the solver's re-pin, so
        its epochs are not what this build computes. It is refused, and the
        site rebuilds cold to exactly a fresh build's bits."""
        origin = _manager(tmp_path)
        origin.register("site", "square-3m")
        origin.pipeline("site")
        origin.update("site", 5.0)  # a reconstructed epoch in the snapshot
        path = origin.snapshot_path("site")
        save_snapshot(path, dataclasses.replace(load_snapshot(path), version=1))

        revived = _manager(tmp_path)
        revived.register("site", "square-3m")
        rebuilt = revived.pipeline("site")
        assert revived.stats.snapshots_rejected == 1
        assert revived.stats.snapshots_restored == 0

        fresh = SiteManager(protocol=PROTOCOL, seed=SEED, share_pipelines=False)
        fresh.register("site", "square-3m")
        twin = fresh.pipeline("site")
        _assert_epochs_identical(rebuilt, twin)
        revived.update("site", 5.0)
        fresh.update("site", 5.0)
        _assert_epochs_identical(rebuilt, twin)

    def _assert_mismatch_rejected_and_rebuilt(self, tmp_path, **overrides):
        """Same pipeline key + seed -> same path, but a fingerprint in
        ``overrides`` differs, so the restore must refuse the snapshot and
        rebuild cold to exactly a fresh build's bits."""
        self._seed_snapshot(tmp_path)
        other = _manager(tmp_path, **overrides)
        other.register("site", "square-3m")
        rebuilt = other.pipeline("site")
        assert other.stats.snapshots_rejected == 1
        assert other.stats.snapshots_restored == 0

        fresh = _manager(None, **overrides)  # no snapshot directory
        fresh.register("site", "square-3m")
        _assert_epochs_identical(rebuilt, fresh.pipeline("site"))

    def test_protocol_mismatch_is_rejected(self, tmp_path):
        self._assert_mismatch_rejected_and_rebuilt(
            tmp_path,
            protocol=CollectionProtocol(samples_per_cell=3, empty_room_samples=5),
        )

    def test_config_mismatch_is_rejected(self, tmp_path):
        """A snapshot written under another ``TafLocConfig`` (any snapshot
        from before a config field was added or removed) rebuilds cold."""
        self._assert_mismatch_rejected_and_rebuilt(
            tmp_path, config=TafLocConfig(knn_k=4)
        )

    def test_different_seed_never_sees_the_snapshot(self, tmp_path):
        self._seed_snapshot(tmp_path)
        other = _manager(tmp_path, seed=SEED + 1)
        other.register("site", "square-3m")
        other.pipeline("site")
        # A different manager seed derives a different snapshot path:
        # a cold build, neither restored nor rejected.
        assert other.stats.snapshots_restored == 0
        assert other.stats.snapshots_rejected == 0

    def test_junk_file_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "junk.snap.npz"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestExplicitApi:
    def test_snapshot_site_requires_commissioned_pipeline(self, tmp_path):
        manager = _manager(tmp_path)
        manager.register("site", "square-3m")
        with pytest.raises(RuntimeError, match="no commissioned pipeline"):
            manager.snapshot_site("site")

    def test_snapshot_all_covers_commissioned_sites_only(self, tmp_path):
        manager = _manager(tmp_path)
        manager.register("warm-site", "square-3m")
        manager.register("cold-site", "square-4m")
        manager.pipeline("warm-site")
        written = manager.snapshot_all()
        assert set(written) == {"warm-site"}
        assert written["warm-site"].exists()

    def test_snapshot_path_requires_snapshot_dir(self):
        manager = SiteManager(protocol=PROTOCOL, seed=SEED)
        manager.register("site", "square-3m")
        with pytest.raises(RuntimeError, match="snapshot_dir"):
            manager.snapshot_path("site")

    def test_restore_into_refuses_commissioned_target(self, tmp_path):
        manager = _manager(tmp_path)
        manager.register("site", "square-3m")
        system = manager.pipeline("site")
        snapshot = load_snapshot(manager.snapshot_path("site"))
        with pytest.raises(SnapshotError, match="virgin"):
            restore_into(system, snapshot)

    def test_snapshot_state_refuses_uncommissioned(self, tmp_path):
        manager = SiteManager(
            protocol=PROTOCOL, seed=SEED, auto_commission=False
        )
        manager.register("site", "square-3m")
        system = manager.pipeline("site")
        with pytest.raises(SnapshotError, match="uncommissioned"):
            snapshot_state(
                system,
                spec_name="square-3m",
                spec_fingerprint="x",
                config_fingerprint=None,
                protocol_fingerprint=None,
                seed_key=0,
            )


class TestSnapshotStore:
    """Lifecycle: versioned retention, digest dedupe, scrub quarantine."""

    def _versioned(self, tmp_path, keep=2):
        manager = _manager(tmp_path, snapshot_keep=keep)
        manager.register("site", "square-3m")
        manager.pipeline("site")  # commission writes version 1
        return manager

    def test_keep_last_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            SnapshotStore(tmp_path, keep_last=0)
        with pytest.raises(ValueError, match="snapshot_keep"):
            _manager(None, snapshot_keep=2, snapshot_dir=None)

    def test_retention_bounds_history_and_counts_prunes(self, tmp_path):
        """Six refresh days through keep-last-2: the directory never
        holds more than two versions, and the store's lifetime counters
        record every inline prune."""
        manager = self._versioned(tmp_path, keep=2)
        store = manager.snapshot_store
        max_files = 0
        for day in range(1, 7):
            manager.update("site", float(day))  # auto-snapshots inline
            max_files = max(max_files, len(store.files()))
        assert max_files <= 2
        assert store.pruned_files >= 4  # v1..v5 pruned along the way
        assert store.pruned_bytes > 0
        # Every surviving file is a versioned name of the one base.
        base = manager.snapshot_path("site").name.removesuffix(".snap.npz")
        for path in store.files():
            assert path.name.startswith(f"{base}.v")

    def test_snapshot_site_dedupes_identical_state_by_digest(self, tmp_path):
        """Unchanged state re-snapshotted returns the existing file —
        replicas sharing a directory must not churn identical versions."""
        manager = self._versioned(tmp_path)
        first = manager.snapshot_site("site")
        again = manager.snapshot_site("site")
        assert again == first
        assert len(manager.snapshot_store.files()) == 1
        manager.update("site", 3.0)  # state changed: a new version lands
        newer = manager.snapshot_site("site")
        assert newer != first

    def test_scrub_quarantines_corrupt_file_out_of_the_restore_path(
        self, tmp_path
    ):
        """A bit-flipped version is renamed ``.corrupt`` (evidence kept,
        restore path cleared) and a fresh manager falls back to the
        surviving older version — bit-identically."""
        manager = self._versioned(tmp_path, keep=3)
        manager.update("site", 2.0)
        store = manager.snapshot_store
        newest = store.latest(manager.snapshot_path("site"))
        survivor = store.candidates(manager.snapshot_path("site"))[1]
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        report = store.scrub()
        assert report["corrupt"] == 1
        assert report["quarantined"] == [newest.name]
        assert not newest.exists()
        assert newest.with_name(newest.name + ".corrupt").exists()
        assert store.latest(manager.snapshot_path("site")) == survivor
        # The fallback restore answers with the survivor's exact bits.
        revived = _manager(tmp_path, snapshot_keep=3)
        revived.register("site", "square-3m")
        restored = revived.pipeline("site")
        assert revived.stats.snapshots_restored == 1
        original = load_snapshot(survivor)
        for left, right in zip(
            restored.database.epochs(), original.epochs
        ):
            assert np.array_equal(left.values, right.values)

    def test_compact_without_policy_is_a_no_op(self, tmp_path):
        manager = self._versioned(tmp_path, keep=None)
        store = manager.snapshot_store
        manager.update("site", 1.0)
        report = store.compact()
        assert report == {"files_removed": 0, "bytes_reclaimed": 0}
        assert store.pruned_files == 0
        # Unversioned mode keeps the PR-6 single-file layout intact.
        assert store.files() == [manager.snapshot_path("site")]

    def test_maintenance_reports_per_pass_deltas(self, tmp_path):
        """snapshot_maintenance reports the prune work of *its* pass as
        a delta of the store's lifetime counters — prunes that happened
        inline between passes stay in the lifetime totals only."""
        manager = self._versioned(tmp_path, keep=1)
        store = manager.snapshot_store
        report = manager.snapshot_maintenance()
        assert report["enabled"] is True
        assert report["checked"] == len(store.files())
        assert report["corrupt"] == 0
        manager.update("site", 4.0)  # v2 saved, v1 pruned inline
        inline_prunes = store.pruned_files
        assert inline_prunes >= 1
        # Loosen retention, grow history, tighten back: the next pass's
        # compact does real work and the report must show exactly it.
        store.keep_last = 3
        manager.update("site", 5.0)
        manager.update("site", 6.0)
        store.keep_last = 1
        backlog = len(store.files()) - 1
        assert backlog >= 1
        follow_up = manager.snapshot_maintenance()
        assert follow_up["files_removed"] == backlog
        assert follow_up["bytes_reclaimed"] > 0
        assert len(store.files()) == 1
        assert store.pruned_files == inline_prunes + backlog
        assert follow_up["total_bytes"] == store.total_bytes()
