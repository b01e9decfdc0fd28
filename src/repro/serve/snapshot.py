"""Pipeline snapshots: freeze a commissioned site, restore it bit-identically.

A crashed or re-sharded worker must come back *warm* without re-running the
one expensive commissioning survey, and — because the serving layer's whole
identity story is "the shard layout is invisible in the answers" — the
restored pipeline has to answer (and keep updating) with exactly the same
bits as the original. A snapshot therefore captures every piece of mutable
pipeline state:

* the :class:`~repro.core.fingerprint.FingerprintDatabase` epochs (values,
  empty-room calibration, day, provenance), plus which epoch the
  :class:`~repro.core.reconstruction.Reconstructor` was learned from —
  the reconstructor itself is a *deterministic* function of
  ``(deployment, initial epoch, config, seed)``, so it is rebuilt on
  restore rather than serialized;
* the collector's PCG64 generator state and sample counter, so the *next*
  update after a restore draws the same randomness the original pipeline
  would have (queries draw no collector randomness — matching is
  deterministic — but refreshes do);
* the interference model's generator state when it does not share the
  collector's stream, and the solver's warm-start factors when
  ``warm_start`` is enabled.

The on-disk format is one ``np.savez_compressed`` archive: a UTF-8 JSON
``meta`` blob (format version, spec/config/protocol fingerprints, epoch
manifest, RNG states) plus one array entry per epoch matrix. Every array is
covered by a SHA-256 recorded in the manifest and verified on load, and the
meta blob carries its own digest, so a truncated or bit-flipped snapshot
raises :class:`SnapshotError` instead of silently serving corrupt
fingerprints. Writes go to a temp file in the same directory followed by an
atomic rename; snapshot bytes are deterministic functions of pipeline state,
so two replicas racing to save the same state is benign.

Restore-vs-rebuild identity is gated the same way the bench smoke gates
gate the wire path: ``tests/serve/test_snapshot.py`` asserts snapshot→restore
answers equal rebuild-from-scratch answers bit for bit across every
registered scenario, including post-restore updates.

Two PR-7 additions turn snapshots from a durability mechanism into the
*authority* of the anti-entropy layer:

* **State digests** — :func:`epochs_digest` folds the per-epoch SHA-256s
  (the same ones the manifest records) into one hex digest of the whole
  fingerprint database, and :func:`read_snapshot_digest` computes the
  identical digest straight from a snapshot's meta block without loading
  a single epoch array. A replica whose live digest disagrees with the
  last verified snapshot is the diverged one — that is how the sharded
  router's scrub arbitrates which copy to trust.
* **Lifecycle** — :class:`SnapshotStore` manages a snapshot directory as
  a first-class artifact: optional keep-last-K versioned retention (the
  default, ``keep_last=None``, preserves the PR-6 single-file-per-site
  layout byte for byte), a digest-verifying :meth:`SnapshotStore.scrub`
  that quarantines corrupt files out of the restore path, and
  :meth:`SnapshotStore.compact` reporting the bytes it reclaimed. The
  update scheduler drives all three on a cadence
  (``SchedulerConfig.snapshot_cadence_days``).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.fingerprint import FingerprintMatrix
from repro.core.pipeline import TafLoc
from repro.core.reconstruction import Reconstructor

__all__ = [
    "SNAPSHOT_VERSION",
    "SiteSnapshot",
    "SnapshotError",
    "SnapshotStore",
    "epochs_digest",
    "load_snapshot",
    "read_snapshot_digest",
    "restore_into",
    "save_snapshot",
    "snapshot_state",
]

#: On-disk format version; bumped whenever the layout changes shape.
SNAPSHOT_VERSION = 1

_MAGIC = "tafloc-snapshot"


class SnapshotError(RuntimeError):
    """A snapshot is unreadable, corrupt, or from a mismatched context."""


@dataclass(frozen=True)
class SiteSnapshot:
    """A loaded snapshot: validated epochs plus the restore context.

    Attributes:
        version: Format version of the file this was read from.
        spec_name: Human-readable scenario name (diagnostics only).
        spec_fingerprint: Structural fingerprint of the scenario spec the
            pipeline was built from — restore *must* match it.
        config_fingerprint: Fingerprint of the ``TafLocConfig``.
        protocol_fingerprint: Fingerprint of the ``CollectionProtocol``.
        seed_key: Identification key derived from the manager seed.
        epochs: The fingerprint database content, in day-sorted order.
        initial_index: Index (into ``epochs``) of the survey epoch the
            reconstructor was learned from.
        collector_rng_state: ``bit_generator.state`` of the collector.
        samples_taken: Collector sample counter at snapshot time.
        interference_rng_state: State of a *separate* interference stream
            (``None`` when the model shares the collector's generator, the
            manager-built default).
        warm_factors: LoLi-IR warm-start factors ``(left, right)`` or
            ``None``.
    """

    version: int
    spec_name: str
    spec_fingerprint: str
    config_fingerprint: Optional[str]
    protocol_fingerprint: Optional[str]
    seed_key: int
    epochs: List[FingerprintMatrix]
    initial_index: int
    collector_rng_state: Dict[str, Any]
    samples_taken: int
    interference_rng_state: Optional[Dict[str, Any]]
    warm_factors: Optional[tuple]


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# state digests (the anti-entropy layer's arbitration currency)
# ----------------------------------------------------------------------
def _fold_digest(entries) -> str:
    """One digest over ``(day, values_sha, empty_sha)`` triples, in order."""
    folded = hashlib.sha256()
    for day, values_sha, empty_sha in entries:
        folded.update(f"{float(day)!r}|{values_sha}|{empty_sha};".encode())
    return folded.hexdigest()


def epochs_digest(epochs: Iterable[FingerprintMatrix]) -> str:
    """Digest of a fingerprint database's full content, in epoch order.

    Folds each epoch's day and array SHA-256s — the same quantities
    :func:`save_snapshot` records in its manifest — so the digest of a
    live pipeline's ``database.epochs()`` equals
    :func:`read_snapshot_digest` of a snapshot of that exact state. A
    single flipped bit in any epoch changes it.
    """
    return _fold_digest(
        (epoch.day, _sha256(epoch.values), _sha256(epoch.empty_rss))
        for epoch in epochs
    )


def read_snapshot_digest(path: Union[str, Path]) -> str:
    """The :func:`epochs_digest` a snapshot's state would hash to.

    Reads only the meta block (the manifest already carries every per-
    epoch SHA-256), so arbitrating a replica divergence costs one small
    decompression, not a full state load. The meta envelope's own
    checksum is verified; raises :class:`SnapshotError` on any damage.
    """
    meta = _read_meta(Path(path))
    try:
        return _fold_digest(
            (entry["day"], entry["values_sha256"], entry["empty_sha256"])
            for entry in meta["epochs"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"snapshot {path} manifest is corrupt: {error}"
        ) from error


def snapshot_state(
    system: TafLoc,
    *,
    spec_name: str,
    spec_fingerprint: str,
    config_fingerprint: Optional[str],
    protocol_fingerprint: Optional[str],
    seed_key: int,
) -> SiteSnapshot:
    """Capture a commissioned pipeline's state as a :class:`SiteSnapshot`."""
    reconstructor = system.reconstructor
    if reconstructor is None:
        raise SnapshotError("cannot snapshot an uncommissioned pipeline")
    epochs = system.database.epochs()
    initial_index = next(
        (
            index
            for index, epoch in enumerate(epochs)
            if epoch is reconstructor.initial
        ),
        None,
    )
    if initial_index is None:
        raise SnapshotError(
            "reconstructor's initial epoch is not in the database; "
            "the pipeline state is inconsistent"
        )
    collector = system.collector
    interference_state = None
    interference = collector.interference
    if interference is not None and interference._rng is not collector._rng:
        interference_state = interference._rng.bit_generator.state
    warm = getattr(reconstructor, "_warm_factors", None)
    return SiteSnapshot(
        version=SNAPSHOT_VERSION,
        spec_name=spec_name,
        spec_fingerprint=spec_fingerprint,
        config_fingerprint=config_fingerprint,
        protocol_fingerprint=protocol_fingerprint,
        seed_key=int(seed_key),
        epochs=epochs,
        initial_index=initial_index,
        collector_rng_state=collector._rng.bit_generator.state,
        samples_taken=int(collector.samples_taken),
        interference_rng_state=interference_state,
        warm_factors=None if warm is None else (warm[0], warm[1]),
    )


def save_snapshot(
    path: Union[str, Path], snapshot: SiteSnapshot
) -> Path:
    """Write ``snapshot`` to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    manifest = []
    for index, epoch in enumerate(snapshot.epochs):
        values_key, empty_key = f"values_{index}", f"empty_{index}"
        arrays[values_key] = epoch.values
        arrays[empty_key] = epoch.empty_rss
        manifest.append(
            {
                "day": float(epoch.day),
                "source": str(epoch.source),
                "values_key": values_key,
                "empty_key": empty_key,
                "values_sha256": _sha256(epoch.values),
                "empty_sha256": _sha256(epoch.empty_rss),
            }
        )
    warm_meta = None
    if snapshot.warm_factors is not None:
        left, right = snapshot.warm_factors
        arrays["warm_left"] = np.asarray(left)
        arrays["warm_right"] = np.asarray(right)
        warm_meta = {
            "left_sha256": _sha256(arrays["warm_left"]),
            "right_sha256": _sha256(arrays["warm_right"]),
        }
    meta = {
        "format": _MAGIC,
        "version": snapshot.version,
        "spec_name": snapshot.spec_name,
        "spec_fingerprint": snapshot.spec_fingerprint,
        "config_fingerprint": snapshot.config_fingerprint,
        "protocol_fingerprint": snapshot.protocol_fingerprint,
        "seed_key": snapshot.seed_key,
        "epochs": manifest,
        "initial_index": snapshot.initial_index,
        "collector_rng_state": snapshot.collector_rng_state,
        "samples_taken": snapshot.samples_taken,
        "interference_rng_state": snapshot.interference_rng_state,
        "warm": warm_meta,
    }
    meta_text = json.dumps(meta, sort_keys=True)
    envelope = {
        "meta": meta_text,
        "meta_sha256": hashlib.sha256(meta_text.encode("utf-8")).hexdigest(),
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(envelope).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
    return path


def _parse_meta(path: Path, meta_array: np.ndarray) -> Dict[str, Any]:
    """Validate and decode the ``meta`` envelope of one snapshot archive."""
    try:
        envelope = json.loads(bytes(meta_array.tobytes()).decode("utf-8"))
        meta_text = envelope["meta"]
        if (
            hashlib.sha256(meta_text.encode("utf-8")).hexdigest()
            != envelope["meta_sha256"]
        ):
            raise SnapshotError(f"snapshot {path} meta checksum mismatch")
        meta = json.loads(meta_text)
    except SnapshotError:
        raise
    except (ValueError, KeyError, TypeError) as error:
        raise SnapshotError(
            f"snapshot {path} meta block is corrupt: {error}"
        ) from error
    if meta.get("format") != _MAGIC:
        raise SnapshotError(f"{path} is not a {_MAGIC} file")
    if meta.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path} has format version {meta.get('version')}, "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    return meta


def _read_meta(path: Path) -> Dict[str, Any]:
    """Load only the meta block (npz members decompress lazily)."""
    try:
        with np.load(path) as archive:
            if "meta" not in archive.files:
                raise SnapshotError(f"snapshot {path} has no meta block")
            meta_array = archive["meta"]
    except SnapshotError:
        raise
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as error:
        raise SnapshotError(f"unreadable snapshot {path}: {error}") from error
    return _parse_meta(path, meta_array)


def load_snapshot(path: Union[str, Path]) -> SiteSnapshot:
    """Read and fully validate a snapshot; raises :class:`SnapshotError`."""
    path = Path(path)
    try:
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as error:
        raise SnapshotError(f"unreadable snapshot {path}: {error}") from error
    if "meta" not in data:
        raise SnapshotError(f"snapshot {path} has no meta block")
    meta = _parse_meta(path, data["meta"])
    epochs: List[FingerprintMatrix] = []
    for entry in meta["epochs"]:
        try:
            values = data[entry["values_key"]]
            empty = data[entry["empty_key"]]
        except KeyError as error:
            raise SnapshotError(
                f"snapshot {path} is missing array {error}"
            ) from None
        if _sha256(values) != entry["values_sha256"] or _sha256(empty) != (
            entry["empty_sha256"]
        ):
            raise SnapshotError(
                f"snapshot {path} epoch day {entry['day']:g} failed its "
                "checksum — refusing to serve corrupt fingerprints"
            )
        epochs.append(
            FingerprintMatrix(
                values=values,
                empty_rss=empty,
                day=float(entry["day"]),
                source=str(entry["source"]),
            )
        )
    warm_factors = None
    if meta.get("warm") is not None:
        for key, digest in (
            ("warm_left", meta["warm"]["left_sha256"]),
            ("warm_right", meta["warm"]["right_sha256"]),
        ):
            if key not in data or _sha256(data[key]) != digest:
                raise SnapshotError(
                    f"snapshot {path} warm-start factors failed validation"
                )
        warm_factors = (data["warm_left"], data["warm_right"])
    initial_index = int(meta["initial_index"])
    if not 0 <= initial_index < len(epochs):
        raise SnapshotError(
            f"snapshot {path} initial epoch index {initial_index} out of "
            f"range for {len(epochs)} epochs"
        )
    return SiteSnapshot(
        version=int(meta["version"]),
        spec_name=str(meta["spec_name"]),
        spec_fingerprint=str(meta["spec_fingerprint"]),
        config_fingerprint=meta.get("config_fingerprint"),
        protocol_fingerprint=meta.get("protocol_fingerprint"),
        seed_key=int(meta["seed_key"]),
        epochs=epochs,
        initial_index=initial_index,
        collector_rng_state=meta["collector_rng_state"],
        samples_taken=int(meta["samples_taken"]),
        interference_rng_state=meta.get("interference_rng_state"),
        warm_factors=warm_factors,
    )


def restore_into(system: TafLoc, snapshot: SiteSnapshot) -> TafLoc:
    """Load ``snapshot`` into a freshly built, *uncommissioned* pipeline.

    The caller (the :class:`~repro.serve.manager.SiteManager`) builds the
    pipeline exactly as it would for a cold materialization — same scenario
    realization, same derived collector/reconstructor seeds — and this
    function replays the saved state onto it: database epochs, the
    deterministically rebuilt reconstructor, warm-start factors, and the
    collector's generator position. No survey is run; restoring costs
    milliseconds where commissioning costs a full survey plus a solve.
    """
    if system.database.epoch_count != 0 or system.reconstructor is not None:
        raise SnapshotError(
            "restore target must be a virgin pipeline (no epochs, "
            "not commissioned)"
        )
    for epoch in snapshot.epochs:
        system.database.add(epoch)
    # ``add`` keeps day order with ties inserted after existing entries, and
    # the saved list was already day-sorted, so indices are preserved.
    initial = system.database.epochs()[snapshot.initial_index]
    system.reconstructor = Reconstructor(
        system.deployment,
        initial,
        system.config.reconstruction,
        seed=system._seed,
    )
    if snapshot.warm_factors is not None:
        system.reconstructor._warm_factors = (
            snapshot.warm_factors[0],
            snapshot.warm_factors[1],
        )
    collector = system.collector
    try:
        collector._rng.bit_generator.state = snapshot.collector_rng_state
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"collector RNG state does not fit this build: {error}"
        ) from error
    collector._samples_taken = snapshot.samples_taken
    interference = collector.interference
    if snapshot.interference_rng_state is not None:
        if interference is None or interference._rng is collector._rng:
            raise SnapshotError(
                "snapshot carries a separate interference stream but the "
                "rebuilt pipeline has none"
            )
        interference._rng.bit_generator.state = snapshot.interference_rng_state
    return system


# ----------------------------------------------------------------------
# lifecycle: versioned retention, scrub, compaction
# ----------------------------------------------------------------------
_SNAP_SUFFIX = ".snap.npz"
_QUARANTINE_SUFFIX = ".corrupt"


def _split_snapshot_name(name: str) -> Tuple[str, Optional[int]]:
    """``(base, version)`` for a snapshot filename; version ``None`` when
    the file uses the unversioned (PR-6 single-file) layout."""
    core = name[: -len(_SNAP_SUFFIX)]
    base, sep, tail = core.rpartition(".v")
    if sep and tail.isdigit():
        return base, int(tail)
    return core, None


class SnapshotStore:
    """A snapshot directory as a managed artifact: retention, scrub, compaction.

    With ``keep_last=None`` (the default) the store is a thin pass-through
    over the PR-6 layout — one stable ``<base>.snap.npz`` file per site,
    overwritten in place — so existing directories and their naming
    contract are untouched. With ``keep_last=K`` every save writes a new
    ``<base>.v<NNNNNN>.snap.npz`` version and prunes the site's history to
    the newest ``K``; restores try newest-first, so one bad write cannot
    take out a site's warm path.

    Multiple replicas of one fleet share a directory by design: snapshot
    bytes are deterministic functions of pipeline state, so racing saves
    are benign, and racing prunes tolerate already-deleted files.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        keep_last: Optional[int] = None,
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.keep_last = keep_last
        #: Lifetime prune totals across every compact (inline prunes on
        #: save included) — maintenance reports per-pass deltas of these.
        self.pruned_files = 0
        self.pruned_bytes = 0

    # ------------------------------------------------------------------
    def _versions(self, base: str) -> List[Tuple[int, Path]]:
        """The base's files as ``(sort_key, path)``, oldest first.

        An unversioned file sorts before every versioned one: in
        retention mode it is a PR-6 leftover, strictly older than any
        version the store wrote.
        """
        found = []
        for path in self.directory.glob(f"{base}*{_SNAP_SUFFIX}"):
            file_base, version = _split_snapshot_name(path.name)
            if file_base != base:
                continue
            found.append((-1 if version is None else version, path))
        return sorted(found)

    def candidates(self, base_path: Union[str, Path]) -> List[Path]:
        """Restore candidates for ``base_path``'s site, newest first."""
        base_path = Path(base_path)
        base, _ = _split_snapshot_name(base_path.name)
        return [path for _, path in reversed(self._versions(base))]

    def latest(self, base_path: Union[str, Path]) -> Optional[Path]:
        """The newest snapshot file for ``base_path``'s site, if any."""
        candidates = self.candidates(base_path)
        return candidates[0] if candidates else None

    def save(self, base_path: Union[str, Path], snapshot: SiteSnapshot) -> Path:
        """Persist ``snapshot``; returns the path actually written.

        Unversioned mode overwrites ``base_path`` in place; retention
        mode writes the next version and prunes the site's history.
        """
        base_path = Path(base_path)
        if self.keep_last is None:
            return save_snapshot(base_path, snapshot)
        base, _ = _split_snapshot_name(base_path.name)
        versions = self._versions(base)
        next_version = versions[-1][0] + 1 if versions else 1
        path = save_snapshot(
            self.directory / f"{base}.v{next_version:06d}{_SNAP_SUFFIX}",
            snapshot,
        )
        self.compact(bases=[base])
        return path

    # ------------------------------------------------------------------
    def files(self) -> List[Path]:
        """Every snapshot file in the directory, sorted by name."""
        return sorted(self.directory.glob(f"*{_SNAP_SUFFIX}"))

    def total_bytes(self) -> int:
        """Bytes the directory's snapshot files currently occupy."""
        total = 0
        for path in self.files():
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - raced with a prune
                pass
        return total

    def scrub(self) -> Dict[str, object]:
        """Verify every snapshot's checksums; quarantine the corrupt ones.

        A file whose meta envelope or array digests fail validation is
        renamed to ``<name>.corrupt`` so it can never win a restore, and
        reported — silently deleting evidence of corruption would hide
        exactly the events this layer exists to surface.
        """
        checked = 0
        quarantined: List[str] = []
        for path in self.files():
            checked += 1
            try:
                load_snapshot(path)
            except SnapshotError:
                target = path.with_name(path.name + _QUARANTINE_SUFFIX)
                try:
                    path.rename(target)
                except OSError:  # pragma: no cover - raced with a prune
                    continue
                quarantined.append(path.name)
        return {
            "checked": checked,
            "corrupt": len(quarantined),
            "quarantined": quarantined,
        }

    def compact(
        self,
        *,
        keep_last: Optional[int] = None,
        bases: Optional[Iterable[str]] = None,
    ) -> Dict[str, object]:
        """Prune each site's history to its newest ``keep_last`` files.

        ``keep_last`` defaults to the store's policy (``None`` = keep
        everything — compaction is a no-op without a retention policy).
        Returns what was reclaimed; racing deletes (another replica
        compacting the shared directory) are tolerated.
        """
        keep = self.keep_last if keep_last is None else int(keep_last)
        if keep is None:
            return {"files_removed": 0, "bytes_reclaimed": 0}
        if keep < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep}")
        if bases is None:
            grouped = sorted(
                {_split_snapshot_name(path.name)[0] for path in self.files()}
            )
        else:
            grouped = sorted(set(bases))
        removed = 0
        reclaimed = 0
        for base in grouped:
            versions = self._versions(base)
            for _, path in versions[: max(0, len(versions) - keep)]:
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:  # pragma: no cover - raced with another prune
                    continue
                removed += 1
                reclaimed += size
        self.pruned_files += removed
        self.pruned_bytes += reclaimed
        return {"files_removed": removed, "bytes_reclaimed": reclaimed}
