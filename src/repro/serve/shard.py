"""Sharding: partition sites across worker processes, route in-process.

A multi-core host serves disjoint site sets concurrently:
:class:`ShardedService` starts ``shards`` long-lived worker processes
(via :func:`repro.eval.engine.worker_context`, the same fork-first policy
as the experiment engine's pool), each holding a full
:class:`~repro.serve.service.LocalizationService` over *its* sites, and
routes every call from the parent process to the owning worker over a
pipe. The router exposes the same surface as the in-process service, so
the wire front-ends (:mod:`repro.serve.frontend`) and the update
scheduler (:mod:`repro.serve.scheduler`) run unchanged on top of either.

**Routing is a pure function of the site name.** :func:`shard_for_site`
is a jump consistent hash over the site's stable 64-bit
:func:`~repro.util.rng.task_key`: deterministic across processes and
runs, uniform over shards, and *minimally disruptive* under re-sharding —
growing ``n → m`` shards moves a site only if its new shard is one of the
added ones (``shard >= n``), never between surviving shards. The
hypothesis suite (``tests/property/test_shard_routing.py``) pins all
three properties.

**R-way replication.** :func:`replica_shards` extends the primary
placement to the first ``R`` *distinct* shards in a salted jump-hash
probe sequence: probe 0 is :func:`shard_for_site` itself (so ``R=1`` is
exactly the old layout), and each further probe is an independent jump
hash, which keeps every individual probe minimally-moving under resize.
Reads go to the primary and fail over down the replica list when a
worker is dead or times out; updates and commissions fan out to *every*
owning replica in the same order, which — together with per-site
pipelines in the workers (see
:class:`~repro.serve.manager.SiteManager` ``share_pipelines``) — keeps
replicas bit-identical.

**Crash recovery, not just crash detection.** A worker that dies (or
hangs past ``call_timeout``) is marked down, queries fail over to its
replicas, and a background thread respawns it; with a ``snapshot_dir``
the replacement warms from checksummed snapshots in milliseconds instead
of re-surveying. :meth:`ShardedService.resize` grows or shrinks the
fleet live, handing off only the jump-hash-moved sites while queries
keep answering. :meth:`ShardedService.health` reports per-shard liveness
and per-site replica availability through the wire ``health`` method.

**One failure policy.** What the router does when a worker does not
answer is written once. ``_ask`` makes one call to one worker and
returns ``_DOWN`` when the worker is down, its pipe breaks or it misses
``call_timeout``; ``_trusted`` walks a site's live, unquarantined
replicas in probe order; ``_fan_out`` sends one call to each of a set of
replicas at once. Each schedules the respawn of every worker it finds
down, and a lost call counts its timeout in one place (``_lost``).
``_suspects`` is the one rule for which diverged replica to blame.

**Bit-identity for any shard count.** Worker services derive every
pipeline seed from ``(manager seed, spec fingerprint)`` — not from the
shard layout — so the same site answers with the same bits whether it is
served in-process, by one worker, or by one of sixteen (asserted in
``tests/serve/test_shard.py`` and the CI frontend smoke gate).

**Anti-entropy (PR 7): trust, but verify the replicas.** Crash recovery
handles workers that *stop*; this layer handles workers that keep
answering with *wrong bits* (a flipped fingerprint value corrupts every
score it touches, silently). Three defenses, all leaning on the
bit-identity contract — any two honest replicas of a site answer
byte-for-byte identically, so a single differing bit is proof of
divergence, not noise:

* :meth:`ShardedService.scrub` samples registered sites, sends one
  identical probe batch to *every* live owning replica, and compares the
  answers bit-for-bit. On divergence it arbitrates via state digests
  (each replica's live fingerprint digest vs. the authoritative snapshot
  digest — see :func:`repro.serve.snapshot.epochs_digest`), **quarantines**
  the diverged replica out of the read rotation, and **read-repairs** it
  from the snapshot, all surfaced through :class:`RouterStats` and
  ``health()``. :meth:`ShardedService.start_scrub` runs this on a
  background cadence.
* ``read_mode="quorum"`` moves the same cross-check onto the query path:
  reads fan out to all live replicas and only a bit-agreed (or
  digest-verified) answer is returned — a diverged replica can be
  *detected and repaired* without ever serving a wrong answer to a
  client.
* ``degraded_mode=True`` (requires ``snapshot_dir``) keeps answering when
  every replica of a site is down: the router restores the last verified
  snapshot parent-side and serves from it, wrapping results in
  :class:`StaleAnswer` (``result.stale`` is ``True``; the wire layer
  forwards the marker) instead of raising ``ServiceUnavailable``.
"""

from __future__ import annotations

import threading
import warnings
import weakref
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.matching import BatchMatchResult, MatchResult
from repro.core.pipeline import UpdateReport
from repro.eval.engine import cached_scenario, worker_context
from repro.serve.manager import SiteManager
from repro.serve.protocol import ServiceUnavailable
from repro.serve.service import LocalizationService, ServiceStats
from repro.serve.snapshot import SnapshotError
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import ScenarioSpec, as_scenario_spec, build_scenario
from repro.sim.trace import LiveTrace
from repro.util.rng import counter_stream, task_key

__all__ = [
    "RouterStats",
    "ShardedService",
    "StaleAnswer",
    "WorkerTimeout",
    "replica_shards",
    "shard_for_site",
]

_READ_MODES = ("failover", "quorum")

#: Longest a close waits for a shard's in-flight respawn (old worker
#: stopped, new one spawned and warmed) before stopping it regardless.
_RESPAWN_WAIT_S = 30.0

#: What :meth:`ShardedService._ask` returns for a worker that could not
#: answer (not ``None``: ``deregister`` answers ``None``, ``drift`` may).
_DOWN = object()

_JUMP_LCG = 2862933555777941757
_MASK64 = (1 << 64) - 1


class WorkerTimeout(TimeoutError):
    """A worker gave no reply within the router's call timeout.

    The pipe is desynchronized once a reply is abandoned (a late reply
    would be mis-attributed to the next call), so a timed-out worker is
    treated exactly like a dead one: marked down, failed over, respawned.
    """


class _ShardConnectionError(ConnectionError):
    """Internal: the pipe to a worker broke (send or receive).

    Distinct from exceptions the worker *returned* (contract errors
    re-raised verbatim), so the router never mistakes a service-level
    ``OSError`` for a transport failure.
    """


def _jump(key: int, shard_count: int) -> int:
    """Jump consistent hash (Lamping & Veach) of a 64-bit key."""
    shard, candidate = 0, 0
    while candidate < shard_count:
        shard = candidate
        key = (key * _JUMP_LCG + 1) & _MASK64
        candidate = int((shard + 1) * ((1 << 31) / ((key >> 33) + 1)))
    return shard


def shard_for_site(site: str, shard_count: int) -> int:
    """The shard owning ``site`` — a pure function of ``(site, count)``.

    Jump consistent hash (Lamping & Veach) over the site name's stable
    64-bit key (:func:`~repro.util.rng.task_key`, which folds a
    process-independent FNV-1a of the name through splitmix64). Same
    inputs, same shard, in every process on every run — the property that
    lets a router and its workers agree on ownership without ever
    exchanging an assignment table.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    return _jump(task_key(0, "serve-shard", str(site)), shard_count)


def replica_shards(site: str, shard_count: int, replicas: int) -> Tuple[int, ...]:
    """The first ``min(replicas, shard_count)`` distinct shards for ``site``.

    Probe 0 is :func:`shard_for_site` (the primary — unchanged from the
    unreplicated layout); probe ``k >= 1`` is a jump hash of the site key
    salted with ``("replica", k)``, skipping shards already chosen. Each
    salted probe is itself a jump consistent hash, so under a resize every
    replica slot independently either stays put or moves to a shard that
    could not have held it before — the fleet never reshuffles wholesale.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    want = min(int(replicas), int(shard_count))
    chosen = [shard_for_site(site, shard_count)]
    salt = 0
    while len(chosen) < want:
        salt += 1
        if salt > 64 * shard_count:  # pragma: no cover - astronomically rare
            # Deterministic fallback: fill from the lowest unused indices.
            for index in range(shard_count):
                if index not in chosen:
                    chosen.append(index)
                if len(chosen) == want:
                    break
            break
        candidate = _jump(
            task_key(0, "serve-shard", str(site), "replica", salt), shard_count
        )
        if candidate not in chosen:
            chosen.append(candidate)
    return tuple(chosen)


@dataclass
class RouterStats:
    """Router-side fault accounting (surfaced through ``health``).

    ``failovers``: reads served past the first replica, and fan-out retries.
    ``timeouts``: worker calls that missed ``call_timeout``.
    ``respawns``: replacement workers that warmed and rejoined.
    ``respawn_failures``: replacement workers that failed to warm.
    ``resizes``: completed :meth:`ShardedService.resize` calls.
    ``scrubs``: completed :meth:`ShardedService.scrub` passes.
    ``scrub_divergences``: scrubbed sites whose answers or digests diverged.
    ``scrub_errors``: background scrub passes that raised.
    ``read_divergences``: quorum reads whose replicas disagreed.
    ``quarantines``: replicas pulled out of the read rotation.
    ``repairs``: verified read-repairs plus replicas rebuilt by ``repair()``.
    ``degraded_answers``: answers served stale from a snapshot.
    """

    failovers: int = 0
    timeouts: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    resizes: int = 0
    scrubs: int = 0
    scrub_divergences: int = 0
    scrub_errors: int = 0
    read_divergences: int = 0
    quarantines: int = 0
    repairs: int = 0
    degraded_answers: int = 0


class StaleAnswer:
    """A query result answered from the last verified snapshot.

    Wraps a :class:`~repro.core.matching.MatchResult` or
    :class:`~repro.core.matching.BatchMatchResult` transparently
    (attribute access, indexing, iteration and ``len`` all delegate) and
    adds ``stale = True`` — the explicit marker degraded-mode serving
    must carry so a client can tell "fresh answer" from "best effort off
    the last snapshot". The wire layer forwards the flag as a ``stale``
    field in the response body.
    """

    stale = True

    def __init__(self, result: Any) -> None:
        self._result = result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._result, name)

    def __len__(self) -> int:
        return len(self._result)

    def __getitem__(self, index):
        return self._result[index]

    def __iter__(self):
        return iter(self._result)

    def __repr__(self) -> str:
        return f"StaleAnswer({self._result!r})"


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _shard_worker_main(connection, specs: Dict[str, dict], kwargs) -> None:
    """Worker loop: one LocalizationService, request/reply over the pipe.

    Module-level so it survives a spawn start method. Replies are
    ``(True, result)`` or ``(False, exception)`` — the router re-raises
    the exception in the parent, preserving the serving error contract
    across the process boundary.

    ``("__fault__", (action, seconds), {})`` messages are the
    fault-injection control channel (see :mod:`repro.serve.faults`):
    ``hang`` stalls the worker before acknowledging (the reply then
    desyncs the pipe — exactly the failure the router's timeout handling
    must absorb), ``delay`` adds latency before every later reply.
    """
    import signal
    import time as _time

    # A forked worker inherits the parent's handlers (``serve`` turns
    # SIGTERM into a graceful stop); the router's terminate() escalation
    # must stay fatal here.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    service = LocalizationService.from_specs(specs, **kwargs)
    reply_delay = 0.0
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        method, args, call_kwargs = message
        if method == "__fault__":
            action = args[0] if args else None
            if action == "hang":
                _time.sleep(float(args[1]) if len(args) > 1 else 0.0)
                connection.send((True, "hung"))
            elif action == "delay":
                reply_delay = float(args[1]) if len(args) > 1 else 0.0
                connection.send((True, "delayed"))
            elif action == "corrupt":
                # Lazy import: faults.py imports this module.
                from repro.serve.faults import corrupt_pipeline_state

                site = args[1] if len(args) > 1 else None
                fault_seed = int(args[2]) if len(args) > 2 else 0
                try:
                    detail = corrupt_pipeline_state(service, site, fault_seed)
                    connection.send((True, detail))
                except Exception as error:  # noqa: BLE001 - forwarded
                    connection.send((False, error))
            else:
                connection.send(
                    (False, ValueError(f"unknown fault action {action!r}"))
                )
            continue
        try:
            result = getattr(service, method)(*args, **call_kwargs)
            if reply_delay > 0.0:
                _time.sleep(reply_delay)
            connection.send((True, result))
        except Exception as error:  # noqa: BLE001 - forwarded to the router
            connection.send((False, error))
    connection.close()


class _Shard:
    """Parent-side handle: one worker process, its pipe, and a call lock.

    Unlike the PR-5 handle this one is *restartable*: :meth:`respawn`
    replaces a dead or hung worker with a fresh process (same sites, same
    manager kwargs — and therefore, with a snapshot directory, the same
    state), and :meth:`close` escalates join → terminate → kill and
    reports which stage finally fired instead of silently falling through
    the timeout. A worker already marked :attr:`dead` skips the join: it
    is signalled at once.
    """

    def __init__(
        self, index: int, context, specs: Dict[str, ScenarioSpec], kwargs
    ) -> None:
        self.index = index
        self._context = context
        self.specs: Dict[str, ScenarioSpec] = dict(specs)
        self.kwargs = dict(kwargs)
        self.lock = threading.Lock()
        self.respawn_lock = threading.Lock()
        self.generation = 0
        self.restarts = 0
        self.dead = False
        self.close_stage: Optional[str] = None
        self._spawn()

    @property
    def sites(self) -> List[str]:
        return list(self.specs)

    def _spawn(self) -> None:
        self.connection, child = self._context.Pipe()
        self.process = self._context.Process(
            target=_shard_worker_main,
            args=(child, dict(self.specs), dict(self.kwargs)),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.dead = False

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def call(
        self, method: str, *args, timeout: Optional[float] = None, **kwargs
    ) -> Any:
        with self.lock:
            try:
                self.connection.send((method, args, kwargs))
                if timeout is not None and not self.connection.poll(timeout):
                    self.dead = True  # a late reply would desync the pipe
                    raise WorkerTimeout(
                        f"shard {self.index} gave no reply to {method!r} "
                        f"within {timeout:g}s"
                    )
                ok, result = self.connection.recv()
            except WorkerTimeout:  # a TimeoutError, so an OSError too
                raise
            except (EOFError, OSError) as error:
                self.dead = True
                raise _ShardConnectionError(
                    f"shard {self.index} pipe failed during {method!r}: "
                    f"{error!r}"
                ) from error
        if not ok:
            raise result
        return result

    def send(self, method: str, *args, **kwargs) -> None:
        """Fire one request without waiting (pair with :meth:`receive`)."""
        self.connection.send((method, args, kwargs))

    def receive(self) -> Any:
        ok, result = self.connection.recv()
        if not ok:
            raise result
        return result

    def respawn(self) -> None:
        """Replace the worker process (caller must hold :attr:`lock`)."""
        self._shutdown(timeout=1.0)
        self._spawn()
        self.generation += 1
        self.restarts += 1

    def close(self, timeout: float = 5.0) -> str:
        """Stop the worker; returns the escalation stage that ended it.

        ``"clean"`` — exited on the shutdown message; ``"terminate"`` —
        needed SIGTERM; ``"kill"`` — needed SIGKILL; ``"leaked"`` — still
        alive after all three (surfaced, never silent); ``"dead"`` — the
        shard was already marked :attr:`dead`, so it was signalled
        without the clean path.
        """
        stage = self._shutdown(timeout=timeout)
        self.close_stage = stage
        self.dead = True
        return stage

    def _shutdown(self, timeout: float) -> str:
        if self.dead:
            # Hung past a call timeout, its pipe broken, or not yet warm
            # after a respawn: not worth waiting on a shutdown reply.
            stage = "dead"
        else:
            stage = "clean"
            try:
                self.connection.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout=timeout)
        if self.process.is_alive():
            if stage == "clean":
                stage = "terminate"
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - defensive
                if stage == "terminate":
                    stage = "kill"
                self.process.kill()
                self.process.join(timeout=timeout)
                if self.process.is_alive():
                    stage = "leaked"
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        return stage


def _close_shards(shards: List[_Shard]) -> Dict[int, str]:
    stages = {}
    for shard in shards:
        # Wait out an in-flight respawn (it closes its worker itself once
        # the service is closed): two threads stopping one process race to
        # reap it, and the loser's join then sees it alive forever.
        waited = shard.respawn_lock.acquire(timeout=_RESPAWN_WAIT_S)
        try:
            stages[shard.index] = shard.close()
        finally:
            if waited:
                shard.respawn_lock.release()
    escalated = {
        index: stage
        for index, stage in stages.items()
        if stage not in ("clean", "dead")
    }
    if escalated:
        warnings.warn(
            f"shard shutdown escalated past the clean path: {escalated}",
            RuntimeWarning,
            stacklevel=2,
        )
    return stages


class ShardedService:
    """Route a site fleet across worker processes, one service per worker.

    Args:
        specs: ``{site: spec}`` (anything
            :func:`~repro.sim.specs.as_scenario_spec` accepts). Resolved
            eagerly so registration errors surface in the parent, not as
            worker crashes.
        shards: Worker process count (>= 1). Workers without sites are
            still started — a router is free to re-register later.
        replicas: Replication factor ``R``: every site is owned by the
            first ``min(R, shards)`` shards of its probe sequence
            (:func:`replica_shards`). Reads fail over down the list;
            updates fan out to all of them.
        snapshot_dir: Forwarded to every worker's manager: commissioned
            state persists there and respawned/moved workers warm from it
            instead of re-surveying (see :mod:`repro.serve.snapshot`).
        auto_respawn: Respawn crashed or timed-out workers in the
            background (on by default). The replacement only rejoins the
            rotation once its sites are warm again.
        call_timeout: Seconds the router waits for a *query-path* reply
            before declaring the worker hung (``None`` = wait forever).
            Mutating calls (warm/update/commission) are never timed out —
            a slow survey is not a fault.
        read_mode: ``"failover"`` (default — reads go to the first live
            replica) or ``"quorum"`` — reads fan out to *every* live
            owning replica and are compared bit-for-bit before answering;
            a divergence is arbitrated against the snapshot digest, the
            diverged replica is quarantined and read-repaired, and only
            the verified answer reaches the caller. With one live replica
            quorum degenerates to failover.
        degraded_mode: Answer for a site whose replicas are *all* down
            from the last verified snapshot (restored parent-side), with
            the result wrapped in :class:`StaleAnswer` instead of raising
            ``ServiceUnavailable``. Requires ``snapshot_dir``.
        scrub_frames: Probe frames per site per scrub pass (the
            anti-entropy sampling depth).
        mp_context: Multiprocessing context override; defaults to
            :func:`repro.eval.engine.worker_context`.
        **manager_kwargs: Forwarded to every worker's
            :class:`~repro.serve.manager.SiteManager` (``seed``,
            ``protocol``, ``config``, ...) — identical kwargs are what
            makes the shard layout invisible in the answers. When
            replication or snapshots are enabled the workers default to
            ``share_pipelines=False`` so replica streams stay in sync
            (override explicitly at your own risk).

    The router is thread-safe (per-shard pipe locks), so the wire
    server's dispatch pool can fan queries out to all workers
    concurrently. For batch
    fan-out from one thread, :meth:`map_query_batch` pipelines requests —
    every shard computes while the others do.
    """

    #: Hint for event-loop front-ends (:mod:`repro.serve.aio`): every
    #: routed call can park on a worker pipe (and its per-shard lock), so
    #: an event loop must dispatch through a thread pool — running it
    #: inline would stall every pipelined request behind one worker.
    wire_dispatch = "offload"

    #: Declared lock-acquisition order, outermost first (enforced by
    #: repro-lint RL-C01): a thread may acquire a lock only while holding
    #: locks that appear *earlier* in this tuple. ``_resize_lock``
    #: serializes topology changes and is always outermost;
    #: ``respawn_lock`` (per ``_Shard``) gates one respawner at a time;
    #: ``_quarantine_lock`` guards the quarantined-replica set; ``lock``
    #: is the per-``_Shard`` pipe lock (multiple instances are only ever
    #: taken together in ascending shard-index order, see
    #: ``_pipelined``); ``_stale_lock`` guards the degraded-mode manager
    #: and is a leaf.
    _LOCK_ORDER = (
        "_resize_lock",
        "respawn_lock",
        "_quarantine_lock",
        "lock",
        "_stale_lock",
    )

    def __init__(
        self,
        specs: Mapping[str, Union[ScenarioSpec, dict, str]],
        shards: int = 2,
        *,
        replicas: int = 1,
        snapshot_dir=None,
        auto_respawn: bool = True,
        call_timeout: Optional[float] = None,
        read_mode: str = "failover",
        degraded_mode: bool = False,
        scrub_frames: int = 8,
        mp_context=None,
        **manager_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if read_mode not in _READ_MODES:
            raise ValueError(
                f"read_mode must be one of {_READ_MODES}, got {read_mode!r}"
            )
        if scrub_frames < 1:
            raise ValueError(f"scrub_frames must be >= 1, got {scrub_frames}")
        if degraded_mode and snapshot_dir is None:
            raise ValueError(
                "degraded_mode answers from snapshots; pass a snapshot_dir"
            )
        resolved = {
            site: as_scenario_spec(spec) for site, spec in specs.items()
        }
        self.shard_count = int(shards)
        self.replica_count = int(replicas)
        self.auto_respawn = bool(auto_respawn)
        self.call_timeout = call_timeout
        self.read_mode = read_mode
        self.degraded_mode = bool(degraded_mode)
        self.scrub_frames = int(scrub_frames)
        self.snapshot_dir = snapshot_dir
        self.router_stats = RouterStats()
        self._quarantined: Set[Tuple[str, int]] = set()
        self._quarantine_lock = threading.Lock()
        self._scrub_thread: Optional[threading.Thread] = None
        self._scrub_stop = threading.Event()
        self._stale_lock = threading.Lock()
        self._stale_manager: Optional[SiteManager] = None
        self._stale_restored: Dict[str, Tuple[str, int]] = {}
        worker_kwargs = dict(manager_kwargs)
        if snapshot_dir is not None:
            worker_kwargs["snapshot_dir"] = str(snapshot_dir)
        if self.replica_count > 1 or snapshot_dir is not None:
            # Replica (and restore) consistency needs per-site streams.
            worker_kwargs.setdefault("share_pipelines", False)
        self._worker_kwargs = worker_kwargs
        self._specs = resolved
        self.assignment: Dict[str, int] = {
            site: shard_for_site(site, shards) for site in resolved
        }
        self.replicas: Dict[str, Tuple[int, ...]] = {
            site: replica_shards(site, shards, self.replica_count)
            for site in resolved
        }
        self._site_order = list(resolved)
        self._resize_lock = threading.Lock()
        self._closed = False
        context = mp_context if mp_context is not None else worker_context()
        self._context = context
        by_shard: List[Dict[str, ScenarioSpec]] = [{} for _ in range(shards)]
        for site, spec in resolved.items():
            for index in self.replicas[site]:
                by_shard[index][site] = spec
        self._shards = [
            _Shard(index, context, shard_specs, dict(worker_kwargs))
            for index, shard_specs in enumerate(by_shard)
        ]
        self._finalizer = weakref.finalize(self, _close_shards, self._shards)

    # ------------------------------------------------------------------
    # routing + failover
    # ------------------------------------------------------------------
    def _replica_order(self, site: str) -> Tuple[int, ...]:
        order = self.replicas.get(site)
        if order is None:
            known = ", ".join(self._site_order) or "<none>"
            raise KeyError(f"unknown site {site!r}; registered: {known}")
        return order

    # ------------------------------------------------------------------
    # quarantine bookkeeping (anti-entropy)
    # ------------------------------------------------------------------
    def _is_quarantined(self, site: str, index: int) -> bool:
        with self._quarantine_lock:
            return (site, index) in self._quarantined

    def _quarantine(self, site: str, index: int) -> bool:
        """Pull one replica of one site out of the read rotation."""
        with self._quarantine_lock:
            if (site, index) in self._quarantined:
                return False
            self._quarantined.add((site, index))
        self.router_stats.quarantines += 1
        return True

    def _unquarantine(self, site: str, index: int) -> None:
        with self._quarantine_lock:
            self._quarantined.discard((site, index))

    def quarantined_replicas(self) -> List[Tuple[str, int]]:
        """``(site, shard_index)`` pairs currently held out of reads."""
        with self._quarantine_lock:
            return sorted(self._quarantined)

    def _trusted(self, site: str) -> Iterator[Tuple[int, int]]:
        """``(position, index)`` of each live, unquarantined replica of
        ``site`` in probe order; each dead replica passed on the way has
        its respawn scheduled."""
        for position, index in enumerate(self._replica_order(site)):
            shard = self._shards[index]
            if not shard.alive():
                self._ensure_respawn(shard)
            elif not self._is_quarantined(site, index):
                yield position, index

    def _lost(self, shard: _Shard, error: BaseException) -> None:
        """A call lost to a broken pipe or a hung worker: count the
        timeout, schedule the respawn."""
        if isinstance(error, WorkerTimeout):
            self.router_stats.timeouts += 1
        self._ensure_respawn(shard)

    def _ask(
        self, shard: _Shard, method: str, *args, timeout: Optional[float] = None
    ) -> Any:
        """One call to one worker, or :data:`_DOWN` when it cannot answer.

        A worker already down is not asked; one whose pipe breaks or that
        misses ``timeout`` is lost. Either way its respawn is scheduled.
        """
        if not shard.alive():
            self._ensure_respawn(shard)
            return _DOWN
        try:
            return shard.call(method, *args, timeout=timeout)
        except (_ShardConnectionError, WorkerTimeout) as error:
            self._lost(shard, error)
            return _DOWN

    def _shard(self, site: str) -> _Shard:
        """First *live, trusted* replica for ``site`` (primary when healthy)."""
        order = self._replica_order(site)
        for position, index in self._trusted(site):
            if position:
                self.router_stats.failovers += 1
            return self._shards[index]
        raise ServiceUnavailable(
            f"site {site!r}: all {len(order)} replica shard(s) "
            f"{list(order)} are down or quarantined (recovery in progress)"
        )

    def _call_route(
        self, site: str, method: str, *args, timeout: Optional[float] = None
    ) -> Any:
        """A read call with transparent failover across the replica list.

        Quarantined replicas are skipped — a replica known to have
        diverged must not serve reads until its repair verifies.
        """
        order = self._replica_order(site)
        last_error: Optional[BaseException] = None
        for position, index in self._trusted(site):
            if position:
                self.router_stats.failovers += 1
            shard = self._shards[index]
            try:
                return shard.call(method, *args, timeout=timeout)
            except (_ShardConnectionError, WorkerTimeout) as error:
                last_error = error
                self._lost(shard, error)
        raise ServiceUnavailable(
            f"site {site!r}: all {len(order)} replica shard(s) "
            f"{list(order)} are unavailable"
        ) from last_error

    def _call_all_replicas(self, site: str, method: str, *args, **kwargs) -> Any:
        """A mutating call applied to *every* owning replica, in order.

        Returns the first replica's result. Requires the full replica set
        to be up and trusted: applying an update to a subset would let
        the missing replica drift (without snapshots, a later respawn
        could not recover the skipped epochs), and applying it to a
        *quarantined* replica would layer a fresh epoch on top of
        corrupted state — so a degraded site refuses refreshes until its
        respawn or repair completes; the scheduler just retries on its
        next tick.

        Serialized against :meth:`resize` (shared ``_resize_lock``): a
        refresh racing a resize could otherwise land on the old replica
        set and silently miss a shard that just gained the site.
        """
        with self._resize_lock:
            order = self._replica_order(site)
            down = [i for i in order if not self._shards[i].alive()]
            if down:
                for index in down:
                    self._ensure_respawn(self._shards[index])
                raise ServiceUnavailable(
                    f"cannot {method} site {site!r}: replica shard(s) {down} "
                    "are down (respawn in progress); retry once recovered"
                )
            held = [i for i in order if self._is_quarantined(site, i)]
            if held:
                raise ServiceUnavailable(
                    f"cannot {method} site {site!r}: replica shard(s) "
                    f"{held} are quarantined pending read-repair; scrub "
                    "or repair them first"
                )
            result: Any = None
            for position, index in enumerate(order):
                shard = self._shards[index]
                try:
                    out = shard.call(method, *args, **kwargs)
                except (_ShardConnectionError, WorkerTimeout) as error:
                    self._lost(shard, error)
                    raise ServiceUnavailable(
                        f"replica shard {index} failed mid-{method} for site "
                        f"{site!r}; its respawn will restore the last "
                        f"snapshotted state"
                    ) from error
                if position == 0:
                    result = out
            return result

    # ------------------------------------------------------------------
    # respawn
    # ------------------------------------------------------------------
    def _ensure_respawn(self, shard: _Shard) -> None:
        if not self.auto_respawn or self._closed:
            return
        if shard.respawn_lock.acquire(blocking=False):
            thread = threading.Thread(
                target=self._respawn_shard,
                args=(shard,),
                daemon=True,
                name=f"shard-{shard.index}-respawn",
            )
            thread.start()

    def _respawn_shard(self, shard: _Shard) -> None:
        """Background recovery: new process, warm it, then rejoin rotation.

        The replacement stays marked down while it warms (queries keep
        failing over to replicas), and only starts taking traffic once
        every one of its sites is materialized — from snapshots in
        milliseconds when a ``snapshot_dir`` is configured, from a
        re-survey otherwise.
        """
        try:
            # A closed shard (the service's, or one a resize retired) stays
            # closed: a late failure report must not bring its worker back.
            if self._closed or shard.close_stage is not None or shard.alive():
                return
            with shard.lock:
                shard.respawn()
                shard.dead = True  # not ready until warm
            try:
                shard.call("warm", list(shard.specs))
            except Exception:  # noqa: BLE001 - recovery is best-effort
                self.router_stats.respawn_failures += 1  # stays marked down
                return
            shard.dead = False
            self.router_stats.respawns += 1
            if self._closed:  # closed while we were warming
                shard.close(timeout=1.0)
        finally:
            shard.respawn_lock.release()

    def close(self) -> None:
        """Stop every worker (idempotent; also runs at garbage collection)."""
        self._closed = True
        self.stop_scrub(timeout=1.0)
        if self._finalizer.detach() is not None:
            _close_shards(self._shards)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def resize(self, shards: int) -> Dict[str, object]:
        """Grow or shrink the fleet to ``shards`` workers, live.

        Jump-consistent placement keeps the move set minimal: only sites
        whose replica set actually changes are handed off. New workers are
        spawned and *warmed first* (snapshot restores make this
        milliseconds), surviving workers register and warm the sites they
        gain, and only then does the routing table flip — queries keep
        answering against the old layout for the whole transition. Lost
        ownership is deregistered after the flip and surplus workers are
        retired through the escalating close path.
        """
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        with self._resize_lock:
            if self._closed:
                raise ServiceUnavailable("service is closed")
            old_count = self.shard_count
            if shards == old_count:
                return {
                    "shards": shards,
                    "moved_sites": [],
                    "spawned": 0,
                    "retired": 0,
                }
            new_replicas = {
                site: replica_shards(site, shards, self.replica_count)
                for site in self._specs
            }
            new_owned: List[Dict[str, ScenarioSpec]] = [
                {} for _ in range(shards)
            ]
            for site, spec in self._specs.items():
                for index in new_replicas[site]:
                    new_owned[index][site] = spec
            moved = sorted(
                site
                for site in self._specs
                if set(new_replicas[site]) != set(self.replicas[site])
            )
            spawned = 0
            for index in range(old_count, shards):
                self._shards.append(
                    _Shard(
                        index,
                        self._context,
                        new_owned[index],
                        dict(self._worker_kwargs),
                    )
                )
                spawned += 1
            # Hand moved-in sites to the surviving workers.
            gained: Dict[int, List[str]] = {}
            for index in range(min(old_count, shards)):
                shard = self._shards[index]
                fresh = [s for s in new_owned[index] if s not in shard.specs]
                for site in fresh:
                    shard.call("register", site, self._specs[site])
                    shard.specs[site] = self._specs[site]
                if fresh:
                    gained[index] = fresh
            # Warm every new ownership before it takes traffic.
            warm_calls = [
                (self._shards[index], "warm", (sites,))
                for index, sites in sorted(gained.items())
            ] + [
                (self._shards[index], "warm", (list(new_owned[index]),))
                for index in range(old_count, shards)
                if new_owned[index]
            ]
            try:
                self._pipelined(warm_calls)
            except ServiceUnavailable as error:
                raise ServiceUnavailable(
                    "resize aborted: a worker died while warming the new layout"
                ) from error
            # Flip the routing table — this is the atomic cutover.
            self.assignment = {
                site: new_replicas[site][0] for site in self._specs
            }
            self.replicas = new_replicas
            self.shard_count = shards
            # Release what moved away, retire surplus workers.
            for index in range(min(old_count, shards)):
                shard = self._shards[index]
                lost = [s for s in list(shard.specs) if s not in new_owned[index]]
                for site in lost:
                    if self._ask(shard, "deregister", site) is _DOWN:
                        break
                    shard.specs.pop(site, None)
            # Retire through _close_shards, which waits out an in-flight
            # respawn: closing under it would leave its new worker running.
            surplus = self._shards[shards:]
            del self._shards[shards:]
            _close_shards(surplus)
            retired = len(surplus)
            # Quarantine entries are (site, shard) pairs against the old
            # layout; drop any that no longer name an owning replica.
            with self._quarantine_lock:
                self._quarantined = {
                    (site, index)
                    for site, index in self._quarantined
                    if site in self.replicas and index in self.replicas[site]
                }
            self.router_stats.resizes += 1
            return {
                "shards": shards,
                "moved_sites": moved,
                "spawned": spawned,
                "retired": retired,
            }

    # ------------------------------------------------------------------
    # the service surface (same names the protocol dispatches on)
    # ------------------------------------------------------------------
    def sites(self) -> List[str]:
        return list(self._site_order)

    def _pipelined_raw(
        self, calls: Sequence[Tuple[_Shard, str, tuple]]
    ) -> Tuple[List[Any], List[int], Optional[BaseException]]:
        """Fan ``(shard, method, args)`` calls out, replies in call order.

        The careful part is failure behavior: locks are acquired in shard
        index order (so two concurrent multi-shard fan-outs cannot
        deadlock on lock-order inversion), every request is sent before
        any reply is awaited (shards overlap compute), and when one call
        fails every *other* healthy reply is still drained before
        returning — otherwise a stale reply would desync the pipe and
        every later call on that shard would return the previous call's
        result. A shard whose pipe breaks mid-fan-out is marked dead and
        skipped for the rest of the round; its call indices come back in
        the *failed* list so the caller can retry them on replicas (after
        the locks are released). The first contract error (an exception
        the worker returned) comes back as *failure* for the caller to
        re-raise.
        """
        involved = sorted(
            {shard.index: shard for shard, _, _ in calls}.values(),
            key=lambda shard: shard.index,
        )
        for shard in involved:
            shard.lock.acquire()
        try:
            failure: Optional[BaseException] = None
            dead: set = set()
            failed: List[int] = []
            pending: List[Optional[_Shard]] = []
            for position, (shard, method, args) in enumerate(calls):
                if shard.index in dead or not shard.alive():
                    shard.dead = True
                    dead.add(shard.index)
                    failed.append(position)
                    pending.append(None)
                    continue
                try:
                    shard.send(method, *args)
                    pending.append(shard)
                except OSError:
                    shard.dead = True
                    dead.add(shard.index)
                    failed.append(position)
                    pending.append(None)
            results: List[Any] = []
            for position, shard in enumerate(pending):
                if shard is None or shard.index in dead:
                    results.append(None)
                    if shard is not None and position not in failed:
                        failed.append(position)
                    continue
                try:
                    results.append(shard.receive())
                except (EOFError, OSError):
                    # Broken pipe: the shard's remaining replies will
                    # never arrive — stop waiting for them.
                    shard.dead = True
                    dead.add(shard.index)
                    failed.append(position)
                    results.append(None)
                except Exception as error:  # noqa: BLE001 - drain first
                    failure = failure if failure is not None else error
                    results.append(None)
            return results, sorted(failed), failure
        finally:
            for shard in involved:
                shard.lock.release()

    def _pipelined(self, calls: Sequence[Tuple[_Shard, str, tuple]]) -> List[Any]:
        """Strict fan-out: any failure (transport or contract) raises."""
        results, failed, failure = self._pipelined_raw(calls)
        if failure is not None:
            raise failure
        if failed:
            raise ServiceUnavailable(
                f"worker died mid-fan-out; {len(failed)} call(s) lost"
            )
        return results

    def warm(self, sites: Optional[Iterable[str]] = None) -> List[str]:
        """Materialize pipelines on every owning worker, concurrently.

        Requests are pipelined — each shard commissions its own sites
        while the others do the same — so warm-up wall time scales with
        the busiest shard, not the site count (the shard scaling lever
        the benchmark measures). With replication every owning worker
        warms its copy.
        """
        names = list(sites) if sites is not None else self.sites()
        per_shard: Dict[int, List[str]] = {}
        for site in names:
            for index in self._replica_order(site):  # KeyError when unknown
                per_shard.setdefault(index, []).append(site)
        self._pipelined(
            [
                (self._shards[index], "warm", (batch,))
                for index, batch in sorted(per_shard.items())
            ]
        )
        return names

    def query(self, site: str, live_rss: np.ndarray, day: float) -> MatchResult:
        return self._read(site, "query", (site, live_rss, day))

    def query_batch(
        self, site: str, frames: np.ndarray, day: float
    ) -> BatchMatchResult:
        return self._read(site, "query_batch", (site, frames, day))

    def query_trace(self, site: str, trace: LiveTrace) -> BatchMatchResult:
        return self._read(site, "query_trace", (site, trace))

    # ------------------------------------------------------------------
    # trusted reads: quorum cross-checking + degraded-mode fallback
    # ------------------------------------------------------------------
    def _read(self, site: str, method: str, args: tuple) -> Any:
        """One query through the configured trust policy.

        ``failover``: first live replica answers. ``quorum``: every live
        replica answers and the bits must agree (divergence is arbitrated
        and repaired before returning — see :meth:`_resolve_divergence`).
        Either way, when no replica can answer and ``degraded_mode`` is
        on, the router falls back to serving from the last snapshot.
        """
        try:
            if self.read_mode == "quorum":
                return self._quorum_read(site, method, args)
            return self._call_route(
                site, method, *args, timeout=self.call_timeout
            )
        except ServiceUnavailable:
            if not self.degraded_mode:
                raise
            return self._degraded_answer(site, method, args)

    @staticmethod
    def _result_signature(result: Any) -> Tuple:
        """A hashable byte-exact fingerprint of a query result.

        Covers every array/scalar field of ``MatchResult`` and
        ``BatchMatchResult``; two results compare equal here iff a client
        could not tell them apart — the comparison quorum reads and the
        scrub both rely on.
        """
        parts = []
        for name in ("cell", "cells", "position", "positions", "scores"):
            value = getattr(result, name, None)
            if value is None:
                continue
            array = np.asarray(value)
            parts.append((name, array.dtype.str, array.shape, array.tobytes()))
        return tuple(parts)

    def _fan_out(
        self, indices: Sequence[int], method: str, args: tuple
    ) -> List[Tuple[int, Any]]:
        """One pipelined call to each replica, as ``(index, answer)`` pairs.

        A contract error re-raises (it is identical on honest replicas); a
        replica lost in transit is left out and its respawn scheduled.
        """
        results, failed, failure = self._pipelined_raw(
            [(self._shards[index], method, args) for index in indices]
        )
        if failure is not None:
            raise failure
        for position in failed:
            self._ensure_respawn(self._shards[indices[position]])
        return [
            (index, results[position])
            for position, index in enumerate(indices)
            if position not in failed
        ]

    def _quorum_read(self, site: str, method: str, args: tuple) -> Any:
        live = [index for _, index in self._trusted(site)]
        # One live replica has nothing to cross-check: plain failover.
        good = self._fan_out(live, method, args) if len(live) > 1 else []
        if not good:
            return self._call_route(
                site, method, *args, timeout=self.call_timeout
            )
        signatures = {self._result_signature(result) for _, result in good}
        if len(signatures) == 1:
            return good[0][1]
        return self._resolve_divergence(site, good)

    def _verify_replicas(
        self, site: str, indices: Iterable[int]
    ) -> Dict[int, Optional[bool]]:
        """Each replica's digest verdict (its live state vs. the snapshot)."""
        verdicts: Dict[int, Optional[bool]] = {}
        for index in indices:
            verdict = self._ask(
                self._shards[index], "verify_site", site, timeout=self.call_timeout
            )
            verdicts[index] = None if verdict is _DOWN else verdict.get("matches")
        return verdicts

    @classmethod
    def _suspects(
        cls,
        good: List[Tuple[int, Any]],
        verdicts: Dict[int, Optional[bool]],
    ) -> Tuple[Any, List[int]]:
        """Arbitrate diverged answers: the one to trust, the replicas to blame.

        A replica whose live digest matches the snapshot digest is
        trusted outright (the snapshot is checksummed, content-addressed
        state). Without digest evidence, the largest bit-identical group
        wins; ties go to the replica earliest in probe order (the
        primary-most one). Blame needs evidence: a replica whose answer
        differs is blamed only when the chosen answer is digest-verified,
        when it holds a strict majority, or when the replica's own digest
        check failed; an unarbitrable tie (two replicas, no snapshot)
        blames no one.
        """
        groups: Dict[Tuple, List[int]] = {}
        for slot, (_, result) in enumerate(good):
            groups.setdefault(cls._result_signature(result), []).append(slot)
        verified = [
            slot for slot, (index, _) in enumerate(good) if verdicts.get(index) is True
        ]
        largest = min(groups.values(), key=lambda group: (-len(group), group[0]))
        answer = good[verified[0] if verified else largest[0]][1]
        agreeing = groups[cls._result_signature(answer)]
        can_blame = bool(verified) or len(agreeing) * 2 > len(good)
        return answer, [
            index
            for slot, (index, _) in enumerate(good)
            if slot not in agreeing
            and (can_blame or verdicts.get(index) is False)
        ]

    def _resolve_divergence(
        self, site: str, good: List[Tuple[int, Any]]
    ) -> Any:
        """Replicas disagreed bit-for-bit: arbitrate, repair, answer true.

        The client always receives the verified (or majority) answer —
        the divergence costs repair work, never a wrong response. Only
        the replicas :meth:`_suspects` blames are quarantined; an
        unarbitrable tie (two replicas, no snapshot) answers primary-side
        and alarms only.
        """
        self.router_stats.read_divergences += 1
        verdicts = self._verify_replicas(site, [index for index, _ in good])
        answer, suspects = self._suspects(good, verdicts)
        for index in suspects:
            self._quarantine(site, index)
            self._repair_replica(site, index)
        return answer

    def _repair_replica(self, site: str, index: int) -> bool:
        """Read-repair one quarantined replica; unquarantine on success.

        The worker rebuilds the site from authoritative state (newest
        valid snapshot, else a deterministic re-survey) and the repair
        only counts — and the replica only rejoins the rotation — once
        its digest re-verifies (or there is no snapshot to verify
        against, in which case the deterministic rebuild is the best
        truth available).
        """
        shard = self._shards[index]
        if self._ask(shard, "repair", site) is _DOWN:
            return False
        verdict = self._ask(shard, "verify_site", site, timeout=self.call_timeout)
        if verdict is _DOWN or verdict.get("matches") is False:
            return False  # still diverged: stays quarantined for the scrub
        self._unquarantine(site, index)
        self.router_stats.repairs += 1
        return True

    def _degraded_answer(self, site: str, method: str, args: tuple) -> Any:
        """Serve one query from the last snapshot, marked ``stale``.

        The parent-side stale manager restores the site's newest snapshot
        (re-restoring whenever the file on disk changes, so a repair or a
        fresh maintenance pass is picked up) and answers locally. Raises
        the original ``ServiceUnavailable`` shape when no usable snapshot
        exists — degraded mode widens availability, it never invents
        answers.
        """
        try:
            with self._stale_lock:
                manager = self._stale()
                store = manager.snapshot_store
                latest = store.latest(manager.snapshot_path(site))
                if latest is None:
                    raise ServiceUnavailable(
                        f"site {site!r}: every replica is down and no "
                        "snapshot exists to answer from"
                    )
                stamp = (str(latest), latest.stat().st_mtime_ns)
                if self._stale_restored.get(site) != stamp:
                    manager.restore_site(site, refresh=True)
                    self._stale_restored[site] = stamp
                system = manager.pipeline(site)
                if method == "query":
                    _, live_rss, day = args
                    result = system.localize(live_rss, day)
                elif method == "query_batch":
                    _, frames, day = args
                    result = system.localize_batch(frames, day)
                else:
                    _, trace = args
                    result = system.localize_trace(trace)
        except SnapshotError as error:
            raise ServiceUnavailable(
                f"site {site!r}: every replica is down and its snapshot "
                f"is unusable ({error})"
            ) from error
        self.router_stats.degraded_answers += 1
        return StaleAnswer(result)

    def _stale(self) -> SiteManager:
        """The parent-side stale-serving manager (caller holds the lock)."""
        if self._stale_manager is None:
            manager = SiteManager(**self._worker_kwargs)
            for site, spec in self._specs.items():
                manager.register(site, spec)
            self._stale_manager = manager
        else:
            manager = self._stale_manager
            for site, spec in self._specs.items():
                if site not in manager:
                    manager.register(site, spec)
        return self._stale_manager

    def map_query_batch(
        self, requests: Sequence[Tuple[str, np.ndarray, float]]
    ) -> List[BatchMatchResult]:
        """Answer many ``(site, frames, day)`` batches, shards in parallel.

        Requests are sent to every owning worker before any reply is
        awaited, so shards overlap their compute; within one shard,
        requests keep their relative order. Results come back in request
        order. One bad request raises after every shard has drained (see
        :meth:`_pipelined_raw`), so the pipes stay in sync. Requests lost
        to a worker crash mid-fan-out are retried on the site's replicas
        instead of raising — with ``R >= 2`` a ``kill -9`` in the middle
        of a fan-out costs latency, not answers.
        """
        requests = list(requests)
        calls = [
            (self._shard(site), "query_batch", (site, frames, day))
            for site, frames, day in requests
        ]
        results, failed, failure = self._pipelined_raw(calls)
        if failure is not None:
            raise failure
        for position in failed:
            site, frames, day = requests[position]
            self.router_stats.failovers += 1
            results[position] = self._call_route(
                site, "query_batch", site, frames, day,
                timeout=self.call_timeout,
            )
        return results

    # ------------------------------------------------------------------
    # anti-entropy scrub
    # ------------------------------------------------------------------
    def _scrub_workload(
        self, site: str, day: float, frames: int
    ) -> np.ndarray:
        """Deterministic probe frames for ``site`` at ``day``.

        Drawn from a parent-side stream family (``"scrub-*"``) disjoint
        from every serving stream, so scrubbing never perturbs worker
        state. The frames don't need to match any survey draw — they only
        need to be byte-identical across the replicas being compared,
        which the parent guarantees by sending one array to all of them.
        """
        spec = self._specs[site]
        scenario = cached_scenario(spec, build_scenario)
        seed = int(self._worker_kwargs.get("seed", 0))
        protocol = self._worker_kwargs.get("protocol")
        if protocol is None:
            protocol = CollectionProtocol()
        cells = counter_stream(task_key(seed, "scrub-cells", site), 0).integers(
            0, scenario.deployment.cell_count, size=int(frames)
        )
        collector = RssCollector(
            scenario, protocol, seed=task_key(seed, "scrub-frames", site)
        )
        return collector.live_trace(float(day), cells).rss

    def scrub(
        self,
        sites: Optional[Iterable[str]] = None,
        frames: Optional[int] = None,
    ) -> Dict[str, object]:
        """One anti-entropy pass: probe, compare, quarantine, repair.

        For every site (or the given subset): send one identical probe
        batch to each live owning replica, compare the answers
        bit-for-bit, and digest-check each replica against the
        authoritative snapshot. Any divergence alarms
        (``router_stats.scrub_divergences``), quarantines the diverged
        replica and read-repairs it from the snapshot — then verifies the
        repair before letting the replica serve again. Sites with no live
        replica, or not yet commissioned, are reported as skipped (the
        respawn path owns dead workers; the scrub owns *lying* ones).
        """
        names = list(sites) if sites is not None else self.sites()
        depth = int(frames) if frames is not None else self.scrub_frames
        report: Dict[str, object] = {
            "sites_checked": 0,
            "skipped": [],
            "divergent_sites": [],
            "quarantined": 0,
            "repaired": 0,
        }
        for site in names:
            outcome = self._scrub_site(site, depth)
            if outcome["status"] == "skipped":
                report["skipped"].append(site)
                continue
            report["sites_checked"] += 1
            if outcome["status"] == "diverged":
                report["divergent_sites"].append(site)
                report["quarantined"] += outcome["quarantined"]
                report["repaired"] += outcome["repaired"]
        self.router_stats.scrubs += 1
        return report

    def _scrub_site(self, site: str, frames: int) -> Dict[str, object]:
        order = self._replica_order(site)
        live: List[int] = []
        for index in order:
            shard = self._shards[index]
            if shard.alive():
                live.append(index)
            else:
                self._ensure_respawn(shard)
        if not live:
            return {"site": site, "status": "skipped"}
        summary = self._ask(
            self._shards[live[0]], "site_summary", site, timeout=self.call_timeout
        )
        if summary is _DOWN or summary.get("last_day") is None:
            return {"site": site, "status": "skipped"}  # lost, or a cold site
        day = float(summary["last_day"])
        rss = self._scrub_workload(site, day, frames)
        good = self._fan_out(live, "query_batch", (site, rss, day))
        if not good:
            return {"site": site, "status": "skipped"}
        verdicts = self._verify_replicas(site, [index for index, _ in good])
        signatures = {self._result_signature(result) for _, result in good}
        bad_digest = sorted(
            index for index, verdict in verdicts.items() if verdict is False
        )
        if len(signatures) == 1 and not bad_digest:
            return {"site": site, "status": "clean", "replicas": len(good)}
        # Divergence: either the answers split, or a replica's state
        # digest failed even though the probe answers happened to agree
        # (corruption in state the probe didn't exercise).
        self.router_stats.scrub_divergences += 1
        if len(signatures) > 1:
            suspects = self._suspects(good, verdicts)[1]
        else:
            suspects = bad_digest
        quarantined = repaired = 0
        for index in suspects:
            if self._quarantine(site, index):
                quarantined += 1
            if self._repair_replica(site, index):
                repaired += 1
        return {
            "site": site,
            "status": "diverged",
            "replicas": len(good),
            "quarantined": quarantined,
            "repaired": repaired,
        }

    def start_scrub(
        self, interval_seconds: float = 30.0
    ) -> "ShardedService":
        """Run :meth:`scrub` on a daemon thread every ``interval_seconds``.

        Errors are counted (``router_stats.scrub_errors``) and do not
        kill the loop — background verification must not take the fleet
        down with it.
        """
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        if self._scrub_thread is not None:
            raise RuntimeError("scrub is already running")
        self._scrub_stop.clear()

        def loop() -> None:
            while not self._scrub_stop.wait(interval_seconds):
                try:
                    self.scrub()
                except Exception:  # noqa: BLE001 - keep the verifier alive
                    self.router_stats.scrub_errors += 1

        self._scrub_thread = threading.Thread(
            target=loop, daemon=True, name="shard-scrub"
        )
        self._scrub_thread.start()
        return self

    def stop_scrub(self, timeout: float = 5.0) -> None:
        """Stop the background scrub thread (idempotent)."""
        self._scrub_stop.set()
        thread = self._scrub_thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._scrub_thread = None

    # ------------------------------------------------------------------
    # anti-entropy surface (mirrors the in-process service's methods)
    # ------------------------------------------------------------------
    def drift(
        self, site: str, day: float, frames: int = 32
    ) -> Optional[Dict[str, float]]:
        """Measured drift for ``site`` (first trusted replica answers)."""
        return self._call_route(
            site, "drift", site, day, frames, timeout=self.call_timeout
        )

    def verify_site(self, site: str) -> Dict[str, object]:
        """Every live replica's digest verdict for ``site``."""
        rows: Dict[str, object] = {}
        for index in self._replica_order(site):
            row = self._ask(
                self._shards[index], "verify_site", site, timeout=self.call_timeout
            )
            rows[str(index)] = None if row is _DOWN else row
        return {"site": site, "replicas": rows}

    def repair(self, site: str) -> Dict[str, object]:
        """Rebuild ``site`` from authoritative state on every live replica."""
        rows: Dict[str, object] = {}
        for index in self._replica_order(site):
            row = self._ask(self._shards[index], "repair", site)
            if row is _DOWN:
                continue
            rows[str(index)] = row
            self._unquarantine(site, index)
            self.router_stats.repairs += 1
        return {"site": site, "replicas": rows}

    def snapshot_maintenance(self) -> Dict[str, object]:
        """One snapshot lifecycle pass across every reachable worker.

        Each worker saves its commissioned sites (digest-idempotent, so
        replicas sharing the directory don't churn duplicate versions),
        scrubs the shared directory and compacts per the retention
        policy; the reports are summed.
        """
        totals: Dict[str, object] = {
            "enabled": False,
            "written": 0,
            "checked": 0,
            "corrupt": 0,
            "files_removed": 0,
            "bytes_reclaimed": 0,
            "total_bytes": 0,
        }
        for shard in self._shards:
            report = self._ask(shard, "snapshot_maintenance")
            if report is _DOWN or not report.get("enabled"):
                continue
            totals["enabled"] = True
            for key in (
                "written",
                "checked",
                "corrupt",
                "files_removed",
                "bytes_reclaimed",
            ):
                totals[key] += int(report[key])
            totals["total_bytes"] = int(report["total_bytes"])
        return totals

    def update(
        self, site: str, day: float, *, cold: str = "raise"
    ) -> Optional[UpdateReport]:
        return self._call_all_replicas(site, "update", site, day, cold=cold)

    def commission(self, site: str, day: float) -> None:
        return self._call_all_replicas(site, "commission", site, day)

    def staleness(self, site: str, day: float) -> Optional[float]:
        return self._call_route(
            site, "staleness", site, day, timeout=self.call_timeout
        )

    def site_summary(self, site: str) -> Dict[str, object]:
        return self._call_route(
            site, "site_summary", site, timeout=self.call_timeout
        )

    def summary(self) -> List[Dict[str, object]]:
        return [self.site_summary(site) for site in self.sites()]

    def service_stats(self) -> ServiceStats:
        """Aggregated query counters across every *reachable* worker.

        A down worker's counters are simply absent from the aggregate (it
        cannot be asked); degraded numbers beat an exception here because
        schedulers poll this to rank refresh priorities.
        """
        totals = ServiceStats()
        for shard in self._shards:
            stats = self._ask(shard, "service_stats", timeout=self.call_timeout)
            if stats is _DOWN:
                continue
            totals.queries += stats.queries
            totals.frames += stats.frames
            for site, frames in stats.frames_by_site.items():
                totals.frames_by_site[site] = (
                    totals.frames_by_site.get(site, 0) + frames
                )
        return totals

    def health(self) -> Dict[str, object]:
        """Fleet liveness: per-shard status and per-site replica cover.

        ``status`` is ``"ok"`` when every worker is up, ``"degraded"``
        when some are down but every site still has a live replica, and
        ``"unavailable"`` when at least one site has none. The body is
        JSON-plain and flows through the wire ``health`` method unchanged.
        """
        shard_rows = []
        for shard in self._shards:
            if not shard.alive():
                # Monitoring drives recovery: a crashed *secondary* is
                # invisible to the read path (reads stop at the first
                # live replica), so the health poll is what notices it.
                self._ensure_respawn(shard)
            shard_rows.append(
                {
                    "index": shard.index,
                    "alive": shard.alive(),
                    "sites": len(shard.specs),
                    "generation": shard.generation,
                    "restarts": shard.restarts,
                }
            )
        down = [row["index"] for row in shard_rows if not row["alive"]]
        quarantined = self.quarantined_replicas()
        site_rows: Dict[str, Dict[str, object]] = {}
        uncovered: List[str] = []
        for site in self._site_order:
            order = self.replicas[site]
            available = sum(1 for _ in self._trusted(site))
            if available == 0:
                uncovered.append(site)
            site_rows[site] = {
                "primary": self.assignment[site],
                "replicas": list(order),
                "available": available,
            }
        # A site with no serving replica can still answer (stale) when
        # degraded mode is on and a snapshot exists for it.
        stale_capable: List[str] = []
        if self.degraded_mode and uncovered:
            with self._stale_lock:
                manager = self._stale()
                stale_capable = [
                    site for site in uncovered if manager.has_snapshot(site)
                ]
        status = "ok"
        if uncovered:
            status = (
                "degraded"
                if len(stale_capable) == len(uncovered)
                else "unavailable"
            )
        elif down or quarantined:
            status = "degraded"
        return {
            "status": status,
            "sites": len(self._site_order),
            "shard_count": self.shard_count,
            "replicas": self.replica_count,
            "down_shards": down,
            "shards": shard_rows,
            "site_replicas": site_rows,
            "router": asdict(self.router_stats),
            "anti_entropy": {
                "read_mode": self.read_mode,
                "degraded_mode": self.degraded_mode,
                "quarantined": [
                    [site, index] for site, index in quarantined
                ],
                "stale_capable": stale_capable,
            },
        }
