"""Fault injection: kill, hang, and delay the serving fleet on purpose.

The resilience claims of the sharded router (:mod:`repro.serve.shard`) —
zero failed queries under ``kill -9`` with ``R >= 2``, bounded recovery
time, snapshot-warmed respawns — are only claims until something actually
kills the workers. This module is that something, in three layers:

* :class:`FaultInjector` attacks a live :class:`ShardedService` at the
  *process* level: ``kill`` (SIGKILL, the disorderly crash), ``hang``
  (the worker stalls mid-protocol, exercising the router's timeout +
  pipe-desync handling), ``delay`` (every later reply is slowed,
  perturbing tail latency without failing anything), and ``corrupt``
  (a seed-deterministic bit-flip in one replica's live fingerprint
  state — the worker keeps answering, *wrongly*, which only the
  anti-entropy scrub / quorum read path can catch).
* :class:`FlakyService` wraps any service backend at the *wire* level:
  it drops or delays responses per the schedule, raising
  :class:`~repro.serve.protocol.DropResponse` which the transports
  translate into a severed connection — the client-side retry path's
  test double.
* :class:`FaultSchedule` makes runs reproducible: a seed-driven plan of
  ``(operation index, action)`` events derived from the same
  :func:`~repro.util.rng.task_key` streams as everything else in the
  repo, so a resilience benchmark with seed 2016 injects the same faults
  on every machine.

Everything here is test/benchmark machinery — production code never
imports it — but it lives in ``src`` because the ``resilience`` and
``trust`` gate sections (:func:`repro.eval.bench.bench_resilience`,
:func:`repro.eval.bench.bench_trust`), whose smoke gates are the CI
resilience gate, drive it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.protocol import DropResponse
from repro.serve.shard import ShardedService
from repro.util.rng import counter_stream, task_key

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FlakyService",
    "corrupt_pipeline_state",
    "corrupt_snapshot_file",
]

#: Actions a schedule can carry (order fixes the seed→action mapping).
_ACTIONS = ("kill", "hang", "delay", "drop", "corrupt")


def corrupt_pipeline_state(service, site: str, seed: int = 0) -> Dict[str, object]:
    """Bit-flip one value of the site's *live* fingerprint database.

    Runs inside a worker (via the ``__fault__`` control channel): picks a
    seed-deterministic ``(epoch, flat index, mantissa bit)`` and XORs that
    bit of the float64 in place, then bumps the database version so the
    matcher cache rebuilds and queries actually see the corruption. Flips
    only mantissa bits (2..51), so the value stays finite and the
    pipeline keeps answering — plausibly, silently, *wrongly*: exactly the
    failure the anti-entropy scrub exists to catch. Returns what was
    flipped so a test can reason about the blast radius.
    """
    system = service.pipeline(site)
    epochs = system.database.epochs()
    if not epochs:
        raise RuntimeError(f"site {site!r} has no epochs to corrupt")
    draws = counter_stream(
        task_key(int(seed), "corrupt-state", str(site)), 0
    ).integers(0, 2**62, size=3)
    epoch_index = int(draws[0] % len(epochs))
    epoch = epochs[epoch_index]
    flat = int(draws[1] % epoch.values.size)
    bit = 2 + int(draws[2] % 50)  # mantissa-only: value stays finite
    # Index the array in place — the stored matrix may be a
    # non-contiguous view, where reshape(-1) would flip a silent copy.
    coords = np.unravel_index(flat, epoch.values.shape)
    before = float(epoch.values[coords])
    scratch = np.array([before])
    scratch.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
    epoch.values[coords] = scratch[0]
    # The database contents changed behind the version counter's back;
    # bump it so matcher_for_day() drops its cached kernels.
    system.database._version += 1
    return {
        "site": site,
        "epoch": epoch_index,
        "day": float(epoch.day),
        "index": flat,
        "bit": bit,
        "before": before,
        "after": float(epoch.values[coords]),
    }


def corrupt_snapshot_file(path, seed: int = 0) -> Dict[str, object]:
    """Flip one seed-deterministic bit of a snapshot archive on disk.

    The durable-state counterpart of :func:`corrupt_pipeline_state`: the
    file keeps existing and keeps its name, but its digest no longer
    validates — the snapshot store's scrub must detect and quarantine it
    rather than let a later restore load garbage.
    """
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        raise ValueError(f"snapshot {target} is empty; nothing to corrupt")
    draws = counter_stream(
        task_key(int(seed), "corrupt-snapshot", target.name), 0
    ).integers(0, 2**62, size=2)
    offset = int(draws[0] % len(data))
    bit = int(draws[1] % 8)
    data[offset] ^= 1 << bit
    target.write_bytes(bytes(data))
    return {"path": str(target), "offset": offset, "bit": bit}


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: at operation ``at``, do ``action`` to ``target``.

    ``target`` is a shard index for process-level actions and ignored for
    wire-level ones; ``seconds`` parameterizes ``hang``/``delay``.
    """

    at: int
    action: str
    target: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, seed-derived plan of fault events.

    Built by :meth:`generate`: the same ``(seed, operations, shards)``
    always yields the same events, because every draw comes from
    :func:`~repro.util.rng.counter_stream` over a
    :func:`~repro.util.rng.task_key` — the repo-wide recipe for
    reproducible randomness that owns no global state.
    """

    events: Tuple[FaultEvent, ...]

    @classmethod
    def generate(
        cls,
        *,
        seed: int,
        operations: int,
        shards: int,
        faults: int = 3,
        actions: Sequence[str] = ("kill",),
        seconds: float = 0.2,
    ) -> "FaultSchedule":
        """Plan ``faults`` events over ``operations`` serving operations.

        Event times are drawn without replacement from the operation
        range (so two faults never land on the same operation), targets
        uniformly over shards, actions uniformly over ``actions``.
        """
        if operations < 1:
            raise ValueError(f"operations must be >= 1, got {operations}")
        for action in actions:
            if action not in _ACTIONS:
                raise ValueError(
                    f"unknown action {action!r}; known: {', '.join(_ACTIONS)}"
                )
        key = task_key(seed, "serve-faults", operations, shards)
        draws = counter_stream(key, 0).integers(
            0, 2**62, size=3 * max(1, faults)
        )
        events: List[FaultEvent] = []
        taken: set = set()
        position = 0
        for _ in range(max(0, faults)):
            at = int(draws[position] % operations)
            position += 1
            while at in taken:  # linear probe keeps it deterministic
                at = (at + 1) % operations
            taken.add(at)
            target = int(draws[position] % max(1, shards))
            position += 1
            action = actions[int(draws[position] % len(actions))]
            position += 1
            events.append(
                FaultEvent(at=at, action=action, target=target, seconds=seconds)
            )
        events.sort(key=lambda event: event.at)
        return cls(events=tuple(events))

    def at(self, operation: int) -> List[FaultEvent]:
        """The events scheduled for this operation index (usually 0 or 1)."""
        return [event for event in self.events if event.at == operation]


class FaultInjector:
    """Process-level attacks on a live :class:`ShardedService` fleet.

    Keeps a log of what it did (``injections``) so a benchmark can line
    recovery timings up against the fault stream. All methods are safe to
    call on an already-dead shard (a no-op that still logs).
    """

    def __init__(self, service: ShardedService) -> None:
        self.service = service
        self.injections: List[Dict[str, object]] = []

    def _log(self, action: str, target: int, **extra: object) -> None:
        self.injections.append({"action": action, "shard": target, **extra})

    def kill(self, shard_index: int) -> bool:
        """SIGKILL the worker — the disorderly crash (no cleanup, no
        goodbye). Returns whether a live process was actually killed."""
        shard = self.service._shards[shard_index]
        process = shard.process
        killed = False
        if process.is_alive() and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=5.0)
                killed = True
            except (ProcessLookupError, OSError):  # pragma: no cover - raced
                pass
        self._log("kill", shard_index, killed=killed)
        return killed

    def hang(self, shard_index: int, seconds: float) -> bool:
        """Stall the worker for ``seconds`` mid-protocol.

        Fire-and-forget: the ``__fault__`` request is sent but its reply
        is deliberately *not* awaited, so the next router call on this
        shard receives the stale ``"hung"`` acknowledgement — a
        desynchronized pipe, exactly what a stuck worker looks like from
        the parent. The router's ``call_timeout`` is what must catch it.
        """
        shard = self.service._shards[shard_index]
        sent = False
        if shard.alive():
            with shard.lock:
                try:
                    shard.connection.send(("__fault__", ("hang", seconds), {}))
                    sent = True
                except (BrokenPipeError, OSError):  # pragma: no cover - raced
                    pass
        self._log("hang", shard_index, seconds=seconds, sent=sent)
        return sent

    def delay_replies(self, shard_index: int, seconds: float) -> bool:
        """Slow every later reply from the worker by ``seconds``.

        Unlike :meth:`hang` this is awaited (the pipe stays in sync):
        it degrades latency without breaking anything — the tail-latency
        perturbation knob of a :class:`FaultSchedule` ``delay`` event.
        """
        shard = self.service._shards[shard_index]
        applied = False
        if shard.alive():
            try:
                shard.call("__fault__", "delay", seconds)
                applied = True
            except (OSError, TimeoutError):  # pragma: no cover - raced
                pass
        self._log("delay", shard_index, seconds=seconds, applied=applied)
        return applied

    def corrupt(
        self,
        shard_index: int,
        site: Optional[str] = None,
        seed: int = 0,
    ) -> Optional[Dict[str, object]]:
        """Bit-flip one fingerprint value in the worker's live state.

        ``site=None`` picks the shard's first owned site (sorted, so the
        choice is deterministic). The worker keeps serving — with wrong
        bits — until the scrub or a quorum read catches it. Returns the
        worker's flip report, or ``None`` when nothing could be
        corrupted (dead shard, no sites).
        """
        shard = self.service._shards[shard_index]
        target_site = site
        if target_site is None:
            owned = sorted(shard.sites)
            target_site = owned[0] if owned else None
        detail: Optional[Dict[str, object]] = None
        if target_site is not None and shard.alive():
            try:
                detail = shard.call("__fault__", "corrupt", target_site, seed)
            except (OSError, TimeoutError, RuntimeError, KeyError):
                detail = None  # pragma: no cover - raced with a crash
        self._log(
            "corrupt",
            shard_index,
            site=target_site,
            seed=seed,
            detail=detail,
        )
        return detail

    def apply(self, event: FaultEvent) -> None:
        """Apply one schedule event (wire-level actions are skipped —
        they belong to :class:`FlakyService`)."""
        if event.action == "kill":
            self.kill(event.target)
        elif event.action == "hang":
            self.hang(event.target, event.seconds)
        elif event.action == "delay":
            self.delay_replies(event.target, event.seconds)
        elif event.action == "corrupt":
            # Seed the flip off the operation index so two corrupt events
            # in one schedule flip different state.
            self.corrupt(event.target, seed=event.at)


class FlakyService:
    """Wire-level faults: wrap a backend, drop or delay its responses.

    Stands between a front-end and its backend (it forwards *every*
    attribute, so it passes for any service). ``drop_calls`` picks which
    matching calls raise :class:`DropResponse` — which the transport
    handlers translate into a severed connection, making the client
    re-dial and retry — and ``delay_calls`` which ones stall for
    ``delay_seconds`` first (the retry-after-timeout path). Counting is
    per *matching* call (``methods`` filters which count), so a schedule
    like ``drop_calls={0, 2}`` means "sever the 1st and 3rd query".
    """

    def __init__(
        self,
        backend,
        *,
        drop_calls: Iterable[int] = (),
        delay_calls: Iterable[int] = (),
        delay_seconds: float = 0.0,
        methods: Optional[Iterable[str]] = None,
    ) -> None:
        self._backend = backend
        self._drop: FrozenSet[int] = frozenset(int(i) for i in drop_calls)
        self._delay: FrozenSet[int] = frozenset(int(i) for i in delay_calls)
        self._delay_seconds = float(delay_seconds)
        self._methods: Optional[FrozenSet[str]] = (
            None if methods is None else frozenset(methods)
        )
        self.calls = 0
        self.dropped = 0
        self.delayed = 0

    def _flaky(self, name: str):
        inner = getattr(self._backend, name)

        def call(*args, **kwargs):
            index = self.calls
            self.calls += 1
            if index in self._delay and self._delay_seconds > 0.0:
                self.delayed += 1
                time.sleep(self._delay_seconds)
            if index in self._drop:
                self.dropped += 1
                raise DropResponse(
                    f"injected drop: call {index} ({name})"
                )
            return inner(*args, **kwargs)

        return call

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._backend, name)
        if callable(value) and (self._methods is None or name in self._methods):
            return self._flaky(name)
        return value
