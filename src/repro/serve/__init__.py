"""Serving layer: many scenario realizations behind one query surface.

:class:`~repro.serve.manager.SiteManager` registers named sites and lazily
materializes one commissioned :class:`~repro.core.pipeline.TafLoc` pipeline
per distinct scenario spec (shared by fingerprint);
:class:`~repro.serve.service.LocalizationService` routes
``(site, day, RSS)`` queries to the right pipeline and answers them through
the batch matching kernels. On top of the in-process service sit the
deployment pieces:

* :mod:`repro.serve.aio` — the one wire server,
  :class:`~repro.serve.aio.AioFrontend`: an asyncio event loop answering
  HTTP/1.1 and pipelined NDJSON on one TCP port (plus an optional unix
  socket), streamed ``query_trace``, plus
  :class:`~repro.serve.aio.AsyncServiceClient` (N requests in flight per
  connection);
* :mod:`repro.serve.frontend` — the sync
  :class:`~repro.serve.frontend.ServiceClient` (``http://``, ``tcp://``,
  ``unix://``) with its retry policy;
* :mod:`repro.serve.scheduler` — staleness-driven background fingerprint
  refresh (interval / round-robin / priority / drift policies) plus the
  snapshot-lifecycle cadence;
* :mod:`repro.serve.sentinel` — the measured-drift probe (held-out
  frames scored against the live database, independent of the model
  being judged);
* :mod:`repro.serve.snapshot` — the on-disk fingerprint snapshot format
  and :class:`~repro.serve.snapshot.SnapshotStore` lifecycle (versioned
  writes, keep-last-K retention, digest-verifying scrub, compaction);
* :mod:`repro.serve.shard` — site partitioning across worker processes
  with a pure-routing front-end, bit-identical for any shard count, plus
  the anti-entropy trust layer (background scrub, quorum reads,
  quarantine + read-repair, degraded-mode snapshot serving).

The CI gates asserting wire and shard answers equal the in-process
service bit for bit, under every fault, are the smoke gates of the
``frontend``, ``frontend_async``, ``resilience`` and ``trust`` sections
of :mod:`repro.eval.bench` (``make frontend-smoke`` /
``make resilience-smoke``).

See ``tafloc-repro serve --listen`` / ``query --connect`` for the CLI
surface and ``benchmarks/bench_perf.py`` for throughput numbers.
"""

from repro.serve.aio import AioFrontend, AsyncServiceClient
from repro.serve.frontend import (
    RemoteBatchResult,
    RemoteMatchResult,
    ServiceClient,
)
from repro.serve.manager import (
    SiteManager,
    SiteManagerStats,
    pipeline_seed,
    reconstructor_seed,
)
from repro.serve.scheduler import (
    SchedulerConfig,
    SimClock,
    UpdateAction,
    UpdateScheduler,
)
from repro.serve.sentinel import DriftReading, measure_drift, probe_seed
from repro.serve.service import LocalizationService, ServiceStats
from repro.serve.shard import ShardedService, StaleAnswer, shard_for_site
from repro.serve.snapshot import SnapshotStore, epochs_digest

__all__ = [
    "AioFrontend",
    "AsyncServiceClient",
    "DriftReading",
    "LocalizationService",
    "RemoteBatchResult",
    "RemoteMatchResult",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceStats",
    "ShardedService",
    "SimClock",
    "SiteManager",
    "SiteManagerStats",
    "SnapshotStore",
    "StaleAnswer",
    "UpdateAction",
    "UpdateScheduler",
    "epochs_digest",
    "measure_drift",
    "pipeline_seed",
    "probe_seed",
    "reconstructor_seed",
    "shard_for_site",
]
