"""repro-lint: AST-based invariant checking for this reproduction.

The test suite proves the system's guarantees *end to end* (bit-identity
gates, resilience smoke); this package proves the *conventions that make
those guarantees hold* at analysis time, before any test runs:

* **Determinism** (RL-D01..D03) — all randomness flows through seeded
  ``util/rng.py`` plumbing, deterministic modules never read wall
  clocks, nothing numerically accumulates over set iteration order.
* **Concurrency** (RL-C01..C03) — nested lock acquisitions follow each
  class's declared ``_LOCK_ORDER``, nothing blocks the asyncio event
  loop, every thread is named and daemonized-or-joined.
* **Wire contract** (RL-W01) — ``protocol.METHODS``, the handler
  table and the handlers' error contracts move in lockstep.

Entry points: ``python -m repro.analysis``, ``tafloc-repro analyze``,
``make analyze``. See :mod:`repro.analysis.engine` for suppression
comments and :mod:`repro.analysis.baseline` for the grandfathering
workflow.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, BaselineError
from repro.analysis.engine import (
    Engine,
    Project,
    Report,
    Rule,
    SourceFile,
    load_project,
    load_source,
)
from repro.analysis.findings import Finding, Fingerprint
from repro.analysis.rules import all_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "Engine",
    "Finding",
    "Fingerprint",
    "Project",
    "Report",
    "Rule",
    "SourceFile",
    "all_rules",
    "load_project",
    "load_source",
]
