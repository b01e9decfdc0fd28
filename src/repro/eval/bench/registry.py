"""The gate-section registry: named sections run by one function.

Each section — ``solve``, ``engine``, ``serving``, ``frontend``,
``frontend_async``, ``resilience``, ``trust``, ``loadgen`` — registers:

* a ``run(seed) -> record`` callable, the seconds-scale run that
  produces the fields its gates read;
* ``smoke_gates(record) -> failures``, the CI gate conditions (an empty
  list is a pass).

:func:`run_perf_bench` runs the sections in registration order under
the section's own name in the report; ``only=`` filters by name (the
``--only`` flag of ``benchmarks/bench_perf.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.eval.bench.common import BENCH_SEED, host_metadata

__all__ = [
    "BenchSection",
    "get_section",
    "register",
    "run_perf_bench",
    "section_names",
    "sections",
    "smoke_failures",
]


@dataclass(frozen=True)
class BenchSection:
    """One registered gate section."""

    name: str
    run: Callable[[int], Dict[str, object]]
    smoke_gates: Callable[[Dict[str, object]], List[str]]


_SECTIONS: Dict[str, BenchSection] = {}


def register(section: BenchSection) -> BenchSection:
    """Add a section; order of registration is run order."""
    if section.name in _SECTIONS:
        raise ValueError(f"bench section {section.name!r} already registered")
    _SECTIONS[section.name] = section
    return section


def sections() -> List[BenchSection]:
    """All registered sections, in registration (= run) order."""
    return list(_SECTIONS.values())


def section_names() -> List[str]:
    return list(_SECTIONS)


def get_section(name: str) -> BenchSection:
    try:
        return _SECTIONS[name]
    except KeyError:
        known = ", ".join(_SECTIONS) or "<none>"
        raise KeyError(
            f"unknown bench section {name!r} (registered: {known})"
        ) from None


def run_perf_bench(
    *, seed: int = BENCH_SEED, only: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Run the registered sections (or those named in ``only``).

    The report carries the ``seed`` and the host's ``environment``
    (``cpu_count``, platform), then one record per section run.
    """
    if only is not None:
        unknown = [name for name in only if name not in _SECTIONS]
        if unknown:
            known = ", ".join(_SECTIONS)
            raise ValueError(
                f"unknown bench section(s) {unknown} (registered: {known})"
            )
    report: Dict[str, Any] = {
        "benchmark": "bench_perf",
        "seed": int(seed),
        "environment": host_metadata(),
    }
    for section in _SECTIONS.values():
        if only is None or section.name in only:
            report[section.name] = section.run(int(seed))
    return report


def smoke_failures(report: Dict[str, Any]) -> Dict[str, List[str]]:
    """Each section in ``report`` mapped to its gate failures (empty = pass).

    Sections absent from the report are skipped — a run gates only what
    it ran.
    """
    return {
        section.name: section.smoke_gates(report[section.name])
        for section in _SECTIONS.values()
        if section.name in report
    }
