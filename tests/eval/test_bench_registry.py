"""The BenchSection registry: ordering, --only filtering, smoke gates."""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval.bench import (
    SMOKE_KNOBS,
    get_section,
    identical,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)
from tests.serve.conftest import _leak_sanitizer  # noqa: F401

CANONICAL = [
    "solve",
    "engine",
    "serving",
    "frontend",
    "frontend_async",
    "resilience",
    "trust",
    "loadgen",
]


def test_every_section_registered_in_report_order():
    assert section_names() == CANONICAL


def test_sections_expose_their_report_keys():
    by_name = {section.name: section for section in sections()}
    assert by_name["solve"].report_key == "sizes"
    assert by_name["solve"].host_stamp == "rows"
    for name in CANONICAL[1:]:
        assert by_name[name].report_key == name
        assert by_name[name].host_stamp == "section"


def test_get_section_unknown_name():
    with pytest.raises(KeyError, match="unknown bench section"):
        get_section("warp-drive")


def test_only_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown bench section"):
        run_perf_bench(sizes=(), only=["warp-drive"])


def test_only_filters_sections():
    # Empty sizes keeps the solve section trivially cheap; every other
    # section's knob stays None, so `only` is the sole selector.
    report = run_perf_bench(
        sizes=(),
        only=["solve"],
        serving_sites=("square-3m",),  # would run without only=
    )
    assert "sizes" in report
    assert "serving" not in report
    assert set(report) == {"benchmark", "seed", "environment", "sizes"}


def test_none_knob_still_skips_inside_only():
    report = run_perf_bench(sizes=(), only=["solve", "serving"])
    assert "serving" not in report  # serving_sites=None skips it


def test_smoke_failures_skips_absent_sections():
    assert smoke_failures({"benchmark": "bench_perf"}) == []


def test_smoke_failures_surface_section_gates():
    # A loadgen record violating the determinism gate must be reported
    # through the aggregate registry path.
    report = {
        "loadgen": {
            "plan_bit_identical": False,
            "saturation": {},
            "closed_loop": None,
            "perturbation": None,
            "soak": None,
        }
    }
    failures = smoke_failures(report)
    assert any("bit-identical" in failure for failure in failures)


SERVING_GATES = ["frontend", "frontend_async", "resilience", "trust"]


@pytest.mark.usefixtures("_leak_sanitizer")
def test_serving_smoke_gates_pass_at_smoke_scale():
    # The CI smoke configuration of every fleet-spawning section: wire
    # and shard identity, kill -9 of each shard, resize, quorum repair,
    # scrub, degraded serving and snapshot retention must all hold.
    report = run_perf_bench(**SMOKE_KNOBS, only=SERVING_GATES)
    assert set(SERVING_GATES) <= set(report)
    assert smoke_failures(report) == []


def _passing_records():
    site = "square-3m"
    wire = {
        f"{transport}_bit_identical": True
        for transport in ("http", "unix", "tcp")
    }
    kill = {
        "failed_queries": 0,
        "mismatched_queries": 0,
        "recovered": True,
        "recovery_s": 0.02,
        "snapshots_restored": 2,
    }
    return {
        "frontend": {
            "per_site": {site: dict(wire)},
            "shards": {"1": {"bit_identical": True}},
            "error_contract": {"http": True, "unix": True, "tcp": True},
        },
        "resilience": {
            "zero_loss": True,
            "recovered": True,
            "snapshots_restored": 2,
            "snapshot_warm_bit_identical": True,
            "kills": {str(victim): dict(kill) for victim in range(3)},
            "post_recovery_bit_identical": True,
            "resize": {"bit_identical": True},
        },
        "trust": {
            "corruption_episode": {
                "failed_queries": 0,
                "mismatched_queries": 0,
                "read_divergences": 1,
                "quarantines": 1,
                "repairs": 1,
            },
            "scrub": {"divergent_sites": [], "quarantined": 0},
            "silent_corruption": {
                "detected": True,
                "repaired": 1,
                "post_scrub_bit_identical": True,
            },
            "degraded": {"stale": True, "bit_identical": True, "error": None},
            "snapshot_soak": {"bounded": True, "files_pruned": 5},
        },
    }


@pytest.mark.parametrize(
    ("section", "path", "value", "field"),
    [
        ("resilience", ("kills", "1", "mismatched_queries"), 1, "kills.1"),
        ("resilience", ("kills", "2", "recovered"), False, "kills.2"),
        (
            "resilience",
            ("kills", "0", "snapshots_restored"),
            0,
            "snapshots_restored",
        ),
        ("resilience", ("resize", "bit_identical"), False, "resize"),
        ("frontend", ("error_contract", "tcp"), False, "error_contract.tcp"),
        (
            "frontend",
            ("per_site", "square-3m", "tcp_bit_identical"),
            False,
            "tcp_bit_identical",
        ),
        (
            "trust",
            ("silent_corruption", "detected"),
            False,
            "silent_corruption",
        ),
        ("trust", ("degraded", "stale"), False, "stale=False"),
        ("trust", ("snapshot_soak", "files_pruned"), 0, "files_pruned"),
    ],
)
def test_each_serving_gate_names_its_field(section, path, value, field):
    record = _passing_records()[section]
    gates = get_section(section).smoke_gates
    assert gates(record) == []
    broken = copy.deepcopy(record)
    target = broken
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    failures = gates(broken)
    assert failures and any(field in failure for failure in failures)


def test_identical_compares_scores_when_present():
    cells, positions = np.array([1, 2]), np.array([[0.5, 1.0], [1.5, 2.0]])
    scores = np.array([[-1.0, -2.0], [-3.0, -4.0]])
    reference = SimpleNamespace(cells=cells, positions=positions, scores=scores)
    flipped = scores.copy()
    flipped[1, 1] = np.nextafter(flipped[1, 1], 0.0)
    assert identical(reference, reference)
    assert identical(
        SimpleNamespace(cells=cells, positions=positions, scores=None),
        reference,
    )
    assert not identical(
        SimpleNamespace(cells=cells, positions=positions, scores=flipped),
        reference,
    )
