"""The gate-section registry: ordering, --only filtering, smoke gates."""

from __future__ import annotations

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval.bench import (
    get_section,
    identical,
    registry,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)
from tests.serve.conftest import _leak_sanitizer  # noqa: F401

CANONICAL = [
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


@pytest.fixture
def stub_runs(monkeypatch):
    """Every section's run replaced by a cheap stub naming itself."""
    for section in sections():
        monkeypatch.setitem(
            registry._SECTIONS,
            section.name,
            dataclasses.replace(
                section,
                run=lambda seed, name=section.name: {"ran": name, "seed": seed},
            ),
        )


def test_sections_expose_their_report_keys(stub_runs):
    # Every record lands under its section's own name, in run order.
    report = run_perf_bench(seed=5)
    assert list(report) == ["benchmark", "seed", "environment", *CANONICAL]
    for name in CANONICAL:
        assert report[name] == {"ran": name, "seed": 5}


def test_get_section_unknown_name():
    with pytest.raises(KeyError, match="unknown bench section"):
        get_section("warp-drive")


def test_only_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown bench section"):
        run_perf_bench(only=["warp-drive"])


def test_only_filters_sections(stub_runs):
    report = run_perf_bench(only=["engine"])
    assert set(report) == {"benchmark", "seed", "environment", "engine"}


def test_smoke_failures_skips_absent_sections():
    assert smoke_failures({"benchmark": "bench_perf"}) == {}


def test_smoke_failures_surface_section_gates():
    # A loadgen record violating the determinism gate must be reported
    # through the aggregate registry path.
    report = {"loadgen": dict(_passing_loadgen(), plan_bit_identical=False)}
    failures = smoke_failures(report)
    assert failures == {
        "loadgen": ["loadgen: same-seed load plans are not bit-identical"]
    }


SERVING_GATES = ["frontend", "frontend_async", "resilience", "trust"]


@pytest.mark.usefixtures("_leak_sanitizer")
def test_serving_smoke_gates_pass_at_smoke_scale():
    # The CI smoke configuration of every fleet-spawning section: wire
    # and shard identity, kill -9 of each shard, resize, quorum repair,
    # scrub, degraded serving and snapshot retention must all hold.
    report = run_perf_bench(only=SERVING_GATES)
    assert smoke_failures(report) == {name: [] for name in SERVING_GATES}


def _probe_summary():
    """A schema-valid loadgen run summary with no failed or wrong answers."""
    return {
        "arrival": "open",
        "transport": "http",
        "offered_qps": 50.0,
        "achieved_qps": 50.0,
        "requests": 60,
        "completed": 60,
        "failed_queries": 0,
        "mismatched_queries": 0,
        "wall_s": 1.2,
        "latency": {
            "count": 60,
            "p50_ms": 1.0,
            "p95_ms": 2.0,
            "p99_ms": 3.0,
            "max_ms": 4.0,
            "mean_ms": 1.5,
        },
    }


def _passing_loadgen():
    return {
        "sites": ["square-3m"],
        "plan": {
            "arrival": "open",
            "process": "poisson",
            "seed": 2016,
            "sites": 1,
            "zipf_s": 1.1,
            "rate_qps": 50.0,
            "clients": 4,
            "requests": 60,
            "duration_s": 1.2,
            "fingerprint": "00ff",
        },
        "plan_bit_identical": True,
        "slo_ms": 50.0,
        "saturation": {
            "http-shards1": {
                "slo_ms": 50.0,
                "percentile": "p99_ms",
                "max_sustained_qps": 800.0,
                "sustained": _probe_summary(),
                "probes": [_probe_summary()],
            }
        },
        "closed_loop": _probe_summary(),
        "perturbation": {
            "quiet": _probe_summary(),
            "refresh": _probe_summary(),
        },
        "soak": {
            "sites": 200,
            "spec": "square-3m",
            "zipf_s": 1.1,
            "queries": 200,
            "register_s": 0.01,
            "warm_s": 0.02,
            "pipelines_built": 1,
            "rss_kb": {
                "baseline": None,
                "registered": None,
                "warm": None,
                "queried": None,
            },
            "query_phase": {
                "failed_queries": 0,
                "completed": 200,
                "qps": 1000.0,
                "distinct_sites_hit": 70,
                "latency": _probe_summary()["latency"],
            },
            "routing": {},
        },
    }


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
        "engine": {
            "fig3": {"bit_identical": True},
            "fig5": {"bit_identical": True},
        },
        "serving": {"per_site": {site: {"bit_identical": True}}},
        "frontend_async": {
            "per_site": {site: {"bit_identical": True}},
            "trace_streaming": {
                "lengths": {
                    "24": {"bit_identical": True},
                    "192": {"bit_identical": True},
                },
                "scores_bit_identical": True,
                "buffering_flat": True,
            },
        },
        "loadgen": _passing_loadgen(),
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


# Each row names its own id, so adding or removing a row renames no other.
# These ids are the names the rows have always been reported under; a new
# row takes ``section-dotted.path-value`` (e.g. ``trust-scrub.quarantined-1``).
@pytest.mark.parametrize(
    ("section", "path", "value", "field"),
    [
        pytest.param(
            "resilience",
            ("kills", "1", "mismatched_queries"),
            1,
            "kills.1",
            id="resilience-path0-1-kills.1",
        ),
        pytest.param(
            "resilience",
            ("kills", "2", "recovered"),
            False,
            "kills.2",
            id="resilience-path1-False-kills.2",
        ),
        pytest.param(
            "resilience",
            ("kills", "0", "snapshots_restored"),
            0,
            "snapshots_restored",
            id="resilience-path2-0-snapshots_restored",
        ),
        pytest.param(
            "resilience",
            ("resize", "bit_identical"),
            False,
            "resize",
            id="resilience-path3-False-resize",
        ),
        pytest.param(
            "frontend",
            ("error_contract", "tcp"),
            False,
            "error_contract.tcp",
            id="frontend-path4-False-error_contract.tcp",
        ),
        pytest.param(
            "frontend",
            ("per_site", "square-3m", "tcp_bit_identical"),
            False,
            "tcp_bit_identical",
            id="frontend-path5-False-tcp_bit_identical",
        ),
        pytest.param(
            "trust",
            ("silent_corruption", "detected"),
            False,
            "silent_corruption",
            id="trust-path6-False-silent_corruption",
        ),
        pytest.param(
            "trust",
            ("degraded", "stale"),
            False,
            "stale=False",
            id="trust-path7-False-stale=False",
        ),
        pytest.param(
            "trust",
            ("snapshot_soak", "files_pruned"),
            0,
            "files_pruned",
            id="trust-path8-0-files_pruned",
        ),
        pytest.param(
            "loadgen",
            ("perturbation", "quiet", "failed_queries"),
            1,
            "quiet perturbation phase",
            id="loadgen-path9-1-quiet perturbation phase",
        ),
        pytest.param(
            "engine",
            ("fig5", "bit_identical"),
            False,
            "differ from serial",
            id="engine-path10-False-differ from serial",
        ),
        pytest.param(
            "serving",
            ("per_site", "square-3m", "bit_identical"),
            False,
            "serving answers differ",
            id="serving-path11-False-serving answers differ",
        ),
        pytest.param(
            "frontend_async",
            ("per_site", "square-3m", "bit_identical"),
            False,
            "asyncio front-end answers differ",
            id="frontend_async-path12-False-asyncio front-end answers differ",
        ),
        pytest.param(
            "frontend_async",
            ("trace_streaming", "lengths", "192", "bit_identical"),
            False,
            "asyncio front-end answers differ",
            id="frontend_async-path13-False-asyncio front-end answers differ",
        ),
        pytest.param(
            "frontend_async",
            ("trace_streaming", "scores_bit_identical"),
            False,
            "asyncio front-end answers differ",
            id="frontend_async-path14-False-asyncio front-end answers differ",
        ),
        pytest.param(
            "frontend_async",
            ("trace_streaming", "buffering_flat"),
            False,
            "peak buffering grows",
            id="frontend_async-path15-False-peak buffering grows",
        ),
        pytest.param(
            "loadgen",
            ("plan_bit_identical",),
            False,
            "not bit-identical",
            id="loadgen-path16-False-not bit-identical",
        ),
        pytest.param(
            "loadgen",
            ("saturation", "http-shards1", "max_sustained_qps"),
            0.0,
            "http-shards1 sustained no rate",
            id="loadgen-path17-0.0-http-shards1 sustained no rate",
        ),
        pytest.param(
            "loadgen",
            ("saturation", "http-shards1", "sustained", "mismatched_queries"),
            1,
            "http-shards1 sustained run had failed/mismatched",
            id="loadgen-path18-1-http-shards1 sustained run had failed/mismatched",
        ),
        pytest.param(
            "loadgen",
            ("closed_loop", "mismatched_queries"),
            1,
            "closed-loop run had failed/mismatched",
            id="loadgen-path19-1-closed-loop run had failed/mismatched",
        ),
        pytest.param(
            "loadgen",
            ("perturbation", "refresh", "mismatched_queries"),
            1,
            "refresh perturbation phase",
            id="loadgen-path20-1-refresh perturbation phase",
        ),
        pytest.param(
            "loadgen",
            ("soak", "pipelines_built"),
            2,
            "more than one pipeline",
            id="loadgen-path21-2-more than one pipeline",
        ),
        pytest.param(
            "loadgen",
            ("soak", "query_phase", "failed_queries"),
            1,
            "soak query phase had failures",
            id="loadgen-path22-1-soak query phase had failures",
        ),
        pytest.param(
            "loadgen",
            ("slo_ms",),
            "50",
            "$.loadgen.slo_ms",
            id="loadgen-path23-50-$.loadgen.slo_ms",
        ),
        pytest.param(
            "engine",
            ("fig3", "bit_identical"),
            False,
            "differ from serial",
            id="engine-path24-False-differ from serial",
        ),
        pytest.param(
            "frontend",
            ("per_site", "square-3m", "http_bit_identical"),
            False,
            "http_bit_identical",
            id="frontend-path25-False-http_bit_identical",
        ),
        pytest.param(
            "frontend",
            ("shards", "1", "bit_identical"),
            False,
            "shards.1.bit_identical",
            id="frontend-path26-False-shards.1.bit_identical",
        ),
        pytest.param(
            "resilience",
            ("zero_loss",),
            False,
            "queries lost",
            id="resilience-path27-False-queries lost",
        ),
        pytest.param(
            "resilience",
            ("recovered",),
            False,
            "did not recover",
            id="resilience-path28-False-did not recover",
        ),
        pytest.param(
            "resilience",
            ("snapshots_restored",),
            0,
            "resilience: snapshots_restored is 0",
            id="resilience-path29-0-resilience: snapshots_restored is 0",
        ),
        pytest.param(
            "resilience",
            ("snapshot_warm_bit_identical",),
            False,
            "snapshot-warmed fleet answers differ",
            id="resilience-path30-False-snapshot-warmed fleet answers differ",
        ),
        pytest.param(
            "resilience",
            ("post_recovery_bit_identical",),
            False,
            "post_recovery_bit_identical",
            id="resilience-path31-False-post_recovery_bit_identical",
        ),
        pytest.param(
            "trust",
            ("corruption_episode", "failed_queries"),
            1,
            "leaked wrong or failed answers",
            id="trust-path32-1-leaked wrong or failed answers",
        ),
        pytest.param(
            "trust",
            ("corruption_episode", "repairs"),
            0,
            "not detected, quarantined and repaired",
            id="trust-path33-0-not detected, quarantined and repaired",
        ),
        pytest.param(
            "trust",
            ("scrub", "quarantined"),
            1,
            "scrub after repair",
            id="trust-path34-1-scrub after repair",
        ),
        pytest.param(
            "trust",
            ("silent_corruption", "post_scrub_bit_identical"),
            False,
            "post_scrub_bit_identical",
            id="trust-path35-False-post_scrub_bit_identical",
        ),
        pytest.param(
            "trust",
            ("snapshot_soak", "bounded"),
            False,
            "unbounded",
            id="trust-path36-False-unbounded",
        ),
    ],
)
def test_each_serving_gate_names_its_field(section, path, value, field):
    # One row per gate condition of every section: the passing record
    # passes, and breaking the one field fails with a message naming it.
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
