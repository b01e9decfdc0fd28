"""Smoke tests for the perf benchmark harness (kept tiny — the real run is
``make bench``)."""

import json

import pytest

from repro.eval.bench import (
    bench_engine,
    build_bench_deployment,
    format_bench_report,
    run_perf_bench,
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    report = run_perf_bench(
        sizes=("square-3m",),
        frames=24,
        samples_per_cell=2,
        repeat=1,
        out_path=out,
        serving_sites=("square-3m", "square-4m"),
    )
    return report, out


def test_deployment_sizes():
    paper = build_bench_deployment("paper")
    assert paper.cell_count == 96
    square = build_bench_deployment("square-6m")
    assert square.cell_count == 100
    # Any registered scenario benchmarks directly.
    warehouse = build_bench_deployment("warehouse")
    assert warehouse.link_count == 6
    with pytest.raises(ValueError, match="unknown scenario"):
        build_bench_deployment("mega")


def test_report_structure(tiny_report):
    report, out = tiny_report
    record = report["sizes"]["square-3m"]
    for stage in ("survey", "match_trace"):
        assert record[stage]["batch_s"] > 0
        assert record[stage]["loop_s"] > 0
        assert record[stage]["speedup"] > 0
    solve = record["solve"]
    assert len(solve["cold_iterations"]) == 4
    assert solve["legacy_cold_s"] > 0
    assert solve["speedup"] > 0
    assert isinstance(solve["warm_le_cold"], bool)
    persisted = json.loads(out.read_text())
    assert persisted["sizes"]["square-3m"]["frames"] == 24


def test_serving_section_structure(tiny_report):
    report, out = tiny_report
    serving = report["serving"]
    assert serving["sites"] == ["square-3m", "square-4m"]
    assert serving["multi_site"]["pipelines_built"] == 2
    for row in serving["per_site"].values():
        assert row["bit_identical"] is True
        assert row["cold_first_query_s"] > 0
        for key in ("warm_batch_qps", "warm_single_qps", "rebuild_single_qps",
                    "matcher_cache_speedup"):
            assert row[key] > 0
    assert serving["multi_site"]["interleaved_single_qps"] > 0
    assert serving["multi_site"]["batch_qps"] > 0
    persisted = json.loads(out.read_text())
    assert set(persisted["serving"]["per_site"]) == {"square-3m", "square-4m"}


def test_report_formatting_includes_serving(tiny_report):
    report, _ = tiny_report
    text = format_bench_report(report)
    assert "serving layer" in text
    assert "bit-identical" in text


def test_engine_section_bit_identical():
    record = bench_engine(jobs=2, seed=99, fig3_days=(3.0,), fig5_day=30.0)
    for name in ("fig3", "fig5"):
        assert record[name]["bit_identical"] is True
        assert record[name]["legacy_s"] > 0
        assert record[name]["serial_s"] > 0
        assert record[name]["parallel_s"] > 0


def test_format_report(tiny_report):
    report, _ = tiny_report
    text = format_bench_report(report)
    assert "square-3m" in text
    assert "survey x" in text
