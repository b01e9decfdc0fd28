"""Smoke tests for the gate runner ``benchmarks/bench_perf.py`` (kept tiny —
the CI run is ``make bench-smoke``)."""

import contextlib
import dataclasses
import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro.eval.bench import bench_engine, bench_spec, registry
from repro.sim.specs import build_deployment

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_perf.py"


def _bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _bench_perf().main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    code, stdout, _ = _run_script(
        ["--only", "serving", "--out", str(out)]
    )
    return code, json.loads(out.read_text()), stdout


def test_deployment_sizes():
    paper = build_deployment(bench_spec("paper").geometry)
    assert paper.cell_count == 96
    square = build_deployment(bench_spec("square-6m").geometry)
    assert square.cell_count == 100
    # Any registered scenario resolves directly.
    warehouse = build_deployment(bench_spec("warehouse").geometry)
    assert warehouse.link_count == 6
    with pytest.raises(ValueError, match="unknown scenario"):
        bench_spec("mega")


def test_report_structure(tiny_report):
    code, report, _ = tiny_report
    assert code == 0
    assert set(report) == {"benchmark", "seed", "environment", "serving"}
    assert report["environment"]["cpu_count"] >= 1


def test_serving_section_structure(tiny_report):
    _, report, _ = tiny_report
    serving = report["serving"]
    assert set(serving["per_site"]) == {"square-3m", "square-4m"}
    for row in serving["per_site"].values():
        assert row["bit_identical"] is True


def test_report_formatting_includes_serving(tiny_report):
    _, _, stdout = tiny_report
    assert "serving: pass" in stdout.splitlines()


def test_engine_section_bit_identical():
    record = bench_engine(99)
    for name in ("fig3", "fig5"):
        assert record[name]["bit_identical"] is True


def test_format_report(tiny_report):
    # The printed report is one verdict line per section run, in order.
    _, _, stdout = tiny_report
    assert stdout.splitlines() == ["serving: pass"]


def test_failing_gate_writes_report_and_replay_line(tmp_path, monkeypatch):
    section = registry.get_section("serving")
    monkeypatch.setitem(
        registry._SECTIONS,
        "serving",
        dataclasses.replace(
            section,
            run=lambda seed: {"seed": seed},
            smoke_gates=lambda record: ["serving: gate broke"],
        ),
    )
    out = tmp_path / "report.json"
    code, stdout, stderr = _run_script(
        ["--seed", "7", "--only", "serving", "--out", str(out)]
    )
    assert code == 1
    assert stdout.splitlines() == ["serving: FAIL"]
    assert "FAIL: serving: gate broke" in stderr
    assert (
        "replay with: python benchmarks/bench_perf.py --seed 7 --only serving"
        in stderr
    )
    assert json.loads(out.read_text())["serving"] == {"seed": 7}
