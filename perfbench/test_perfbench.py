"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

They are not part of the repository's tier-1 suite (``testpaths`` is
``tests``); they check the benchmark itself: plans are pure functions of
the seed, a seconds-scale run of every workload answers everything
correctly and leaves no process behind, and the benchmark refuses to run
where there is no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from procs import ROOT  # noqa: E402
from workload import (  # noqa: E402
    WORKLOADS,
    FramePools,
    aging_plan,
    fingerprint,
    open_loop_plan,
)

SMOKE_SECONDS = "4"


def run_bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", SMOKE_SECONDS, "--trace", str(trace),
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )


def server_processes():
    """Pids of every server or shard worker running now."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"repro.cli" in command or b"spawn_main" in command:
            found.add(int(entry.name))
    return found


def parse(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_same_seed_gives_the_same_plans():
    def plans(seed):
        quiet = open_loop_plan(seed, "quiet", sites=5, rate_qps=500.0, duration_s=2.0)
        aging = aging_plan(seed, sites=5, rounds=4, period_s=1.0)
        return fingerprint(*quiet.arrays()), fingerprint(*aging.arrays())

    assert plans(7) == plans(7)
    assert plans(7) != plans(8)


def test_frame_pools_do_not_depend_on_build_order():
    sites = WORKLOADS["refresh"].sites
    first, second = FramePools(3, sites), FramePools(3, sites)
    for site in sites:
        first.pool(site, 1.0)
    for site in reversed(sites):
        second.pool(site, 1.0)
    assert first.digest() == second.digest()


def test_same_seed_gives_the_same_fingerprints_and_error():
    one_report, one = parse(run_bench("refresh", 5))
    two_report, two = parse(run_bench("refresh", 5))
    assert one_report["plan_fingerprints"] == two_report["plan_fingerprints"]
    assert one["metrics"]["loc_err_p50_m"] == two["metrics"]["loc_err_p50_m"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_answers_everything_and_leaks_nothing(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = server_processes()
    report, result = parse(run_bench(workload, 11, trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and report["mismatched"] == 0
    assert result["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in expected]
    assert server_processes() - before == set()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run_bench("interactive", 1, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
