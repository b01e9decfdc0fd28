"""CLI contract: exit codes, JSON report, and the real-tree gate."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION_TREE = {
    "model.py": """
    import numpy as np

    def draw():
        return np.random.default_rng()
    """,
    "sim/clock.py": """
    import time

    def stamp():
        return time.time()
    """,
}

CLEAN_TREE = {
    "model.py": """
    import numpy as np

    def draw(seed):
        return np.random.default_rng(seed)
    """,
}

#: Runs the gate in-process, then reports which heavy modules it loaded.
NUMPY_PROBE = """\
import sys
from repro.analysis.__main__ import main
codes = [main(["--list-rules"]), main([])]
heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print("probe:", codes, heavy)
"""


def _write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


class TestMainInProcess:
    def test_violation_tree_exits_one(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", VIOLATION_TREE)
        code = main(["--root", str(root), "--baseline", "none"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL-D01" in out
        assert "RL-D02" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", CLEAN_TREE)
        code = main(["--root", str(root), "--baseline", "none"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", CLEAN_TREE)
        code = main(
            ["--root", str(root), "--baseline", "none", "--rule", "RL-ZZ99"]
        )
        assert code == 2

    def test_missing_root_exits_two(self, tmp_path):
        code = main(["--root", str(tmp_path / "nope"), "--baseline", "none"])
        assert code == 2

    def test_json_report_written_to_out(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", VIOLATION_TREE)
        out_path = tmp_path / "report.json"
        code = main(
            [
                "--root",
                str(root),
                "--baseline",
                "none",
                "--out",
                str(out_path),
                "--format",
                "json",
            ]
        )
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["ok"] is False
        rules = {f["rule"] for f in report["findings"]}
        assert {"RL-D01", "RL-D02"} <= rules

    def test_rule_filter_limits_findings(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", VIOLATION_TREE)
        code = main(
            [
                "--root",
                str(root),
                "--baseline",
                "none",
                "--rule",
                "RL-D02",
                "--format",
                "json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"RL-D02"}

    def test_write_baseline_then_rerun_is_clean(self, tmp_path, capsys):
        root = _write_tree(tmp_path / "pkg", VIOLATION_TREE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "entries": []}))
        code = main(
            [
                "--root",
                str(root),
                "--baseline",
                str(baseline),
                "--write-baseline",
                "bootstrap for test",
            ]
        )
        assert code == 0
        payload = json.loads(baseline.read_text())
        assert payload["entries"], "bootstrap wrote no entries"
        assert all(e["reason"] for e in payload["entries"])
        code = main(["--root", str(root), "--baseline", str(baseline)])
        assert code == 0
        assert "baselined" in capsys.readouterr().out

    def test_list_rules_names_every_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RL-D01",
            "RL-D02",
            "RL-D03",
            "RL-C01",
            "RL-C02",
            "RL-C03",
            "RL-W01",
        ):
            assert rule_id in out


class TestSubprocessGate:
    """The `make analyze` contract, driven exactly as CI drives it."""

    def _run(self, *argv: str) -> subprocess.CompletedProcess:
        return self._python("-m", "repro.analysis", *argv)

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            timeout=120,
        )

    def test_seeded_violation_fails_the_gate(self, tmp_path):
        root = _write_tree(tmp_path / "pkg", VIOLATION_TREE)
        proc = self._run("--root", str(root), "--baseline", "none")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "RL-D01" in proc.stdout

    def test_repo_tree_passes_with_committed_baseline(self):
        proc = self._run(
            "--root",
            str(REPO_ROOT / "src" / "repro"),
            "--baseline",
            str(REPO_ROOT / "analysis-baseline.json"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_the_gate_never_loads_numpy(self):
        """CI runs the gate without numpy or scipy installed: the analyzer
        is stdlib-only, and importing ``repro`` must not load them."""
        proc = self._python("-c", NUMPY_PROBE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "probe: [0, 0] []" in proc.stdout, proc.stdout + proc.stderr
