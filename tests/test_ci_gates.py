"""CI runs every gate section exactly once per push.

The gate sections run through ``benchmarks/bench_perf.py``, called by CI
either directly or through a Makefile target. This reads
``.github/workflows/ci.yml`` and the recipes of the make targets it
calls, and checks that the ``--only`` sections of every bench_perf
invocation, taken together, are the registered sections, each once.
"""

from __future__ import annotations

import re
import shlex
from collections import Counter
from pathlib import Path
from typing import Dict, List

import yaml

from repro.eval.bench import section_names

ROOT = Path(__file__).resolve().parent.parent


def _make_recipes() -> Dict[str, str]:
    """Each Makefile target mapped to its recipe, continuations joined."""
    recipes: Dict[str, str] = {}
    target = None
    text = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    for line in text.splitlines():
        if line.startswith("\t") and target is not None:
            recipes[target] += line.strip() + "\n"
            continue
        match = re.match(r"^([A-Za-z0-9_-]+):", line)
        target = match.group(1) if match else None
        if target is not None:
            recipes[target] = ""
    return recipes


def _ci_commands() -> List[str]:
    """Every ``run:`` command of every CI job, make targets expanded."""
    workflow = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())
    recipes = _make_recipes()
    commands: List[str] = []
    for job in workflow["jobs"].values():
        for step in job.get("steps", []):
            for line in str(step.get("run", "")).splitlines():
                words = shlex.split(line)
                if words[:1] == ["make"]:
                    for target in words[1:]:
                        commands.extend(recipes[target].splitlines())
                else:
                    commands.append(line)
    return commands


def _gate_sections(commands: List[str]) -> List[str]:
    sections: List[str] = []
    for command in commands:
        words = shlex.split(command)
        if not any(word.endswith("bench_perf.py") for word in words):
            continue
        only = [words[i + 1] for i, word in enumerate(words) if word == "--only"]
        # No --only runs every section.
        sections.extend(only or section_names())
    return sections


def test_make_recipes_parse():
    recipes = _make_recipes()
    assert "--only loadgen" in recipes["loadgen-smoke"]
    assert "--only trust" in recipes["resilience-smoke"]


def test_ci_runs_every_gate_section_exactly_once():
    counts = Counter(_gate_sections(_ci_commands()))
    assert sorted(counts) == sorted(section_names())
    assert [name for name, count in counts.items() if count != 1] == []


def test_gate_sections_counts_a_bare_run_as_every_section():
    sections = _gate_sections(
        [
            "python benchmarks/bench_perf.py --out x.json",
            "python benchmarks/bench_perf.py --only loadgen",
            "python -m pytest perfbench -q",
        ]
    )
    assert Counter(sections) == Counter(section_names() + ["loadgen"])
