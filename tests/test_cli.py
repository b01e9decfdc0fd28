"""Tests for the command-line interface."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import BLAS_THREAD_VARIABLES, _sub_seed, build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _restore_blas_variables():
    """In-process ``serve`` runs cap BLAS threads in ``os.environ``; undo it."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def _python(code, **blas):
    """Run ``code`` in a fresh interpreter with exactly the ``blas`` variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(blas)
    env["PYTHONPATH"] = SRC
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _proc_stat(pid):
    """``(state, ppid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _descendants(pid):
    """Every live descendant of ``pid``, read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                parents.setdefault(stat[1], []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["quickstart"],
            ["drift", "--days", "5", "45"],
            ["fig3", "--days", "3", "--cdf"],
            ["fig4", "--edges", "6", "12"],
            ["fig5", "--day", "30"],
            ["floorplan"],
            ["scenarios"],
            ["scenarios", "--describe"],
            ["serve", "--sites", "paper", "warehouse", "--frames", "50"],
            ["serve", "--update-days", "30", "60", "--day", "60"],
            ["query", "--day", "45", "--cells", "3", "17"],
            ["query", "--frames", "2", "--update-days", "30"],
            ["serve", "--listen", "127.0.0.1:0", "--shards", "2"],
            ["serve", "--listen", "127.0.0.1:8970", "--refresh-policy",
             "interval", "--refresh-interval-days", "15",
             "--refresh-budget", "2", "--days-per-second", "10"],
            ["serve", "--unix", "/tmp/serve.sock", "--max-seconds", "1"],
            ["query", "--connect", "http://127.0.0.1:8970", "--frames", "2"],
            ["loadgen", "--transport", "http", "--rate", "500",
             "--slo-ms", "50", "--sites", "8", "--zipf-s", "1.2"],
            ["loadgen", "--arrival", "closed", "--clients", "4",
             "--think-s", "0.001", "--transport", "aio"],
            # The end-to-end benchmark's server command line
            # (perfbench/procs.py).
            ["serve", "--transport", "aio", "--listen", "127.0.0.1:0"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "99", "floorplan"])
        assert args.seed == 99

    def test_scenario_flag(self):
        args = build_parser().parse_args(["--scenario", "warehouse", "fig3"])
        assert args.scenario == "warehouse"

    def test_scenario_and_file_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--scenario", "atrium", "--scenario-file", "x.json", "fig3"]
            )


class TestCommands:
    def test_floorplan(self, capsys):
        assert main(["floorplan"]) == 0
        out = capsys.readouterr().out
        assert "10" in out
        assert "L" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--edges", "6", "12"]) == 0
        out = capsys.readouterr().out
        assert "2.78" in out  # the paper's 6 m anchor

    def test_drift(self, capsys):
        assert main(["drift", "--days", "5", "--rooms", "2"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out

    def test_fig3_smoke(self, capsys):
        assert main(["fig3", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_fig5_smoke(self, capsys):
        assert main(["--seed", "1", "fig5", "--day", "30"]) == 0
        out = capsys.readouterr().out
        assert "TafLoc" in out
        assert "RASS" in out

    def test_quickstart_smoke(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "savings factor" in out

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "warehouse", "corridor", "atrium"):
            assert name in out

    def test_fig3_on_named_scenario(self, capsys):
        assert main(["--scenario", "corridor", "fig3", "--days", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_floorplan_on_named_scenario(self, capsys):
        assert main(["--scenario", "corridor", "floorplan"]) == 0
        out = capsys.readouterr().out
        assert "corridor" in out

    def test_fig5_on_scenario_file(self, capsys, tmp_path):
        from repro.sim.specs import get_scenario_spec

        path = tmp_path / "site.json"
        path.write_text(get_scenario_spec("corridor").to_json())
        assert main(["--scenario-file", str(path), "fig5", "--day", "30"]) == 0
        out = capsys.readouterr().out
        assert "TafLoc" in out

    def test_serve_multi_site(self, capsys):
        assert main(
            ["serve", "--sites", "paper", "square-3m", "--frames", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 site(s)" in out
        assert "paper" in out and "square-3m" in out
        assert "pipelines built: 2" in out

    def test_serve_listen_smoke(self, capsys):
        assert main(
            [
                "serve", "--sites", "square-3m", "--listen", "127.0.0.1:0",
                "--refresh-policy", "interval", "--days-per-second", "50",
                "--refresh-period-seconds", "0.05", "--max-seconds", "0.3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "listening at http://127.0.0.1:" in out
        assert "refresh scheduler: interval" in out
        assert "scheduler ran" in out

    def test_serve_listen_sharded_smoke(self, capsys):
        assert main(
            [
                "serve", "--sites", "square-3m", "square-4m", "--shards",
                "2", "--listen", "127.0.0.1:0", "--max-seconds", "0.2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "across 2 shard worker(s)" in out
        assert "listening at http://127.0.0.1:" in out

    def test_loadgen_open_inproc(self, capsys):
        assert main(
            [
                "--scenario", "square-3m", "loadgen", "--transport",
                "inproc", "--rate", "400", "--requests", "40",
                "--sites", "2", "--frames", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 site(s)" in out
        assert "1 pipeline(s)" in out
        assert "plan fingerprint" in out
        assert "failed 0, mismatched 0" in out

    def test_loadgen_closed_http(self, capsys):
        assert main(
            [
                "--scenario", "square-3m", "loadgen", "--arrival", "closed",
                "--transport", "http", "--clients", "2", "--requests", "16",
                "--sites", "2", "--frames", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "closed/http" in out
        assert "failed 0, mismatched 0" in out

    def test_query_connect_round_trips_through_a_live_server(self):
        import os
        import re
        import subprocess
        import sys as _sys
        import time as _time
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server = subprocess.Popen(
            [
                _sys.executable, "-u", "-m", "repro.cli", "serve",
                "--sites", "square-3m", "--listen", "127.0.0.1:0",
                "--max-seconds", "20",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            address = None
            deadline = _time.monotonic() + 15.0
            while _time.monotonic() < deadline:
                line = server.stdout.readline()
                match = re.search(r"listening at (http://\S+)", line or "")
                if match:
                    address = match.group(1)
                    break
            assert address, "server never reported its address"
            result = subprocess.run(
                [
                    _sys.executable, "-m", "repro.cli", "--scenario",
                    "square-3m", "query", "--connect", address,
                    "--frames", "2",
                ],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            assert "median error" in result.stdout
        finally:
            server.terminate()
            server.wait(timeout=10)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads the process tree from /proc"
    )
    def test_sigterm_stops_serve_and_its_shard_workers(self):
        """SIGTERM takes the graceful Ctrl-C path: ``serve`` exits 0 and
        none of its children (the shard worker) outlives it."""
        import signal
        import subprocess
        import sys as _sys
        import time as _time
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server = subprocess.Popen(
            [
                _sys.executable, "-u", "-m", "repro.cli", "serve",
                "--sites", "square-3m", "--shards", "1",
                "--listen", "127.0.0.1:0", "--max-seconds", "60",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            for line in server.stdout:
                if line.startswith("serving"):
                    break
            children = _descendants(server.pid)
            assert children, "the sharded server has no worker process"
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline and any(map(_alive, children)):
                _time.sleep(0.05)
            assert not [pid for pid in children if _alive(pid)]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    def test_serve_with_updates(self, capsys):
        assert main(
            ["serve", "--sites", "square-3m", "--frames", "10",
             "--update-days", "30", "--day", "30"]
        ) == 0
        out = capsys.readouterr().out
        # commissioning epoch + one refresh
        assert " 2 " in out

    def test_serve_honors_global_scenario_flag(self, capsys):
        assert main(
            ["--scenario", "square-3m", "serve", "--frames", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "square-3m" in out
        assert "paper" not in out

    def test_serve_scenario_file_site(self, capsys, tmp_path):
        from repro.sim.specs import get_scenario_spec

        path = tmp_path / "site.json"
        path.write_text(get_scenario_spec("square-3m").to_json())
        assert main(
            ["--scenario-file", str(path), "serve", "--frames", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "square-3m" in out

    def test_query_explicit_cells(self, capsys):
        assert main(
            ["--scenario", "square-3m", "query", "--cells", "0", "7",
             "--day", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 frame(s)" in out
        assert "median error" in out

    def test_query_random_frames_with_update(self, capsys):
        assert main(
            ["--scenario", "square-3m", "query", "--frames", "2",
             "--update-days", "20", "--day", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "day 20" in out

    def test_query_unknown_scenario_fails_cleanly(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["--scenario", "submarine", "query"])


class TestSubSeeds:
    def test_adjacent_master_seeds_cannot_collide(self):
        """The PR-4 bugfix: with the old ``seed + 1`` / ``seed + 2`` scheme,
        sweeping adjacent --seed values reused collector streams (seed 0's
        trace collector == seed 1's system collector). task_key-derived
        sub-seeds are distinct across both label and master seed."""
        labels = ("quickstart-system", "quickstart-trace")
        derived = [
            _sub_seed(seed, label)
            for seed, label in itertools.product(range(8), labels)
        ]
        assert len(set(derived)) == len(derived)

    def test_sub_seed_is_deterministic(self):
        assert _sub_seed(3, "quickstart-system") == _sub_seed(
            3, "quickstart-system"
        )
        assert _sub_seed(3, "a") != _sub_seed(3, "b")


#: Runs ``serve`` through ``main`` with the command swapped for a probe
#: that reports what the command would start with.
_SERVE_PROBE = """
import json, os, sys
import repro.cli as cli
def probe(args):
    print(json.dumps({
        "numpy_loaded": "numpy" in sys.modules,
        "env": {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES},
    }))
    return 0
cli._COMMANDS["serve"] = probe
cli.main(["serve"])
"""

#: One fixed-seed update on a mid-sized site; prints the epoch's digest.
_EPOCH_DIGEST = """
import hashlib
from repro.core.pipeline import TafLoc
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario
scenario = build_scenario("square-12m", seed=3)
protocol = CollectionProtocol(samples_per_cell=3, empty_room_samples=5)
system = TafLoc(RssCollector(scenario, protocol, seed=1))
system.commission(day=0.0)
report = system.update(day=30.0)
print(hashlib.sha256(report.reconstruction.fingerprint.values.tobytes()).hexdigest())
"""


class TestBlasThreadCap:
    def test_importing_the_cli_loads_no_numpy(self):
        assert _python(
            "import sys, repro.cli; print('numpy' in sys.modules)"
        ).strip() == "False"

    def test_serve_caps_every_variable_before_numpy_loads(self):
        seen = json.loads(_python(_SERVE_PROBE))
        assert seen["numpy_loaded"] is False
        assert seen["env"] == {name: "1" for name in BLAS_THREAD_VARIABLES}

    def test_serve_leaves_an_operator_set_value_alone(self):
        seen = json.loads(_python(_SERVE_PROBE, OMP_NUM_THREADS="2"))
        assert seen["env"] == {
            "OPENBLAS_NUM_THREADS": None,
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }

    def test_only_serve_is_capped(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setitem(repro.cli._COMMANDS, "floorplan", lambda args: 0)
        assert main(["floorplan"]) == 0
        assert not any(name in os.environ for name in BLAS_THREAD_VARIABLES)

    def test_a_fixed_seed_epoch_is_bit_equal_at_one_and_two_threads(self):
        one = _python(_EPOCH_DIGEST, OPENBLAS_NUM_THREADS="1")
        two = _python(_EPOCH_DIGEST, OPENBLAS_NUM_THREADS="2")
        assert one == two
