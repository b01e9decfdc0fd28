# Developer entry points. `make test` is the tier-1 gate; `make bench`
# produces the committed perf-trajectory point (BENCH_PR10.json — every
# registered bench section: solve, engine, serving, frontend,
# frontend_async, resilience, trust, loadgen; narrow a run with
# `make bench BENCH_ONLY="--only loadgen"`).
#
# Every gate is a bench section's smoke gate, and every `*-smoke` target
# is `benchmarks/bench_perf.py --smoke` narrowed with `--only`:
# `make bench-smoke` runs every section (writes BENCH_SMOKE.json —
# PR-agnostic, never clobbers a committed BENCH_PR*.json);
# `make frontend-smoke` the wire/shard/aio bit-identity gates;
# `make resilience-smoke` the kill -9 / snapshot-restore / resize gates
# plus the anti-entropy trust gates (quorum read-repair under a
# corrupted replica, scrub detection of silent corruption, degraded-mode
# stale serving, snapshot keep-last-K retention); `make loadgen-smoke`
# the load-generator gates (open-loop SLO saturation search with
# bit-for-bit answer checks, plan determinism, the 200-site
# registration soak). On a gate failure the script exits 1 and prints
# the `--seed N --only …` command that replays it.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint typecheck analyze bench bench-smoke bench-figures \
	frontend-smoke resilience-smoke loadgen-smoke perfbench

test:
	$(PYTHON) -m pytest -q

# Mirrors CI's lint job (requires ruff; `pip install -r requirements-dev.txt`).
lint:
	ruff check .
	ruff format --check .

# Static type gate (requires mypy): strict on util/, serve/protocol.py and
# the analysis/ package, permissive elsewhere (config in pyproject.toml).
typecheck:
	mypy src/repro

# repro-lint: AST-based invariant checks (determinism RL-D*, lock
# discipline RL-C*, wire contract RL-W*) over src/repro. Fails on any
# finding not suppressed inline or grandfathered (with a reason) in
# analysis-baseline.json; always writes the full JSON report to
# ANALYSIS_FINDINGS.json (CI uploads it on failure). Needs only the
# stdlib + the repo itself — no third-party deps.
analyze:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --format text \
		--out ANALYSIS_FINDINGS.json

bench:
	$(PYTHON) benchmarks/bench_perf.py --out BENCH_PR10.json $(BENCH_ONLY)

# Writes to BENCH_SMOKE.json (gitignored territory) so a local smoke run
# never clobbers the committed full-bench BENCH_PR10.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --jobs 2 --out BENCH_SMOKE.json

# Wire server + sharded workers at toy scale: every transport (http,
# tcp, unix; sync, pipelined and streamed) and every shard count must
# answer bit-identically to the in-process service, scores included,
# and a wrong-site query must raise KeyError through every transport.
frontend-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --only frontend \
		--only frontend_async

# On a 3-shard R=2 snapshot-backed fleet: kill -9 each worker in turn
# under load (zero lost queries, bit-identical answers, snapshot-warmed
# respawn), resize the fleet live 3 -> 4 -> 2, then the anti-entropy
# episode — a corrupted replica hidden by quorum reads while the scrub
# alarms, quarantines and read-repairs; a silently corrupted secondary
# found by the scrub alone; degraded mode serving stale-marked snapshot
# answers when every replica is down; keep-last-K retention bounding
# the snapshot directory. The report (with its `seed`) always lands in
# RESILIENCE_SMOKE.json; CI uploads it on failure.
resilience-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --only resilience \
		--only trust --out RESILIENCE_SMOKE.json

# The load-generator gates: a seconds-scale open-loop SLO saturation
# search over the wire server with every answer checked bit-for-bit, a
# closed-loop comparison, the same-seed plan-determinism check, and a
# 200-site registration soak (one shared spec must dedupe to ONE
# pipeline). The report always lands in LOADGEN_SMOKE.json (CI uploads
# it on failure).
loadgen-smoke:
	$(PYTHON) benchmarks/bench_perf.py --smoke --only loadgen \
		--out LOADGEN_SMOKE.json

bench-figures:
	$(PYTHON) -m pytest benchmarks -q -p no:cacheprovider

# The end-to-end serving benchmark declared in BENCHMARK.json: one 30 s
# run of each workload at seed 1 against a real `serve` process, printing
# each run's result line. The full reports land in .perfbench_out/
# (gitignored); a failed or invalid run prints its report and exits 1.
perfbench:
	@mkdir -p .perfbench_out
	@for workload in interactive refresh; do \
		python3 perfbench/run.py --workload $$workload --seed 1 \
			--seconds 30 > .perfbench_out/$$workload.txt || \
			{ cat .perfbench_out/$$workload.txt; exit 1; }; \
		echo "$$workload: $$(tail -n 1 .perfbench_out/$$workload.txt)"; \
	done
