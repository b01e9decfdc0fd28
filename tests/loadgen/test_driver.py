"""Load drivers: zero failed/mismatched at tiny scale, honest counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.loadgen.driver import expected_answers, run_closed_loop, run_open_loop
from repro.loadgen.plan import closed_loop_plan, open_loop_plan
from repro.serve import AioFrontend, LocalizationService, ServiceClient
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario, get_scenario_spec
from repro.util.rng import counter_stream, task_key

SEED = 2016
SITES = ("alpha", "beta")


@pytest.fixture(scope="module")
def serving():
    """A warm two-site service + workload frames + reference answers."""
    spec = get_scenario_spec("square-3m")
    protocol = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
    service = LocalizationService.from_specs(
        {site: spec for site in SITES}, protocol=protocol, seed=SEED
    )
    service.warm()
    scenario = build_scenario(spec.with_seed(SEED))
    cells = counter_stream(SEED, 77).integers(
        0, scenario.deployment.cell_count, size=4
    )
    trace = RssCollector(
        scenario, protocol, seed=task_key(SEED, "driver-test")
    ).live_trace(0.0, cells)
    workloads = {site: trace.rss for site in SITES}
    expected = expected_answers(service, workloads, 0.0)
    return service, workloads, expected


class _QueryOnly:
    """In-process connect target without ``close`` (the service outlives
    the driver)."""

    def __init__(self, service):
        self._service = service

    def query(self, site, rss, day):
        return self._service.query(site, rss, day)


def test_open_loop_inproc_is_clean(serving):
    service, workloads, expected = serving
    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=800.0, requests=48, zipf_s=1.1
    )
    result = run_open_loop(
        plan,
        lambda: _QueryOnly(service),
        workloads,
        expected=expected,
        transport="inproc",
    )
    assert result.completed == 48
    assert result.failed == 0
    assert result.mismatched == 0
    assert result.histogram.count == 48
    summary = result.summary()
    assert summary["arrival"] == "open"
    assert summary["latency"]["p50_ms"] <= summary["latency"]["p99_ms"]


def test_open_loop_over_http_is_bit_identical(serving):
    service, workloads, expected = serving
    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=400.0, requests=32, zipf_s=1.1
    )
    with AioFrontend(service) as frontend:
        result = run_open_loop(
            plan,
            lambda: ServiceClient(frontend.http_address, retries=0),
            workloads,
            expected=expected,
            transport="http",
        )
    assert result.completed == 32
    assert result.failed == 0
    assert result.mismatched == 0


def test_open_loop_counts_mismatches(serving):
    service, workloads, expected = serving
    # Poison one expected answer: exactly the requests that hit that
    # (site, frame) slot must be counted as mismatched, nothing else.
    poisoned = {
        site: list(answers) for site, answers in expected.items()
    }
    poisoned["alpha"][0] = (poisoned["alpha"][0][0] + 1, (0.0, 0.0))
    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=800.0, requests=48, zipf_s=1.1
    )
    hits = sum(
        1
        for index in range(plan.requests)
        if plan.site_name(index) == "alpha" and index % 4 == 0
    )
    assert hits > 0
    result = run_open_loop(
        plan,
        lambda: _QueryOnly(service),
        workloads,
        expected=poisoned,
        transport="inproc",
    )
    assert result.mismatched == hits
    assert result.failed == 0


def test_open_loop_counts_failures(serving):
    service, workloads, expected = serving

    class Flaky(_QueryOnly):
        def __init__(self, service):
            super().__init__(service)
            self._calls = 0

        def query(self, site, rss, day):
            self._calls += 1
            if self._calls % 4 == 0:
                raise ConnectionError("injected")
            return super().query(site, rss, day)

    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=800.0, requests=40, clients=1
    )
    result = run_open_loop(
        plan, lambda: Flaky(service), workloads, expected=expected,
        transport="inproc",
    )
    assert result.failed == 10
    assert result.completed == 30


def test_open_loop_connect_failure_raises_not_hangs(serving):
    _, workloads, _ = serving
    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=800.0, requests=8
    )

    def bad_connect():
        raise ConnectionRefusedError("no server")

    with pytest.raises(ConnectionRefusedError):
        run_open_loop(plan, bad_connect, workloads)


def test_open_loop_rejects_closed_plan(serving):
    service, workloads, _ = serving
    plan = closed_loop_plan(
        sites=SITES, seed=SEED, clients=2, requests_per_client=4
    )
    with pytest.raises(ValueError, match="open plan"):
        run_open_loop(plan, lambda: _QueryOnly(service), workloads)


def test_closed_loop_inproc_is_clean(serving):
    service, workloads, expected = serving
    plan = closed_loop_plan(
        sites=SITES, seed=SEED, clients=3, requests_per_client=8,
        think_s=0.0005, zipf_s=1.1,
    )
    result = run_closed_loop(
        plan,
        lambda: _QueryOnly(service),
        workloads,
        expected=expected,
        transport="inproc",
    )
    assert result.arrival == "closed"
    assert result.completed == 24
    assert result.failed == 0
    assert result.mismatched == 0
    assert result.offered_qps == 0.0


def test_closed_loop_rejects_open_plan(serving):
    service, workloads, _ = serving
    plan = open_loop_plan(
        sites=SITES, seed=SEED, rate_qps=100.0, requests=8
    )
    with pytest.raises(ValueError, match="closed plan"):
        run_closed_loop(plan, lambda: _QueryOnly(service), workloads)


def test_expected_answers_are_reused_across_identical_sites(serving):
    service, workloads, expected = serving
    # Both sites share one spec (and thus one deduped pipeline): the
    # reference answers must agree frame-for-frame.
    assert expected["alpha"] == expected["beta"]
    assert service.manager.stats.pipelines_built == 1
    assert len(expected["alpha"]) == len(workloads["alpha"])
