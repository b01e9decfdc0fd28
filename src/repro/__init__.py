"""TafLoc reproduction: time-adaptive device-free localization.

A from-scratch reproduction of *TafLoc: Time-adaptive and Fine-grained
Device-free Localization with Little Cost* (SIGCOMM 2016), including the
radio-testbed substrate, the fingerprint-matrix reconstruction scheme
(LoLi-IR), the RTI and RASS comparators, and the evaluation harness that
regenerates every figure of the paper.

Quickstart::

    from repro import build_paper_scenario, RssCollector, TafLoc

    scenario = build_paper_scenario(seed=0)
    system = TafLoc(RssCollector(scenario, seed=1))
    system.commission(day=0.0)          # one full survey
    system.update(day=45.0)             # cheap refresh: 10 cells, not 96
    live = RssCollector(scenario, seed=2).live_vector(45.0, cell=37)
    print(system.localize(live, day=45.0).position)
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:
    from repro.baselines import RassConfig, RassLocalizer, RtiConfig, RtiLocalizer
    from repro.core import (
        FingerprintDatabase,
        FingerprintMatrix,
        KnnMatcher,
        LoliIrConfig,
        LoliIrSolver,
        NearestNeighborMatcher,
        ProbabilisticMatcher,
        ReconstructionConfig,
        Reconstructor,
        TafLoc,
        TafLocConfig,
        select_references,
    )
    from repro.sim import (
        ChannelModel,
        ChannelParams,
        Deployment,
        FingerprintSurvey,
        KnifeEdgeShadowingModel,
        LiveTrace,
        RssCollector,
        Scenario,
        ScenarioSpec,
        build_paper_deployment,
        build_scenario,
        build_square_deployment,
        get_scenario_spec,
        list_scenarios,
        scenario_names,
    )
    from repro.sim.scenario import build_paper_scenario

__version__ = "1.0.0"

__all__ = [
    "ChannelModel",
    "ChannelParams",
    "Deployment",
    "FingerprintDatabase",
    "FingerprintMatrix",
    "FingerprintSurvey",
    "KnifeEdgeShadowingModel",
    "KnnMatcher",
    "LiveTrace",
    "LoliIrConfig",
    "LoliIrSolver",
    "NearestNeighborMatcher",
    "ProbabilisticMatcher",
    "RassConfig",
    "RassLocalizer",
    "ReconstructionConfig",
    "Reconstructor",
    "RssCollector",
    "RtiConfig",
    "RtiLocalizer",
    "Scenario",
    "ScenarioSpec",
    "TafLoc",
    "TafLocConfig",
    "build_paper_deployment",
    "build_paper_scenario",
    "build_scenario",
    "build_square_deployment",
    "get_scenario_spec",
    "list_scenarios",
    "scenario_names",
    "select_references",
]

#: Where each public name lives. Importing ``repro`` loads none of these
#: modules; the first access of a name imports its module (PEP 562), so a
#: stdlib-only tool such as ``python -m repro.analysis`` never loads numpy.
_EXPORTS: Dict[str, str] = {
    "RassConfig": "repro.baselines",
    "RassLocalizer": "repro.baselines",
    "RtiConfig": "repro.baselines",
    "RtiLocalizer": "repro.baselines",
    "FingerprintDatabase": "repro.core",
    "FingerprintMatrix": "repro.core",
    "KnnMatcher": "repro.core",
    "LoliIrConfig": "repro.core",
    "LoliIrSolver": "repro.core",
    "NearestNeighborMatcher": "repro.core",
    "ProbabilisticMatcher": "repro.core",
    "ReconstructionConfig": "repro.core",
    "Reconstructor": "repro.core",
    "TafLoc": "repro.core",
    "TafLocConfig": "repro.core",
    "select_references": "repro.core",
    "ChannelModel": "repro.sim",
    "ChannelParams": "repro.sim",
    "Deployment": "repro.sim",
    "FingerprintSurvey": "repro.sim",
    "KnifeEdgeShadowingModel": "repro.sim",
    "LiveTrace": "repro.sim",
    "RssCollector": "repro.sim",
    "Scenario": "repro.sim",
    "ScenarioSpec": "repro.sim",
    "build_paper_deployment": "repro.sim",
    "build_scenario": "repro.sim",
    "build_square_deployment": "repro.sim",
    "get_scenario_spec": "repro.sim",
    "list_scenarios": "repro.sim",
    "scenario_names": "repro.sim",
    "build_paper_scenario": "repro.sim.scenario",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
