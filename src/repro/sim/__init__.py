"""Radio-testbed substrate: geometry, channel, target shadowing, drift.

This subpackage stands in for the paper's Atheros AR9331 testbed. It
produces RSS measurement streams with the same structural properties the
TafLoc solver exploits: an approximately low-rank fingerprint matrix, linear
correlation between reference columns and the rest, and continuity/similarity
of the target-blocked ("largely distorted") entries.
"""

from repro.sim.channel import ChannelModel, ChannelParams
from repro.sim.collector import CollectionProtocol, RssCollector, SurveyResult
from repro.sim.deployment import (
    Deployment,
    build_paper_deployment,
    build_perimeter_deployment,
    build_square_deployment,
)
from repro.sim.drift import (
    CompositeDrift,
    EntryFieldDrift,
    GaussMarkovDrift,
    LinearDrift,
    RandomWalkDrift,
)
from repro.sim.geometry import Grid, Link, Point, Room
from repro.sim.interference import BurstyInterferenceModel, InterferenceSpec
from repro.sim.mobility import (
    MobilityModel,
    MobilitySpec,
    RandomWalkModel,
    RandomWaypointModel,
    ScriptedRoute,
    collect_mobility_trace,
)
from repro.sim.scenario import Scenario, StructuralEvent, build_paper_scenario
from repro.sim.specs import (
    DriftSpec,
    EntryDriftSpec,
    EventSpec,
    GeometrySpec,
    ScenarioSpec,
    ShadowingSpec,
    as_scenario_spec,
    build_deployment,
    build_scenario,
    get_scenario_spec,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.sim.shadowing import (
    CompositeShadowingModel,
    EllipseShadowingModel,
    HeterogeneousBlockingModel,
    KnifeEdgeShadowingModel,
    ScatteringModel,
    ShadowingModel,
)
from repro.sim.trace import FingerprintSurvey, LiveTrace

__all__ = [
    "BurstyInterferenceModel",
    "ChannelModel",
    "ChannelParams",
    "CollectionProtocol",
    "CompositeDrift",
    "CompositeShadowingModel",
    "Deployment",
    "DriftSpec",
    "EllipseShadowingModel",
    "EntryDriftSpec",
    "EntryFieldDrift",
    "EventSpec",
    "FingerprintSurvey",
    "GaussMarkovDrift",
    "GeometrySpec",
    "Grid",
    "HeterogeneousBlockingModel",
    "InterferenceSpec",
    "KnifeEdgeShadowingModel",
    "LinearDrift",
    "Link",
    "LiveTrace",
    "MobilityModel",
    "MobilitySpec",
    "Point",
    "RandomWalkDrift",
    "RandomWalkModel",
    "RandomWaypointModel",
    "Room",
    "RssCollector",
    "ScenarioSpec",
    "ScriptedRoute",
    "ScatteringModel",
    "Scenario",
    "ShadowingModel",
    "ShadowingSpec",
    "StructuralEvent",
    "SurveyResult",
    "as_scenario_spec",
    "build_deployment",
    "build_paper_deployment",
    "build_paper_scenario",
    "build_perimeter_deployment",
    "build_scenario",
    "build_square_deployment",
    "collect_mobility_trace",
    "get_scenario_spec",
    "list_scenarios",
    "register_scenario",
    "scenario_names",
]
