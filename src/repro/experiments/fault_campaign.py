"""Fault-injection safety campaign (paper Sec. III-C, Sec. IV).

The paper's safety argument is an ablation: the proactive pipeline will
fail — cameras go dark, CAN frames get lost, perception crashes, GPS is
denied — and the vehicle stays safe because the reactive Radar/Sonar→ECU
path and the degradation supervisor catch what the pipeline drops.  This
study runs that ablation in closed loop: every default fault scenario is
driven twice down the same single-lane corridor toward an obstacle, once
with the safety net (reactive path + degradation supervisor) and once
without, and the campaign reports collisions, reactive interventions,
module availability, restart counts, and MTTR.

The expected shape, mirrored by ``benchmarks/test_fault_campaign.py``:
with the net, **zero collisions across every scenario**; without it, the
camera-blackout, CAN-burst, and perception-outage drills all end in a
collision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..robustness.faults import (
    CanBusFault,
    FaultScenario,
    FaultWindow,
    GpsDenialFault,
    PerceptionCrashFault,
    PerceptionStallFault,
    SensorDropoutFault,
)
from ..runtime.sov import DriveResult, SovConfig, SystemsOnAVehicle
from ..scene.lanes import straight_corridor
from ..scene.world import Obstacle, World
from ..vehicle.dynamics import VehicleState
from .base import ExperimentResult, Row, register

#: Obstacle center distance for every drill (surface is 0.4 m closer).
DRILL_OBSTACLE_DISTANCE_M = 25.0
#: Closed-loop duration of one drill — long enough that a module whose
#: last (truncated) repair lands after the fault window clears still
#: recovers to NOMINAL before the drill ends.
DRILL_DURATION_S = 10.0
#: Cruise speed entering the drill (the paper's typical 5.6 m/s).
DRILL_SPEED_MPS = 5.6


# -- the default scenario sweep ------------------------------------------------


def camera_blackout_scenario() -> FaultScenario:
    """Vision goes completely dark and *silently*: the perception task
    keeps heartbeating on empty frames, so only the reactive path can see
    the obstacle (the paper's scenario 2, made total)."""
    return FaultScenario(
        name="camera_blackout",
        faults=(SensorDropoutFault("camera", FaultWindow(0.0)),),
        description="total silent vision loss; radar is the only witness",
    )


def can_loss_burst_scenario() -> FaultScenario:
    """The command path dies exactly when braking matters: every CAN frame
    in the burst window is corrupted, so planner output never reaches the
    ECU.  The reactive path enters the ECU directly (Sec. IV) and is the
    only actor that can still brake."""
    return FaultScenario(
        name="can_loss_burst",
        faults=(
            CanBusFault(
                window=FaultWindow(1.0, 6.0),
                loss_prob=1.0,
                extra_delay_s=0.004,
            ),
        ),
        description="total CAN loss burst across the braking window",
    )


def perception_outage_scenario() -> FaultScenario:
    """Perception stalls, then crashes outright: the watchdog notices the
    missing heartbeats, keeps restarting the module (MTTR-sampled), and
    the degradation supervisor limps the vehicle while the reactive path
    guards the corridor."""
    return FaultScenario(
        name="perception_outage",
        faults=(
            PerceptionStallFault(
                extra_latency_s=0.8, window=FaultWindow(1.0, 1.5)
            ),
            PerceptionCrashFault(window=FaultWindow(1.5, 5.0)),
        ),
        description="latency stall escalating to a perception crash",
    )


def gps_denial_scenario() -> FaultScenario:
    """GPS fix lost mid-drive (urban canyon): localization degrades, the
    supervisor caps speed, and the (still-sighted) planner brakes for the
    obstacle under the cap."""
    return FaultScenario(
        name="gps_denial",
        faults=(GpsDenialFault(window=FaultWindow(1.0, 6.0)),),
        description="GPS denial across most of the approach",
    )


def radar_blackout_scenario() -> FaultScenario:
    """The *safety net itself* fails: radar drops out, the watchdog flags
    it, and the supervisor caps speed because the reactive envelope is
    gone — the proactive pipeline (healthy) must do all the stopping."""
    return FaultScenario(
        name="radar_blackout",
        faults=(SensorDropoutFault("radar", FaultWindow(0.0)),),
        description="reactive safety net unavailable; vision still up",
    )


#: Drill scenarios by name — the registry the fleet engine's
#: :class:`~repro.fleetops.cells.DrillCell` keys into, so a cell can
#: name its scenario with a picklable string instead of carrying the
#: scenario object across a process boundary.
DRILL_SCENARIOS = {
    "camera_blackout": camera_blackout_scenario,
    "can_loss_burst": can_loss_burst_scenario,
    "perception_outage": perception_outage_scenario,
    "gps_denial": gps_denial_scenario,
    "radar_blackout": radar_blackout_scenario,
}

#: Campaign order (part of the contract — tables and cells index by it).
DRILL_ORDER = (
    "camera_blackout",
    "can_loss_burst",
    "perception_outage",
    "gps_denial",
    "radar_blackout",
)


def drill_scenario(name: str) -> FaultScenario:
    """Build the named drill scenario (raises ``KeyError`` on unknown)."""
    try:
        return DRILL_SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown drill scenario {name!r}; known: {DRILL_ORDER}"
        ) from None


def default_scenarios() -> List[FaultScenario]:
    """The campaign's default sweep (order is part of the contract)."""
    return [DRILL_SCENARIOS[name]() for name in DRILL_ORDER]


#: Scenarios expected to collide when the safety net is disabled.
EXPECTED_UNSAFE = ("camera_blackout", "can_loss_burst", "perception_outage")


# -- the runner ----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignRun:
    """One drill: a scenario driven with or without the safety net."""

    scenario: FaultScenario
    safety_net: bool
    result: DriveResult

    @property
    def collided(self) -> bool:
        return self.result.collided

    @property
    def reactive_interventions(self) -> int:
        return self.result.ops.reactive_overrides

    @property
    def availability(self) -> float:
        health = self.result.health
        return 1.0 if health is None else health.worst_availability

    @property
    def restarts(self) -> int:
        health = self.result.health
        return 0 if health is None else health.total_restarts


def drill_sov(
    scenario: FaultScenario,
    safety_net: bool = True,
    obstacle_distance_m: float = DRILL_OBSTACLE_DISTANCE_M,
    seed: int = 0,
) -> SystemsOnAVehicle:
    """The drill-corridor vehicle for one fault scenario, ready to drive.

    ``safety_net=False`` disables both the reactive path and the
    degradation supervisor — the unprotected baseline the paper's safety
    argument ablates against.
    """
    world = World(obstacles=[Obstacle(obstacle_distance_m, 0.0, radius_m=0.4)])
    return SystemsOnAVehicle(
        world=world,
        lane_map=straight_corridor(length_m=300.0, n_lanes=1),
        initial_state=VehicleState(speed_mps=DRILL_SPEED_MPS),
        config=SovConfig(
            reactive_enabled=safety_net,
            degradation_enabled=safety_net,
            scenario=scenario,
            seed=seed,
        ),
    )


def run_drill(
    scenario: FaultScenario,
    safety_net: bool = True,
    obstacle_distance_m: float = DRILL_OBSTACLE_DISTANCE_M,
    duration_s: float = DRILL_DURATION_S,
    seed: int = 0,
) -> DriveResult:
    """Drive one fault scenario down the drill corridor (:func:`drill_sov`)."""
    sov = drill_sov(scenario, safety_net, obstacle_distance_m, seed)
    return sov.drive(duration_s)


def run_campaign(
    scenarios: Optional[Sequence[FaultScenario]] = None,
    safety_net: bool = True,
    seed: int = 0,
) -> List[CampaignRun]:
    """Run every scenario through one arm of the ablation."""
    runs = []
    for scenario in scenarios or default_scenarios():
        result = run_drill(scenario, safety_net=safety_net, seed=seed)
        runs.append(
            CampaignRun(scenario=scenario, safety_net=safety_net, result=result)
        )
    return runs


# -- the experiment ------------------------------------------------------------


@register("fault_campaign")
def fault_campaign() -> ExperimentResult:
    """The paper's safety-net claim, measured in closed loop.

    Paper values encode the qualitative claims: zero collisions with the
    reactive path in place (Sec. IV "the last line of defense") and >90%
    proactive-path residency (Sec. V-C).
    """
    protected = run_campaign(safety_net=True)
    unprotected = run_campaign(safety_net=False)
    collisions_with_net = sum(run.collided for run in protected)
    collisions_without_net = sum(run.collided for run in unprotected)
    interventions = sum(run.reactive_interventions for run in protected)
    worst_availability = min(run.availability for run in protected)
    restarts = sum(run.restarts for run in protected)
    mttrs = [
        run.result.health.mean_time_to_repair_s
        for run in protected
        if run.result.health is not None
        and run.result.health.mean_time_to_repair_s is not None
    ]
    rows = [
        Row(
            "collisions_with_safety_net",
            0.0,
            float(collisions_with_net),
            "count",
            "reactive + degradation catch every injected failure",
        ),
        Row(
            "collisions_without_safety_net",
            None,
            float(collisions_without_net),
            "count",
            f"expect >= {len(EXPECTED_UNSAFE)}: the unprotected baseline crashes",
        ),
        Row(
            "reactive_interventions",
            None,
            float(interventions),
            "count",
            "real triggers only (brake-holds excluded)",
        ),
        Row(
            "worst_module_availability",
            None,
            worst_availability,
            "frac",
            "lowest per-module availability across protected drills",
        ),
        Row(
            "module_restarts",
            None,
            float(restarts),
            "count",
            "watchdog-supervised restarts (MTTR-sampled)",
        ),
        Row(
            "mean_time_to_repair",
            None,
            sum(mttrs) / len(mttrs) if mttrs else 0.0,
            "s",
            "downtime per restart, averaged over restarting drills",
        ),
    ]
    series = {
        "per_scenario": [
            (
                run.scenario.name,
                int(run.collided),
                int(unprot.collided),
                run.reactive_interventions,
                round(run.availability, 4),
                run.result.final_mode,
            )
            for run, unprot in zip(protected, unprotected)
        ]
    }
    return ExperimentResult(
        "fault_campaign",
        "Fault-injection safety campaign (Sec. III-C / IV ablation)",
        rows,
        series=series,
    )
