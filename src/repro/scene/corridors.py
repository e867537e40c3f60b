"""Named multi-obstacle corridor scenarios for campaign drives.

The paper's deployment story (Sec. II, VI) is not "one obstacle on an
empty road": PerceptIn's confidence came from driving the same stack
through many *structured* situations — slalom rows of planters, narrow
gates, pedestrians stepping out from behind parked vans, oncoming carts
in a shared corridor, and dead-end clutter that demands a clean stop.
This module is that situation library.  Each scenario is a **named,
seeded generator**: ``generate_corridor("slalom", seed=7)`` always
builds the same world, and different seeds jitter geometry and agent
kinematics within the scenario's envelope, so a campaign can sweep
``scenario x seed`` cells and every cell is replayable bit-identically.

Scenarios plug into three consumers:

* the closed-loop SoV (:func:`make_corridor_sov` wires world, lane map,
  start state, duration, and any built-in fault scenario);
* the fault/chaos campaigns (``ChaosConfig(corridor="slalom")`` drives
  sampled fault scenarios down these worlds instead of the single-
  obstacle drill lane);
* the invariant harness (:mod:`repro.testing.invariants`), which checks
  the safety properties over the full scenario matrix.

Sensor-degraded variants carry a built-in
:class:`~repro.robustness.faults.FaultScenario` (flaky camera frames,
GPS denial, lossy CAN) — single failures the Sec. III-C architecture is
designed to survive, so the protected no-collision invariant must hold
on them too.

Generated worlds keep a spawn-clearance disc around the ego start pose
(no obstacle surface within :data:`SPAWN_CLEAR_RADIUS_M` of the origin)
and, unless the scenario is :attr:`CorridorScenario.blocked`, leave a
drivable gap through the corridor (checked against the planner's own
collision geometry by :func:`repro.planning.collision.corridor_blocked_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..planning.collision import EGO_RADIUS_M  # noqa: F401 (re-exported)
from ..robustness.faults import (
    CameraFrameDropFault,
    CanBusFault,
    FaultScenario,
    FaultWindow,
    GpsDenialFault,
    PerceptionStallFault,
)
from .lanes import LaneMap, straight_corridor
from .world import Agent, Landmark, Obstacle, World

#: No obstacle surface may intrude into this disc around the ego start
#: pose at (0, 0) — the spawn-clearance property the world tests check.
SPAWN_CLEAR_RADIUS_M = 6.0


@dataclass(frozen=True)
class CorridorScenario:
    """One generated corridor drive: world + map + start + expectations."""

    name: str
    seed: int
    description: str
    world: World
    lane_map: LaneMap
    initial_speed_mps: float
    duration_s: float
    n_lanes: int
    corridor_length_m: float
    #: Built-in fault schedule (sensor-degraded variants); None = clean.
    fault_scenario: Optional[FaultScenario] = None
    #: True when the corridor is intentionally impassable: the expected
    #: safe outcome is a stop (reactive hold or SAFE_STOP), not progress.
    blocked: bool = False

    @property
    def degraded(self) -> bool:
        return self.fault_scenario is not None


#: A builder receives (rng, seed) and returns a scenario.
_Builder = Callable[[np.random.Generator, int], CorridorScenario]

_REGISTRY: Dict[str, _Builder] = {}


def _corridor(name: str):
    """Decorator registering a corridor scenario builder under *name*."""

    def wrap(fn: _Builder) -> _Builder:
        if name in _REGISTRY:
            raise ValueError(f"duplicate corridor scenario {name!r}")
        _REGISTRY[name] = fn
        return fn

    return wrap


def corridor_names() -> List[str]:
    """All registered scenario names, sorted (the campaign sweep order)."""
    return sorted(_REGISTRY)


def generate_corridor(name: str, seed: int = 0) -> CorridorScenario:
    """Build scenario *name* for *seed* (same pair -> same world).

    The builder RNG derives from ``SeedSequence((seed, digest(name)))``
    so two scenarios sharing a seed still draw independent geometry.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown corridor scenario {name!r}; known: {corridor_names()}"
        ) from None
    digest = sum(ord(c) * (i + 1) for i, c in enumerate(name))
    rng = np.random.default_rng(np.random.SeedSequence((seed, digest)))
    scenario = builder(rng, seed)
    check_spawn_clearance(scenario)
    return scenario


def generate_suite(seed: int = 0) -> List[CorridorScenario]:
    """Every registered scenario at *seed*, in name order."""
    return [generate_corridor(name, seed) for name in corridor_names()]


def check_spawn_clearance(scenario: CorridorScenario) -> None:
    """Generated worlds must never drop an obstacle on the start pose.

    Shared with every scene provider (:mod:`repro.scene.providers`): the
    procedural generator enforces the identical spawn guarantee.
    """
    for obstacle in scenario.world.obstacles:
        clearance = obstacle.distance_to(0.0, 0.0)
        if clearance < SPAWN_CLEAR_RADIUS_M:
            raise ValueError(
                f"{scenario.name!r} (seed {scenario.seed}) spawned obstacle "
                f"{obstacle.obstacle_id} only {clearance:.2f} m from the ego "
                f"start pose (need {SPAWN_CLEAR_RADIUS_M} m)"
            )


def _landmarks(
    rng: np.random.Generator, length_m: float, n: int = 60
) -> List[Landmark]:
    """Roadside landmarks lining the corridor (what the VIO tracks)."""
    return [
        Landmark(
            landmark_id=i,
            x_m=float(rng.uniform(0.0, length_m)),
            y_m=float(rng.uniform(5.0, 12.0) * rng.choice([-1.0, 1.0])),
            z_m=float(rng.uniform(0.5, 5.0)),
        )
        for i in range(n)
    ]


def make_corridor_sov(
    scenario: CorridorScenario,
    safety_net: bool = True,
    extra_faults: Sequence = (),
    config: Optional[object] = None,
):
    """Wire a scenario into a ready-to-drive :class:`SystemsOnAVehicle`.

    ``safety_net=False`` yields the unprotected ablation arm (reactive
    path and degradation supervisor disabled).  *extra_faults* are merged
    with the scenario's built-in fault schedule (the chaos campaign uses
    this to drive sampled faults down corridor worlds).  Pass a prebuilt
    :class:`~repro.runtime.sov.SovConfig` as *config* to take full
    control.
    """
    # Imported lazily: repro.runtime.sov imports repro.scene modules, so
    # a top-level import here would be circular.
    from ..runtime.sov import SovConfig, SystemsOnAVehicle
    from ..vehicle.dynamics import VehicleState

    faults = tuple(
        () if scenario.fault_scenario is None else scenario.fault_scenario.faults
    ) + tuple(extra_faults)
    fault_scenario = None
    if faults:
        fault_scenario = FaultScenario(
            name=f"{scenario.name}-{scenario.seed}",
            faults=faults,
            description=f"corridor {scenario.name!r} fault schedule",
        )
    if config is None:
        config = SovConfig(
            reactive_enabled=safety_net,
            degradation_enabled=safety_net,
            scenario=fault_scenario,
            seed=scenario.seed,
        )
    return SystemsOnAVehicle(
        world=scenario.world,
        lane_map=scenario.lane_map,
        initial_state=VehicleState(speed_mps=scenario.initial_speed_mps),
        config=config,
    )


def run_corridor_drive(
    name: str,
    seed: int = 0,
    safety_net: bool = True,
    attribution: bool = True,
):
    """Generate + drive one scenario cell; returns (scenario, DriveResult).

    Attribution is RNG-free bookkeeping, so enabling it (the default)
    leaves the drive bit-identical to an unobserved run — the invariant
    harness relies on both facts.
    """
    scenario = generate_corridor(name, seed)
    sov = make_corridor_sov(scenario, safety_net=safety_net)
    if attribution:
        sov.enable_attribution()
    result = sov.drive(scenario.duration_s)
    return scenario, result


# -- the scenario library ------------------------------------------------------


@_corridor("slalom")
def _slalom(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """Alternating planters force repeated lane changes (Sec. III-D:
    maneuvering at lane granularity is the vehicles' whole vocabulary)."""
    length = 400.0
    obstacles = []
    for i, base_x in enumerate((25.0, 45.0, 65.0, 85.0)):
        lane_y = 0.0 if i % 2 == 0 else 2.5
        obstacles.append(
            Obstacle(
                x_m=base_x + float(rng.uniform(-2.0, 2.0)),
                y_m=lane_y + float(rng.uniform(-0.3, 0.3)),
                radius_m=float(rng.uniform(0.45, 0.65)),
                obstacle_id=i,
            )
        )
    world = World(obstacles=obstacles, landmarks=_landmarks(rng, length))
    return CorridorScenario(
        name="slalom",
        seed=seed,
        description="alternating in-lane planters; repeated lane changes",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=2),
        initial_speed_mps=5.6,
        duration_s=18.0,
        n_lanes=2,
        corridor_length_m=length,
    )


@_corridor("narrow_gap")
def _narrow_gap(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """A gate of flanking obstacles: the single lane threads a gap that
    leaves lateral room but no swerve option."""
    length = 300.0
    gate_x = 30.0 + float(rng.uniform(-3.0, 3.0))
    half_gap = float(rng.uniform(1.9, 2.4))
    radius = float(rng.uniform(0.4, 0.6))
    obstacles = [
        Obstacle(gate_x, half_gap + radius, radius_m=radius, obstacle_id=0),
        Obstacle(gate_x, -(half_gap + radius), radius_m=radius, obstacle_id=1),
        # A second, offset gate farther down the corridor.
        Obstacle(
            gate_x + 30.0,
            half_gap + 0.4 + radius,
            radius_m=radius,
            obstacle_id=2,
        ),
        Obstacle(
            gate_x + 30.0,
            -(half_gap + 0.4 + radius),
            radius_m=radius,
            obstacle_id=3,
        ),
    ]
    world = World(obstacles=obstacles, landmarks=_landmarks(rng, length))
    return CorridorScenario(
        name="narrow_gap",
        seed=seed,
        description="two flanking gates on a single lane; no swerve room",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=1),
        initial_speed_mps=5.6,
        duration_s=14.0,
        n_lanes=1,
        corridor_length_m=length,
    )


@_corridor("occluded_crossing")
def _occluded_crossing(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """A pedestrian steps out from behind a parked van: the proactive
    path sees them late, the reactive path guards the gap (Sec. IV)."""
    length = 300.0
    van_x = 28.0 + float(rng.uniform(-2.0, 2.0))
    # The pedestrian starts behind the van (occluded roadside) and
    # crosses the lane as the ego arrives.
    walk_speed = float(rng.uniform(0.8, 1.2))
    ped = Agent(
        agent_id=0,
        x_m=van_x + 4.0 + float(rng.uniform(0.0, 2.0)),
        y_m=-5.0,
        vx_mps=0.0,
        vy_mps=walk_speed,
        radius_m=0.4,
        kind="pedestrian",
    )
    world = World(
        obstacles=[Obstacle(van_x, -3.6, radius_m=1.2, obstacle_id=0)],
        agents=[ped],
        landmarks=_landmarks(rng, length),
    )
    return CorridorScenario(
        name="occluded_crossing",
        seed=seed,
        description="pedestrian crossing from behind a parked van",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=2),
        initial_speed_mps=5.6,
        duration_s=14.0,
        n_lanes=2,
        corridor_length_m=length,
    )


@_corridor("oncoming_agent")
def _oncoming_agent(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """A cart coming head-on in the ego lane of a shared corridor: yield
    to the adjacent lane or brake."""
    length = 400.0
    cart = Agent(
        agent_id=0,
        x_m=70.0 + float(rng.uniform(-5.0, 5.0)),
        y_m=0.0,
        vx_mps=-float(rng.uniform(1.2, 2.0)),
        vy_mps=0.0,
        radius_m=0.5,
        kind="cart",
    )
    # A parked obstacle in the passing lane makes the yield non-trivial.
    parked = Obstacle(
        x_m=95.0 + float(rng.uniform(-4.0, 4.0)),
        y_m=2.5,
        radius_m=0.5,
        obstacle_id=0,
    )
    world = World(
        obstacles=[parked], agents=[cart], landmarks=_landmarks(rng, length)
    )
    return CorridorScenario(
        name="oncoming_agent",
        seed=seed,
        description="head-on cart in the ego lane; parked cart in the other",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=2),
        initial_speed_mps=5.6,
        duration_s=16.0,
        n_lanes=2,
        corridor_length_m=length,
    )


@_corridor("pedestrian_platoon")
def _pedestrian_platoon(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """A walking group strung along the lane ahead: follow or pass
    without contact (the tourist-site default)."""
    length = 400.0
    agents = []
    for i in range(3):
        agents.append(
            Agent(
                agent_id=i,
                x_m=18.0 + 8.0 * i + float(rng.uniform(-1.5, 1.5)),
                y_m=float(rng.uniform(-0.6, 0.6)),
                vx_mps=float(rng.uniform(0.9, 1.3)),
                vy_mps=0.0,
                radius_m=0.4,
                kind="pedestrian",
            )
        )
    world = World(agents=agents, landmarks=_landmarks(rng, length))
    return CorridorScenario(
        name="pedestrian_platoon",
        seed=seed,
        description="walking group ahead in-lane; follow or pass",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=2),
        initial_speed_mps=5.6,
        duration_s=16.0,
        n_lanes=2,
        corridor_length_m=length,
    )


@_corridor("cluttered_stop")
def _cluttered_stop(rng: np.random.Generator, seed: int) -> CorridorScenario:
    """Clutter spanning every lane: the only safe outcome is a stop.

    This is the one intentionally *blocked* corridor — the invariant
    harness expects zero collisions and no forward escape, i.e. the
    reactive path (or supervisor) holds the vehicle short of the wall.
    """
    length = 200.0
    wall_x = 30.0 + float(rng.uniform(-2.0, 2.0))
    obstacles = [
        Obstacle(
            x_m=wall_x + float(rng.uniform(-0.5, 0.5)),
            y_m=y,
            radius_m=float(rng.uniform(0.7, 0.9)),
            obstacle_id=i,
        )
        for i, y in enumerate((-1.2, 1.2, 3.6))
    ]
    world = World(obstacles=obstacles, landmarks=_landmarks(rng, length))
    return CorridorScenario(
        name="cluttered_stop",
        seed=seed,
        description="clutter wall across both lanes; stop short of it",
        world=world,
        lane_map=straight_corridor(length_m=length, n_lanes=2),
        initial_speed_mps=5.6,
        duration_s=12.0,
        n_lanes=2,
        corridor_length_m=length,
        blocked=True,
    )


# -- sensor-degraded variants --------------------------------------------------
#
# Each carries a single survivable fault (Sec. III-C: "any single
# failure") layered on one of the clean geometries, so the protected
# no-collision invariant must still hold.


@_corridor("slalom_flaky_camera")
def _slalom_flaky_camera(
    rng: np.random.Generator, seed: int
) -> CorridorScenario:
    """The slalom with Bernoulli camera-frame loss mid-run: the vision
    pipeline flickers while the radar keeps the forward cone truthful."""
    base = _slalom(rng, seed)
    onset = 1.0 + float(rng.uniform(0.0, 1.0))
    fault = CameraFrameDropFault(
        drop_prob=float(rng.uniform(0.3, 0.6)),
        window=FaultWindow(onset, onset + 4.0),
    )
    return CorridorScenario(
        name="slalom_flaky_camera",
        seed=seed,
        description="slalom geometry + camera frame drops (radar intact)",
        world=base.world,
        lane_map=base.lane_map,
        initial_speed_mps=base.initial_speed_mps,
        duration_s=base.duration_s,
        n_lanes=base.n_lanes,
        corridor_length_m=base.corridor_length_m,
        fault_scenario=FaultScenario(
            name=f"slalom-flaky-camera-{seed}",
            faults=(fault,),
            description="camera frame drops over the slalom",
        ),
    )


@_corridor("narrow_gap_gps_denied")
def _narrow_gap_gps_denied(
    rng: np.random.Generator, seed: int
) -> CorridorScenario:
    """The narrow gap under GPS denial: the supervisor caps speed
    (DEGRADED) while the gates are threaded on vision + radar alone."""
    base = _narrow_gap(rng, seed)
    onset = float(rng.uniform(0.5, 1.5))
    fault = GpsDenialFault(window=FaultWindow(onset, onset + 5.0))
    return CorridorScenario(
        name="narrow_gap_gps_denied",
        seed=seed,
        description="narrow-gap gates threaded under GPS denial",
        world=base.world,
        lane_map=base.lane_map,
        initial_speed_mps=base.initial_speed_mps,
        duration_s=base.duration_s,
        n_lanes=base.n_lanes,
        corridor_length_m=base.corridor_length_m,
        fault_scenario=FaultScenario(
            name=f"narrow-gap-gps-denied-{seed}",
            faults=(fault,),
            description="GPS denial across the gates",
        ),
    )


@_corridor("cluttered_stop_lossy_can")
def _cluttered_stop_lossy_can(
    rng: np.random.Generator, seed: int
) -> CorridorScenario:
    """The clutter wall behind a lossy CAN bus: brake frames are dropped
    and delayed, so the stop leans on retransmission + the reactive
    path's direct ECU entry."""
    base = _cluttered_stop(rng, seed)
    onset = float(rng.uniform(0.0, 1.0))
    fault = CanBusFault(
        window=FaultWindow(onset, onset + 5.0),
        loss_prob=float(rng.uniform(0.2, 0.4)),
        extra_delay_s=float(rng.uniform(0.001, 0.004)),
    )
    return CorridorScenario(
        name="cluttered_stop_lossy_can",
        seed=seed,
        description="clutter-wall stop over a lossy, delayed CAN bus",
        world=base.world,
        lane_map=base.lane_map,
        initial_speed_mps=base.initial_speed_mps,
        duration_s=base.duration_s,
        n_lanes=base.n_lanes,
        corridor_length_m=base.corridor_length_m,
        fault_scenario=FaultScenario(
            name=f"cluttered-stop-lossy-can-{seed}",
            faults=(fault,),
            description="CAN loss/delay burst during the approach",
        ),
        blocked=True,
    )


@_corridor("occluded_crossing_stalled")
def _occluded_crossing_stalled(
    rng: np.random.Generator, seed: int
) -> CorridorScenario:
    """The occluded crossing while perception pays a latency stall: the
    Eq. 1 budget is pressured exactly when the pedestrian appears, so
    deadline-miss attribution has something to charge."""
    base = _occluded_crossing(rng, seed)
    onset = float(rng.uniform(1.0, 2.0))
    fault = PerceptionStallFault(
        extra_latency_s=float(rng.uniform(0.15, 0.3)),
        window=FaultWindow(onset, onset + 3.0),
    )
    return CorridorScenario(
        name="occluded_crossing_stalled",
        seed=seed,
        description="occluded crossing under a perception latency stall",
        world=base.world,
        lane_map=base.lane_map,
        initial_speed_mps=base.initial_speed_mps,
        duration_s=base.duration_s,
        n_lanes=base.n_lanes,
        corridor_length_m=base.corridor_length_m,
        fault_scenario=FaultScenario(
            name=f"occluded-crossing-stalled-{seed}",
            faults=(fault,),
            description="perception stall while the pedestrian crosses",
        ),
    )


# -- provider registration -----------------------------------------------------
#
# The hand-named corridor library is the *default* scene provider: bare
# scene names everywhere in the repo ("slalom", "narrow_gap", ...) keep
# resolving here, while qualified ids ("corridor:slalom",
# "procgen:crossroads") address any registered provider.

from .providers import SceneProvider, register_scene_provider  # noqa: E402

register_scene_provider(
    SceneProvider(
        name="corridor",
        list_scenes=corridor_names,
        build=generate_corridor,
    )
)
