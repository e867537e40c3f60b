"""Seeded procedural scenario generation with intent-driven agents.

PR 4's corridor suite is 10 hand-named scenes; the fleet engine (PR 6)
is built to sweep thousands of cells.  This module closes that gap: an
open-ended, **seeded** scenario distribution in the spirit of the
PerceptIn deployment story (the stack is validated against situation
*families*, not a fixed scene list).

Three layers:

* :class:`ScenarioGrammar` composes road topology — straight corridors,
  T- and 4-way intersections, narrowing gaps — from independent seed
  streams, with the same spawn-clearance and traversability guarantees
  the hand-built corridors enforce
  (:func:`repro.scene.corridors.check_spawn_clearance`,
  :func:`repro.planning.collision.corridor_blocked_at`).  Intersections
  manifest as corner occluders, junction lane annotations, and crossing
  traffic on a straight ego corridor, so the lane-level planner
  semantics stay exactly those of the corridor suite.

* **Intent-driven moving agents**: oncoming carts that yield or assert,
  pedestrian platoons with a mid-drive straggler, occluded dynamic
  crossings, and crossing cyclists.  Each agent follows an
  :class:`AgentScript` of piecewise-constant-velocity phases executed by
  :class:`ScriptedWorld`; the agent's *current* phase velocity is what
  perception reports, so
  :func:`repro.planning.prediction.predict_constant_velocity`
  extrapolates the agent's current intent — and is wrong exactly when
  the intent changes, which is the situation the reactive path guards.

* **Mission-level scenarios**: every generated scene carries a
  :class:`MissionSpec` (a multi-leg route through corridors like it),
  evaluated against the paper's Eq. 2 range/energy model via
  :class:`repro.vehicle.battery.Battery` +
  :class:`repro.core.energy_model.EnergyModel` —
  :func:`mission_range_sweep` is the range-vs-AD-power sizing sweep.

:class:`ProcGenSpace` mirrors :class:`repro.robustness.chaos.FaultSpace`:
an intensity dial scales scene difficulty, and
``space.sample(generator_seed, cell_index)`` is **bit-identical per
pair** — :func:`scene_fingerprint` / :func:`scene_checksum` make that
replay contract checkable, and the ``scene_regeneration`` invariant in
:mod:`repro.testing.invariants` checks it on every fleet cell.  The
module registers the ``procgen`` scene provider, so
``ChaosConfig(corridor="procgen:crossroads")`` composes generated scenes
with chaos fault draws exactly like any hand-named corridor.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.energy_model import EnergyModel
from ..vehicle.battery import Battery, BatteryDepletedError
from .corridors import (
    CorridorScenario,
    SPAWN_CLEAR_RADIUS_M,
    _landmarks,
    check_spawn_clearance,
)
from .lanes import LaneMap, straight_corridor
from .providers import SceneProvider, register_scene_provider
from .world import Agent, Obstacle, World

#: The topology vocabulary of the grammar, in sweep order.
TOPOLOGIES: Tuple[str, ...] = (
    "crossroads",
    "narrowing_gap",
    "straight",
    "t_intersection",
)

#: Structural-complexity ladder, simplest first: the fallback order the
#: failure-triage shrinker walks when simplifying a violating scene.
TOPOLOGY_COMPLEXITY: Tuple[str, ...] = (
    "straight",
    "narrowing_gap",
    "t_intersection",
    "crossroads",
)

#: Generated scenes start the ego at the corridor suite's cruise speed.
INITIAL_SPEED_MPS = 5.6

#: Hard cap on any scripted agent speed; the no-teleport property bounds
#: per-tick displacement by ``max phase speed * dt`` and this caps that.
MAX_AGENT_SPEED_MPS = 5.0

#: Narrowing gaps never close below this half-width: the certificate
#: (``corridor_blocked_at``) needs ego radius + safety margin + slack.
MIN_HALF_GAP_M = 1.5

#: Seed-stream domain tags (cf. ``0xC4A05`` in :mod:`repro.robustness.chaos`):
#: topology choice, geometry, and agent scripting draw from independent
#: streams so adding a draw to one concern never shifts another.
_STREAM_TOPOLOGY = 0x70D0
_STREAM_GEOMETRY = 0x6E00
_STREAM_AGENTS = 0xA6E7


class SceneGenerationError(RuntimeError):
    """A sampled scene violated a generation guarantee (before re-roll)."""


# -- intent scripts ------------------------------------------------------------


@dataclass(frozen=True)
class ScriptPhase:
    """Constant velocity held until *until_s* of world time."""

    until_s: float
    vx_mps: float
    vy_mps: float

    @property
    def speed_mps(self) -> float:
        return math.hypot(self.vx_mps, self.vy_mps)


@dataclass(frozen=True)
class AgentScript:
    """A piecewise-constant-velocity intent script for one agent.

    The final phase holds forever (``until_s`` may be ``inf``).  Between
    phases the agent changes velocity instantaneously but never position
    — displacement integrates the phase velocities exactly, so per-tick
    motion is bounded by ``max_speed_mps * dt`` (the no-teleport
    property the hypothesis suite checks).
    """

    agent_id: int
    intent: str
    phases: Tuple[ScriptPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("script needs at least one phase")
        boundaries = [p.until_s for p in self.phases]
        if any(b <= a for a, b in zip(boundaries, boundaries[1:])):
            raise ValueError(f"phase boundaries must increase: {boundaries}")
        for phase in self.phases:
            if not math.isfinite(phase.speed_mps):
                raise ValueError("phase velocities must be finite")
            if phase.speed_mps > MAX_AGENT_SPEED_MPS:
                raise ValueError(
                    f"phase speed {phase.speed_mps:.2f} m/s exceeds the "
                    f"{MAX_AGENT_SPEED_MPS} m/s script cap"
                )

    @property
    def max_speed_mps(self) -> float:
        return max(p.speed_mps for p in self.phases)

    def velocity_at(self, t_s: float) -> Tuple[float, float]:
        """The phase velocity active at world time *t_s*."""
        for phase in self.phases:
            if t_s < phase.until_s:
                return (phase.vx_mps, phase.vy_mps)
        last = self.phases[-1]
        return (last.vx_mps, last.vy_mps)

    def displacement(self, t0_s: float, t1_s: float) -> Tuple[float, float]:
        """Exact displacement over ``[t0, t1]`` (piecewise integration)."""
        if t1_s < t0_s:
            raise ValueError("time must not run backwards")
        dx = dy = 0.0
        t = t0_s
        for phase in self.phases:
            if t >= t1_s:
                break
            seg_end = min(phase.until_s, t1_s)
            if seg_end > t:
                dt = seg_end - t
                dx += phase.vx_mps * dt
                dy += phase.vy_mps * dt
                t = seg_end
        if t < t1_s:  # beyond the last boundary: the final phase holds
            last = self.phases[-1]
            dt = t1_s - t
            dx += last.vx_mps * dt
            dy += last.vy_mps * dt
        return (dx, dy)


@dataclass
class ScriptedWorld(World):
    """A :class:`World` whose agents follow :class:`AgentScript` intents.

    Unscripted agents keep the constant-velocity law.  Scripted agents
    integrate their script exactly across phase boundaries, and their
    stored velocity is the phase velocity *now* — which is what
    perception converts to a
    :class:`~repro.planning.prediction.TrackedObject`, so the planner's
    constant-velocity prediction extrapolates the current intent.
    """

    scripts: Dict[int, AgentScript] = field(default_factory=dict)

    def advance(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        t0 = self.time_s
        t1 = t0 + dt_s
        moved: List[Agent] = []
        for agent in self.agents:
            script = self.scripts.get(agent.agent_id)
            if script is None:
                moved.append(agent.advanced(dt_s))
            else:
                dx, dy = script.displacement(t0, t1)
                vx, vy = script.velocity_at(t1)
                moved.append(
                    Agent(
                        agent_id=agent.agent_id,
                        x_m=agent.x_m + dx,
                        y_m=agent.y_m + dy,
                        vx_mps=vx,
                        vy_mps=vy,
                        radius_m=agent.radius_m,
                        kind=agent.kind,
                    )
                )
        self.agents = moved
        self.time_s = t1


# -- mission layer (Eq. 2) -----------------------------------------------------


@dataclass(frozen=True)
class MissionSpec:
    """A mission-level scenario: a route swept against the Eq. 2 model."""

    name: str
    route_length_m: float
    cruise_speed_mps: float = INITIAL_SPEED_MPS
    n_stops: int = 0
    stop_dwell_s: float = 0.0
    #: AD payload power; None uses the energy model's (paper: 175 W).
    ad_power_w: Optional[float] = None
    #: State-of-charge floor the mission must land above.
    reserve_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.route_length_m < 0:
            raise ValueError("route length must be non-negative")
        if self.cruise_speed_mps <= 0:
            raise ValueError("cruise speed must be positive")
        if self.n_stops < 0 or self.stop_dwell_s < 0:
            raise ValueError("stops must be non-negative")
        if not 0.0 <= self.reserve_frac < 1.0:
            raise ValueError("reserve fraction must be in [0, 1)")


@dataclass(frozen=True)
class MissionOutcome:
    """One mission evaluated through the battery integrator."""

    spec: MissionSpec
    ad_power_w: float
    travel_time_s: float
    energy_j: float
    state_of_charge: float
    feasible: bool
    #: Analytic max feasible route at this spec's power point — the
    #: Eq. 2 range frontier the sweep plots.
    limit_route_length_m: float


def evaluate_mission(
    spec: MissionSpec, model: Optional[EnergyModel] = None
) -> MissionOutcome:
    """Integrate *spec* through :class:`Battery` against the Eq. 2 model.

    The vehicle draws base + AD power while moving and AD power alone
    while dwelling at stops (the payload never sleeps — the paper's
    Sec. III-B point).  A mission is feasible when the battery never
    depletes and lands at or above the reserve fraction.
    """
    model = model or EnergyModel()
    pad = model.ad_power_w if spec.ad_power_w is None else spec.ad_power_w
    if pad < 0:
        raise ValueError("AD power must be non-negative")
    drive_s = spec.route_length_m / spec.cruise_speed_mps
    dwell_s = spec.n_stops * spec.stop_dwell_s
    battery = Battery(capacity_j=model.battery_capacity_j)
    energy = 0.0
    feasible = True
    try:
        energy += battery.drain(model.vehicle_power_w + pad, drive_s)
        energy += battery.drain(pad, dwell_s)
    except BatteryDepletedError:
        feasible = False
    soc = battery.state_of_charge
    if soc < spec.reserve_frac:
        feasible = False
    usable_j = model.battery_capacity_j * (1.0 - spec.reserve_frac)
    usable_j -= pad * dwell_s
    limit_m = (
        max(0.0, usable_j)
        / (model.vehicle_power_w + pad)
        * spec.cruise_speed_mps
    )
    return MissionOutcome(
        spec=spec,
        ad_power_w=pad,
        travel_time_s=drive_s + dwell_s,
        energy_j=energy,
        state_of_charge=soc,
        feasible=feasible,
        limit_route_length_m=limit_m,
    )


def mission_range_sweep(
    route_lengths_m: Sequence[float],
    ad_powers_w: Sequence[float],
    model: Optional[EnergyModel] = None,
    cruise_speed_mps: float = INITIAL_SPEED_MPS,
) -> List[MissionOutcome]:
    """Sweep route length x AD power against Eq. 2 (the sizing sweep).

    The range lost to an AD payload follows directly from Eq. 2: the
    feasible-range reduction fraction equals the driving-time reduction
    fraction ``Pad / (Pv + Pad)`` — the experiment asserts the swept
    frontier against that closed form.
    """
    model = model or EnergyModel()
    outcomes: List[MissionOutcome] = []
    for pad in ad_powers_w:
        for length in route_lengths_m:
            spec = MissionSpec(
                name=f"mission-{pad:g}w-{length:g}m",
                route_length_m=float(length),
                cruise_speed_mps=cruise_speed_mps,
                ad_power_w=float(pad),
            )
            outcomes.append(evaluate_mission(spec, model))
    return outcomes


# -- the generated scenario ----------------------------------------------------


@dataclass(frozen=True)
class GeneratedScenario(CorridorScenario):
    """A procedurally generated corridor cell.

    Subclasses :class:`CorridorScenario`, so every consumer of the
    corridor suite (``make_corridor_sov``, the chaos campaign, the
    invariant harness) drives generated scenes unchanged.  The extra
    fields pin the replay coordinates: ``(generator_seed, cell_index)``
    regenerate this exact scene, bit for bit.
    """

    topology: str = "straight"
    intents: Tuple[str, ...] = ()
    generator_seed: int = 0
    cell_index: int = 0
    intensity: float = 1.0
    mission: Optional[MissionSpec] = None


def scene_fingerprint(scenario: CorridorScenario) -> Tuple:
    """A bit-exact structural fingerprint of a generated scene.

    Two scenes with equal fingerprints have identical geometry, agents,
    intent scripts, lane maps, and mission — floats compared exactly.
    This is the scene-side twin of
    :func:`repro.testing.invariants.drive_fingerprint`.
    """
    world = scenario.world
    scripts: Dict[int, AgentScript] = getattr(world, "scripts", {})
    lane_map = scenario.lane_map
    segments = tuple(
        (
            sid,
            lane_map.segment(sid).centerline,
            lane_map.segment(sid).width_m,
            lane_map.segment(sid).annotations,
        )
        for sid in sorted(lane_map.segment_ids)
    )
    mission = scenario_mission(scenario)
    return (
        scenario.name,
        getattr(scenario, "topology", ""),
        getattr(scenario, "intents", ()),
        scenario.seed,
        getattr(scenario, "generator_seed", scenario.seed),
        getattr(scenario, "cell_index", 0),
        getattr(scenario, "intensity", 1.0),
        scenario.n_lanes,
        scenario.corridor_length_m,
        scenario.duration_s,
        scenario.initial_speed_mps,
        scenario.blocked,
        tuple(
            (o.obstacle_id, o.x_m, o.y_m, o.radius_m)
            for o in world.obstacles
        ),
        tuple(
            (a.agent_id, a.kind, a.x_m, a.y_m, a.vx_mps, a.vy_mps, a.radius_m)
            for a in world.agents
        ),
        tuple(
            (
                scripts[aid].agent_id,
                scripts[aid].intent,
                tuple(
                    (p.until_s, p.vx_mps, p.vy_mps)
                    for p in scripts[aid].phases
                ),
            )
            for aid in sorted(scripts)
        ),
        tuple(
            (lm.landmark_id, lm.x_m, lm.y_m, lm.z_m)
            for lm in world.landmarks
        ),
        segments,
        None
        if mission is None
        else (
            mission.name,
            mission.route_length_m,
            mission.cruise_speed_mps,
            mission.n_stops,
            mission.stop_dwell_s,
            mission.ad_power_w,
            mission.reserve_frac,
        ),
    )


def scene_checksum(scenario: CorridorScenario) -> int:
    """CRC32 of the scene fingerprint — the determinism fingerprint the
    procgen bench workload gates exactly."""
    return zlib.crc32(repr(scene_fingerprint(scenario)).encode("utf-8"))


def scenario_mission(scenario: CorridorScenario) -> Optional[MissionSpec]:
    """The mission a scenario carries (None for hand-named corridors)."""
    return getattr(scenario, "mission", None)


# -- the grammar ---------------------------------------------------------------


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


class ScenarioGrammar:
    """Composes one generated scene from independent seed streams.

    Geometry (topology skeleton, clutter, gates, occluders, dead ends)
    draws only from the geometry stream; agent events (which intents,
    their kinematic scripts) draw only from the agent stream — so the
    two concerns can evolve without perturbing each other's draws, the
    same stream-isolation discipline the chaos/network samplers use.
    """

    topologies: Tuple[str, ...] = TOPOLOGIES

    # -- geometry skeletons ----------------------------------------------------

    def _skeleton(
        self, space: "ProcGenSpace", topology: str, rng: np.random.Generator
    ) -> Dict:
        intensity = space.intensity
        plan: Dict = {
            "topology": topology,
            "obstacles": [],
            "junction_x": None,
            "junction_sides": (),
            "blocked": False,
        }
        if topology in ("straight", "t_intersection", "crossroads"):
            plan["n_lanes"] = 2
            plan["length_m"] = _uniform(rng, 170.0, 240.0)
        else:  # narrowing_gap
            plan["n_lanes"] = 1
            plan["length_m"] = _uniform(rng, 140.0, 200.0)

        next_id = 0

        def add(x: float, y: float, r: float) -> None:
            nonlocal next_id
            plan["obstacles"].append(
                Obstacle(x_m=x, y_m=y, radius_m=r, obstacle_id=next_id)
            )
            next_id += 1

        # A dead end turns any straight/narrowing scene into a stop cell
        # (the cluttered_stop motif): admissible only past the intensity
        # threshold, sampled before other geometry so the wall draw
        # never shifts the clutter stream.
        dead_end = (
            topology in ("straight", "narrowing_gap")
            and intensity >= space.dead_end_min_intensity
            and float(rng.random()) < space.dead_end_prob
        )
        if dead_end:
            plan["blocked"] = True
            wall_x = 30.0 + _uniform(rng, -2.0, 2.0)
            rows = (-1.2, 1.2, 3.6) if plan["n_lanes"] == 2 else (-1.0, 0.0, 1.0)
            for y in rows:
                add(
                    wall_x + _uniform(rng, -0.5, 0.5),
                    y,
                    _uniform(rng, 0.7, 0.9),
                )
            plan["duration_s"] = 12.0
            return plan

        if topology == "straight":
            # Optional slalom motif: alternating in-lane planters.
            n_planters = int(
                rng.integers(0, min(4, 2 + int(round(intensity))) + 1)
            )
            x = 24.0 + _uniform(rng, 0.0, 4.0)
            for i in range(n_planters):
                lane_y = 0.0 if i % 2 == 0 else 2.5
                add(
                    x,
                    lane_y + _uniform(rng, -0.3, 0.3),
                    _uniform(rng, 0.45, 0.6),
                )
                x += _uniform(rng, 16.0, 20.0)
            plan["duration_s"] = _uniform(rng, 8.0, 10.0)
        elif topology == "narrowing_gap":
            # Successive gates, each narrower — but never below the
            # traversability floor.
            n_gates = 2 + int(float(rng.random()) < 0.3 * min(intensity, 2.0))
            gate_x = 26.0 + _uniform(rng, 0.0, 6.0)
            half_gap = _uniform(rng, 2.0, 2.4)
            for _ in range(n_gates):
                r = _uniform(rng, 0.4, 0.6)
                half = max(MIN_HALF_GAP_M, half_gap)
                add(gate_x, half + r, r)
                add(gate_x, -(half + r), r)
                gate_x += _uniform(rng, 20.0, 26.0)
                half_gap -= _uniform(rng, 0.15, 0.3) * min(intensity, 2.0)
            plan["duration_s"] = _uniform(rng, 8.0, 10.0)
        else:  # t_intersection / crossroads
            junction_x = _uniform(rng, 30.0, 45.0)
            plan["junction_x"] = junction_x
            if topology == "t_intersection":
                sides = (1.0 if float(rng.random()) < 0.5 else -1.0,)
            else:
                sides = (1.0, -1.0)
            plan["junction_sides"] = sides
            # Corner occluders: the cross traffic appears from behind
            # these, so the proactive path sees it late (Sec. IV).
            for side in sides:
                add(
                    junction_x - _uniform(rng, 6.0, 8.0),
                    side * _uniform(rng, 4.4, 5.4),
                    _uniform(rng, 1.0, 1.3),
                )
            plan["duration_s"] = _uniform(rng, 9.0, 11.0)

        # Off-corridor clutter (parked carts, street furniture): kept
        # beyond |y| >= 6 so lane clearance and the reactive cone are
        # untouched — density scales with the intensity dial.
        n_clutter = min(5, int(rng.poisson(space.clutter_rate * intensity)))
        for _ in range(n_clutter):
            side = 1.0 if float(rng.random()) < 0.5 else -1.0
            add(
                _uniform(rng, 16.0, max(30.0, plan["length_m"] - 30.0)),
                side * _uniform(rng, 6.0, 9.5),
                _uniform(rng, 0.4, 1.0),
            )
        return plan

    # -- agent events ----------------------------------------------------------

    def _event_menu(self, topology: str) -> Tuple[str, ...]:
        if topology == "narrowing_gap":
            return ("oncoming_yield", "oncoming_assert", "platoon")
        if topology == "straight":
            return (
                "oncoming_yield",
                "oncoming_assert",
                "platoon",
                "occluded_crossing",
            )
        return ("oncoming_yield", "platoon")  # junction extras

    def _crossing_menu(self) -> Tuple[str, ...]:
        return ("crossing_pedestrian", "crossing_cyclist")

    def _build_event(
        self,
        intent: str,
        rng: np.random.Generator,
        next_id: int,
        plan: Dict,
        intensity: float,
        side: float = 1.0,
    ) -> Tuple[List[Agent], List[AgentScript], List[Obstacle]]:
        agents: List[Agent] = []
        scripts: List[AgentScript] = []
        obstacles: List[Obstacle] = []
        speed_scale = min(max(intensity, 0.6), 1.8)

        if intent in ("oncoming_yield", "oncoming_assert"):
            x0 = _uniform(rng, 52.0, 72.0)
            speed = min(3.0, _uniform(rng, 1.2, 2.0) * speed_scale)
            y0 = _uniform(rng, -0.2, 0.2)
            if intent == "oncoming_yield":
                t_meet = x0 / (INITIAL_SPEED_MPS + speed)
                t_yield = max(0.5, t_meet - _uniform(rng, 1.0, 2.0))
                shift_s = _uniform(rng, 1.8, 2.4)
                phases = (
                    ScriptPhase(t_yield, -speed, 0.0),
                    ScriptPhase(t_yield + shift_s, -0.6 * speed, -1.1),
                    ScriptPhase(math.inf, -0.8 * speed, 0.0),
                )
            else:
                phases = (ScriptPhase(math.inf, -speed, 0.0),)
            scripts.append(
                AgentScript(agent_id=next_id, intent=intent, phases=phases)
            )
            vx, vy = scripts[-1].velocity_at(0.0)
            agents.append(
                Agent(
                    agent_id=next_id,
                    x_m=x0,
                    y_m=y0,
                    vx_mps=vx,
                    vy_mps=vy,
                    radius_m=0.5,
                    kind="cart",
                )
            )
        elif intent == "platoon":
            n = 2 + int(rng.integers(0, 2))
            straggler = int(rng.integers(0, n))
            for i in range(n):
                walk = _uniform(rng, 0.9, 1.3)
                if i == straggler:
                    t_pause = _uniform(rng, 2.0, 4.0)
                    pause_s = _uniform(rng, 1.0, 2.0)
                    phases = (
                        ScriptPhase(t_pause, walk, 0.0),
                        ScriptPhase(t_pause + pause_s, 0.0, 0.0),
                        ScriptPhase(math.inf, walk, 0.0),
                    )
                else:
                    phases = (ScriptPhase(math.inf, walk, 0.0),)
                scripts.append(
                    AgentScript(
                        agent_id=next_id + i, intent=intent, phases=phases
                    )
                )
                vx, vy = scripts[-1].velocity_at(0.0)
                agents.append(
                    Agent(
                        agent_id=next_id + i,
                        x_m=16.0 + 7.0 * i + _uniform(rng, -1.5, 1.5),
                        y_m=_uniform(rng, -0.5, 0.5),
                        vx_mps=vx,
                        vy_mps=vy,
                        radius_m=0.4,
                        kind="pedestrian",
                    )
                )
        elif intent == "occluded_crossing":
            cx = plan["junction_x"] or _uniform(rng, 26.0, 40.0)
            n_obstacles = len(plan["obstacles"])
            obstacles.append(
                Obstacle(
                    x_m=cx,
                    y_m=-3.6,
                    radius_m=_uniform(rng, 1.1, 1.3),
                    obstacle_id=n_obstacles,
                )
            )
            walk = min(
                MAX_AGENT_SPEED_MPS, _uniform(rng, 0.9, 1.4) * speed_scale
            )
            t_wait = max(0.0, cx / INITIAL_SPEED_MPS - _uniform(rng, 1.0, 2.5))
            cross_s = 9.0 / walk
            phases = (
                ScriptPhase(t_wait, 0.0, 0.0),
                ScriptPhase(t_wait + cross_s, 0.0, walk),
                ScriptPhase(math.inf, _uniform(rng, 0.2, 0.5), 0.0),
            )
            scripts.append(
                AgentScript(agent_id=next_id, intent=intent, phases=phases)
            )
            agents.append(
                Agent(
                    agent_id=next_id,
                    x_m=cx + _uniform(rng, 3.0, 5.0),
                    y_m=-5.0,
                    vx_mps=0.0,
                    vy_mps=0.0,
                    radius_m=0.4,
                    kind="pedestrian",
                )
            )
        elif intent in ("crossing_pedestrian", "crossing_cyclist"):
            junction_x = plan["junction_x"]
            if junction_x is None:
                raise SceneGenerationError(
                    f"{intent} requires a junction topology"
                )
            if intent == "crossing_cyclist":
                speed = min(
                    MAX_AGENT_SPEED_MPS, _uniform(rng, 2.5, 3.8) * speed_scale
                )
                radius, kind = 0.45, "bicycle"
                hesitates = False
            else:
                speed = min(
                    MAX_AGENT_SPEED_MPS, _uniform(rng, 1.0, 1.5) * speed_scale
                )
                radius, kind = 0.4, "pedestrian"
                hesitates = float(rng.random()) < 0.4
            start_y = side * _uniform(rng, 8.5, 12.0)
            t_start = max(
                0.0,
                junction_x / INITIAL_SPEED_MPS - _uniform(rng, 0.8, 1.8),
            )
            vy = -side * speed
            if hesitates:
                # Crosses to the corridor edge, hesitates, then commits
                # — the intent flip constant-velocity prediction misses.
                edge_y = side * 1.9
                t_edge = t_start + abs(start_y - edge_y) / speed
                pause_s = _uniform(rng, 0.6, 1.2)
                phases = (
                    ScriptPhase(t_start, 0.0, 0.0),
                    ScriptPhase(t_edge, 0.0, vy),
                    ScriptPhase(t_edge + pause_s, 0.0, 0.0),
                    ScriptPhase(math.inf, 0.0, vy),
                )
            else:
                phases = (
                    ScriptPhase(t_start, 0.0, 0.0),
                    ScriptPhase(math.inf, 0.0, vy),
                )
            scripts.append(
                AgentScript(agent_id=next_id, intent=intent, phases=phases)
            )
            vx0, vy0 = scripts[-1].velocity_at(0.0)
            agents.append(
                Agent(
                    agent_id=next_id,
                    x_m=junction_x + _uniform(rng, -1.0, 1.0),
                    y_m=start_y,
                    vx_mps=vx0,
                    vy_mps=vy0,
                    radius_m=radius,
                    kind=kind,
                )
            )
        else:
            raise SceneGenerationError(f"unknown intent {intent!r}")
        return agents, scripts, obstacles

    def _agent_events(
        self, space: "ProcGenSpace", plan: Dict, rng: np.random.Generator
    ) -> Tuple[List[Agent], Dict[int, AgentScript], List[Obstacle], List[str]]:
        intensity = space.intensity
        agents: List[Agent] = []
        scripts: Dict[int, AgentScript] = {}
        extra_obstacles: List[Obstacle] = []
        intents: List[str] = []
        if plan["blocked"]:
            # Dead-end cells are pure stop drills (the cluttered_stop
            # motif); the ego never reaches where agents would matter.
            return agents, scripts, extra_obstacles, intents

        events: List[Tuple[str, float]] = []
        topology = plan["topology"]
        if topology in ("t_intersection", "crossroads"):
            sides = list(plan["junction_sides"])
            first_side = sides[int(rng.integers(0, len(sides)))]
            events.append(
                (
                    self._crossing_menu()[
                        int(rng.integers(0, len(self._crossing_menu())))
                    ],
                    first_side,
                )
            )
            if topology == "crossroads" and float(rng.random()) < min(
                0.5 * intensity, 0.9
            ):
                other = -first_side
                events.append(
                    (
                        self._crossing_menu()[
                            int(rng.integers(0, len(self._crossing_menu())))
                        ],
                        other,
                    )
                )
        else:
            menu = self._event_menu(topology)
            events.append((menu[int(rng.integers(0, len(menu)))], 1.0))
        n_extra = int(float(rng.random()) < 0.45 * min(intensity, 2.0)) + int(
            float(rng.random()) < 0.25 * min(intensity, 2.0)
        )
        extras_menu = self._event_menu(topology)
        for _ in range(n_extra):
            if len(events) >= space.max_agent_events:
                break
            candidate = extras_menu[int(rng.integers(0, len(extras_menu)))]
            if candidate in [e for e, _ in events]:
                continue  # one event per intent family keeps scenes legible
            events.append((candidate, 1.0))

        next_id = 0
        for intent, side in events:
            built_agents, built_scripts, built_obstacles = self._build_event(
                intent, rng, next_id, plan, intensity, side=side
            )
            # Renumber occluder obstacles after any already added.
            for obstacle in built_obstacles:
                plan["obstacles"].append(
                    Obstacle(
                        x_m=obstacle.x_m,
                        y_m=obstacle.y_m,
                        radius_m=obstacle.radius_m,
                        obstacle_id=len(plan["obstacles"]),
                    )
                )
            agents.extend(built_agents)
            for script in built_scripts:
                scripts[script.agent_id] = script
            next_id += len(built_agents)
            intents.append(intent)
        return agents, scripts, extra_obstacles, intents

    # -- composition -----------------------------------------------------------

    def compose(
        self,
        space: "ProcGenSpace",
        topology: str,
        rng_geometry: np.random.Generator,
        rng_agents: np.random.Generator,
        generator_seed: int,
        cell_index: int,
    ) -> GeneratedScenario:
        plan = self._skeleton(space, topology, rng_geometry)
        agents, scripts, _, intents = self._agent_events(
            space, plan, rng_agents
        )
        length = plan["length_m"]
        world = ScriptedWorld(
            obstacles=list(plan["obstacles"]),
            agents=agents,
            landmarks=_landmarks(rng_geometry, length),
            scripts=scripts,
        )
        lane_map = straight_corridor(length_m=length, n_lanes=plan["n_lanes"])
        junction_x = plan["junction_x"]
        if junction_x is not None:
            for sid in lane_map.segment_ids:
                lane_map.annotate(
                    sid, f"junction:{topology}@{junction_x:.1f}"
                )
        # The mission this corridor is one leg of: a multi-leg route
        # swept against Eq. 2 by the campaign's mission rows.
        legs = int(rng_geometry.integers(8, 21))
        mission = MissionSpec(
            name=f"procgen-{topology}-{generator_seed}-{cell_index}",
            route_length_m=length * legs,
            cruise_speed_mps=INITIAL_SPEED_MPS,
            n_stops=max(0, legs - 1),
            stop_dwell_s=_uniform(rng_geometry, 10.0, 40.0),
        )
        intent_note = ", ".join(intents) if intents else "no agents"
        return GeneratedScenario(
            name=f"procgen:{topology}",
            seed=generator_seed,
            description=(
                f"generated {topology} cell {cell_index} "
                f"(intensity {space.intensity:g}; {intent_note})"
            ),
            world=world,
            lane_map=lane_map,
            initial_speed_mps=INITIAL_SPEED_MPS,
            duration_s=plan["duration_s"],
            n_lanes=plan["n_lanes"],
            corridor_length_m=length,
            blocked=plan["blocked"],
            topology=topology,
            intents=tuple(intents),
            generator_seed=generator_seed,
            cell_index=cell_index,
            intensity=space.intensity,
            mission=mission,
        )


#: The module's composer instance (stateless; shared by every space).
GRAMMAR = ScenarioGrammar()


def validate_scene(scenario: GeneratedScenario) -> None:
    """Enforce the generation guarantees one sampled scene must satisfy."""
    from ..planning.collision import corridor_blocked_at

    check_spawn_clearance(scenario)
    blocked_at = corridor_blocked_at(
        scenario.world, scenario.lane_map, scenario.corridor_length_m
    )
    if scenario.blocked and blocked_at is None:
        raise SceneGenerationError(
            f"{scenario.name} cell {scenario.cell_index}: dead-end scene "
            "left the corridor traversable"
        )
    if not scenario.blocked and blocked_at is not None:
        raise SceneGenerationError(
            f"{scenario.name} cell {scenario.cell_index}: corridor blocked "
            f"at {blocked_at:.1f} m in a scene marked traversable"
        )
    scripts: Dict[int, AgentScript] = getattr(scenario.world, "scripts", {})
    agent_ids = {a.agent_id for a in scenario.world.agents}
    for agent_id, script in scripts.items():
        if agent_id not in agent_ids:
            raise SceneGenerationError(
                f"script for missing agent {agent_id}"
            )
        if script.max_speed_mps > MAX_AGENT_SPEED_MPS:
            raise SceneGenerationError(
                f"agent {agent_id} script exceeds the speed cap"
            )


# -- the sampler ---------------------------------------------------------------


@dataclass(frozen=True)
class ProcGenSpace:
    """The distribution generated scenes are drawn from.

    Mirrors :class:`repro.robustness.chaos.FaultSpace`: frozen and
    picklable (it rides inside fleet ``CellSpec`` payloads), an
    ``intensity`` dial that scales difficulty (clutter density, agent
    count and speed, gap narrowing, dead-end admission), and a
    bit-identical sampling contract —
    ``space.sample(generator_seed, cell_index)`` always returns the same
    scene, checkable via :func:`scene_fingerprint`.
    """

    intensity: float = 1.0
    topology_weights: Tuple[Tuple[str, float], ...] = (
        ("straight", 3.0),
        ("narrowing_gap", 2.0),
        ("t_intersection", 2.0),
        ("crossroads", 2.0),
    )
    #: Mean off-corridor clutter count at intensity 1.0.
    clutter_rate: float = 1.2
    #: Cap on distinct agent events per scene.
    max_agent_events: int = 3
    #: Probability a straight/narrowing scene is a dead-end stop cell.
    dead_end_prob: float = 0.10
    #: Intensity below which dead ends are never drawn.
    dead_end_min_intensity: float = 1.0
    #: Deterministic re-rolls before a guarantee violation is fatal.
    max_regen_attempts: int = 8

    def __post_init__(self) -> None:
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if not self.topology_weights:
            raise ValueError("need at least one topology weight")
        for name, weight in self.topology_weights:
            if name not in TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {name!r}; known: {TOPOLOGIES}"
                )
            if weight < 0:
                raise ValueError(f"topology weight {name!r} must be >= 0")
        if sum(w for _, w in self.topology_weights) <= 0:
            raise ValueError("topology weights must sum to > 0")
        if self.clutter_rate < 0:
            raise ValueError("clutter rate must be non-negative")
        if self.max_agent_events < 0:
            raise ValueError("max agent events must be non-negative")
        if not 0.0 <= self.dead_end_prob <= 1.0:
            raise ValueError("dead-end probability must be in [0, 1]")
        if self.max_regen_attempts < 1:
            raise ValueError("need at least one generation attempt")

    def with_intensity(self, intensity: float) -> "ProcGenSpace":
        """This space with the difficulty dial set to *intensity*."""
        return replace(self, intensity=intensity)

    @staticmethod
    def simpler_topologies(topology: str) -> Tuple[str, ...]:
        """Strictly simpler topologies than *topology*, simplest first.

        The scene-simplification hook for the failure-triage shrinker:
        it retargets a violating ``procgen:<topology>`` cell at each of
        these in order and keeps the simplest scene that still violates.
        """
        if topology not in TOPOLOGY_COMPLEXITY:
            raise ValueError(
                f"unknown topology {topology!r}; known: {TOPOLOGIES}"
            )
        rank = TOPOLOGY_COMPLEXITY.index(topology)
        return TOPOLOGY_COMPLEXITY[:rank]

    def topology_for(
        self, generator_seed: int, cell_index: int
    ) -> str:
        """The (deterministic) topology drawn for one cell."""
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (generator_seed, cell_index, _STREAM_TOPOLOGY)
            )
        )
        names = [name for name, _ in self.topology_weights]
        weights = np.asarray(
            [weight for _, weight in self.topology_weights], dtype=float
        )
        return str(rng.choice(names, p=weights / weights.sum()))

    def sample(
        self,
        generator_seed: int,
        cell_index: int,
        topology: Optional[str] = None,
    ) -> GeneratedScenario:
        """Generate cell ``(generator_seed, cell_index)`` — bit-identical
        per pair, guarantees enforced (spawn clearance, traversability
        certificate, script sanity) with bounded deterministic re-rolls.
        """
        if topology is None:
            topology = self.topology_for(generator_seed, cell_index)
        elif topology not in TOPOLOGIES:
            raise KeyError(
                f"unknown topology {topology!r}; known: {TOPOLOGIES}"
            )
        last_error: Optional[SceneGenerationError] = None
        for attempt in range(self.max_regen_attempts):
            rng_geometry = np.random.default_rng(
                np.random.SeedSequence(
                    (generator_seed, cell_index, _STREAM_GEOMETRY, attempt)
                )
            )
            rng_agents = np.random.default_rng(
                np.random.SeedSequence(
                    (generator_seed, cell_index, _STREAM_AGENTS, attempt)
                )
            )
            scenario = GRAMMAR.compose(
                self,
                topology,
                rng_geometry,
                rng_agents,
                generator_seed,
                cell_index,
            )
            try:
                validate_scene(scenario)
            except (SceneGenerationError, ValueError) as exc:
                last_error = SceneGenerationError(str(exc))
                continue
            return scenario
        raise SceneGenerationError(
            f"cell ({generator_seed}, {cell_index}) violated generation "
            f"guarantees {self.max_regen_attempts} attempts running: "
            f"{last_error}"
        )

    def sample_suite(
        self, generator_seed: int, n_cells: int
    ) -> List[GeneratedScenario]:
        """Cells ``0..n_cells-1`` at *generator_seed*, in index order."""
        return [
            self.sample(generator_seed, index) for index in range(n_cells)
        ]


#: The default sampling distribution (what the provider and the
#: ``procgen_campaign`` experiment use).
DEFAULT_SPACE = ProcGenSpace()


# -- provider registration -----------------------------------------------------


def _build_procgen_scene(topology: str, seed: int) -> GeneratedScenario:
    """Provider hook: one generated scene per ``(topology, seed)``.

    The chaos campaign passes a fresh drive seed per drive, so
    ``ChaosConfig(corridor="procgen:crossroads")`` sweeps a different
    generated intersection every drive — bit-identically replayable.
    """
    return DEFAULT_SPACE.sample(
        generator_seed=seed, cell_index=0, topology=topology
    )


register_scene_provider(
    SceneProvider(
        name="procgen",
        list_scenes=lambda: list(TOPOLOGIES),
        build=_build_procgen_scene,
    )
)
