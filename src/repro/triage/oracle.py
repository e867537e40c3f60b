"""The triage oracle: execute a fully-explicit cell and judge it.

Every question the failure-triage engine asks — "does this candidate
still violate?", "is this replica flaky?", "does this corpus record
still reproduce bit-identically?" — reduces to executing one
:class:`~repro.fleetops.cells.TriageCell` and evaluating its target
invariant.  This module builds that cell's drive and judges it; the
``kind="triage"`` entry of :data:`repro.fleetops.cells.CELL_KINDS`
drives it, so the shrinker, the flake protocol, the corpus replayer,
and the fleet runner all share one execution path (the lockstep cell
executor).

The contract matches every other cell kind: **pure per cell**.  The
scene regenerates from ``(scene, scene_seed, cell_index, space)``, the
fault schedule is carried explicitly (never re-rolled), the simulation
seed is carried explicitly, and dropped agents are removed by rebuilding
the world — so a candidate produced by deleting one fault from a
violating cell re-runs bit-identically anywhere, which is what makes a
shrunk counterexample trustworthy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

#: The scene name for the chaos drill lane (single obstacle, straight).
DRILL_LANE = "drill-lane"

#: Default drive horizon for drill-lane cells with no explicit duration.
DRILL_DURATION_S = 10.0


@dataclass(frozen=True)
class TriageOutcome:
    """The verdict of one triage-cell execution (picklable, frozen).

    ``violated`` answers the shrinker's only question.  The remaining
    fields feed the failure fingerprint (``invariant`` +
    ``dominant_stage`` + ``mode_trajectory``), the reduction-ratio
    accounting (``n_faults`` / ``n_agents`` / ``duration_s``), and the
    human-readable triage report.
    """

    violated: bool
    invariant: str
    detail: str
    collided: bool
    stopped: bool
    entered_safe_stop: bool
    final_mode: str
    min_clearance_m: float
    duration_s: float
    n_faults: int
    n_agents: int
    dominant_stage: str
    mode_trajectory: Tuple[str, ...]

    @property
    def failure_class(self) -> str:
        """How the invariant broke: ``collision`` vs ``overrun``.

        Both are violations of ``no_collision_or_safe_stop``, but hitting
        something and sailing past a blocked corridor end are different
        failure modes; the fingerprint's violation kind distinguishes
        them (``none`` for a passing cell).
        """
        if not self.violated:
            return "none"
        return "collision" if self.collided else "overrun"

    @property
    def violation_kind(self) -> str:
        """The invariant plus its failure class — the fingerprint's
        first component."""
        return f"{self.invariant}/{self.failure_class}"


def build_triage_scene(cell):
    """Regenerate the (possibly agent-stripped) scene for *cell*.

    Returns ``None`` for the drill lane, which has no
    :class:`~repro.scene.corridors.CorridorScenario` — the runner builds
    its single-obstacle world directly.
    """
    if cell.scene == DRILL_LANE:
        return None
    if cell.scene.startswith("procgen:"):
        from ..scene.procgen import DEFAULT_SPACE

        topology = cell.scene.split(":", 1)[1]
        space = DEFAULT_SPACE if cell.space is None else cell.space
        scenario = space.sample(
            cell.scene_seed, cell.cell_index, topology=topology
        )
    else:
        from ..scene.providers import resolve_scene

        scenario = resolve_scene(cell.scene, cell.scene_seed)
    if cell.drop_agents:
        scenario = strip_agents(scenario, cell.drop_agents)
    return scenario


def strip_agents(scenario, drop: Tuple[int, ...]):
    """*scenario* with the agents in *drop* removed (scripts included).

    Rebuilds the world rather than mutating it — scenarios are frozen,
    and the shrinker leans on every candidate being a fresh value.
    """
    from ..scene.procgen import ScriptedWorld
    from ..scene.world import World

    dropped = set(drop)
    world = scenario.world
    keep = [a for a in world.agents if a.agent_id not in dropped]
    if isinstance(world, ScriptedWorld):
        new_world = ScriptedWorld(
            obstacles=list(world.obstacles),
            agents=keep,
            landmarks=list(world.landmarks),
            scripts={
                agent_id: script
                for agent_id, script in world.scripts.items()
                if agent_id not in dropped
            },
        )
    else:
        new_world = World(
            obstacles=list(world.obstacles),
            agents=keep,
            landmarks=list(world.landmarks),
        )
    return dataclasses.replace(scenario, world=new_world)


def scene_agent_ids(cell) -> Tuple[int, ...]:
    """The agent ids of the cell's *unstripped* scene, in world order.

    The universe the agent-subset shrink axis runs ddmin over.
    """
    probe = dataclasses.replace(cell, drop_agents=())
    scenario = build_triage_scene(probe)
    if scenario is None:
        return ()
    return tuple(a.agent_id for a in scenario.world.agents)


def base_duration_s(cell) -> float:
    """The cell's drive horizon before any time-axis truncation."""
    if cell.duration_s is not None:
        return cell.duration_s
    if cell.scene == DRILL_LANE:
        return DRILL_DURATION_S
    scenario = build_triage_scene(cell)
    return scenario.duration_s


def build_triage_drive(cell):
    """Build the sov for *cell* without driving it.

    Returns ``(scenario, sov, duration_s)``; *scenario* is None for the
    drill lane.
    """
    from ..robustness.faults import FaultScenario
    from ..runtime.sov import SovConfig, obstacle_ahead_scenario

    faults = tuple(cell.faults)
    fault_scenario = (
        FaultScenario(
            name=f"triage-{cell.sim_seed}",
            faults=faults,
            description="triage-explicit schedule",
        )
        if faults
        else None
    )
    if cell.scene == DRILL_LANE:
        scenario = None
        sov = obstacle_ahead_scenario(
            cell.obstacle_distance_m,
            reactive_enabled=cell.safety_net,
            degradation_enabled=cell.safety_net,
            initial_speed_mps=cell.initial_speed_mps,
            seed=cell.sim_seed,
            fault_scenario=fault_scenario,
        )
    else:
        from ..scene.corridors import make_corridor_sov

        scenario = build_triage_scene(cell)
        config = SovConfig(
            reactive_enabled=cell.safety_net,
            degradation_enabled=cell.safety_net,
            scenario=fault_scenario,
            seed=cell.sim_seed,
        )
        sov = make_corridor_sov(
            scenario, safety_net=cell.safety_net, config=config
        )
    sov.enable_attribution()
    duration = (
        cell.duration_s
        if cell.duration_s is not None
        else (DRILL_DURATION_S if scenario is None else scenario.duration_s)
    )
    return scenario, sov, duration


def judge_triage_drive(
    cell, scenario, sov, duration_s, results
) -> TriageOutcome:
    """Evaluate *cell*'s target invariant on its completed drive.

    *scenario*, *sov* and *duration_s* come from
    :func:`build_triage_drive`; *results* holds the drive's
    :class:`~repro.runtime.sov.DriveResult` and, for a
    ``replay_determinism`` cell, its independently built re-run.
    """
    from ..testing.invariants import (
        check_drive_invariant,
        degradation_trajectory,
        dominant_attribution_stage,
    )

    result = results[0]
    details = check_drive_invariant(
        cell.invariant,
        result,
        blocked=bool(getattr(scenario, "blocked", False)),
        sov=sov,
        result2=results[1] if len(results) > 1 else None,
        faults=cell.faults,
    )
    return TriageOutcome(
        violated=bool(details),
        invariant=cell.invariant,
        detail=details[0] if details else "",
        collided=result.collided,
        stopped=result.stopped,
        entered_safe_stop=result.entered_safe_stop,
        final_mode=result.final_mode,
        min_clearance_m=result.min_obstacle_clearance_m,
        duration_s=duration_s,
        n_faults=len(cell.faults),
        n_agents=0 if scenario is None else len(scenario.world.agents),
        dominant_stage=dominant_attribution_stage(result),
        mode_trajectory=degradation_trajectory(sov),
    )
