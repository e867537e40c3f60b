"""Lane-level Model Predictive Control planner (paper Table III, Sec. V-C).

The paper's planner is "formulated as Model Predictive Control" but
operates at *lane granularity* — "staying in a lane or switching lanes,
without maneuvering within a lane" (Sec. III-D) — which is why it runs in
~3 ms, 33x cheaper than fine-grained planners (Sec. V-C).

We implement it as sampling-based MPC (a shooting method): the decision
space is {target lane} x {speed profile}; each candidate is rolled out
with the kinematic model over the horizon, scored (progress, comfort,
collision, lane-change penalty), and the best candidate's first control
action is emitted — the classic receding-horizon loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Sequence, Tuple

from ..scene.lanes import LaneMap, LaneSegment
from ..scene.world import Obstacle
from ..vehicle.dynamics import BicycleModel, ControlCommand, VehicleState
from .collision import CollisionReport, TrajectoryPoint, check_trajectory
from .prediction import PredictedState


@dataclass(frozen=True)
class PlanCandidate:
    """One rolled-out (lane, accel) candidate."""

    lane_id: str
    accel_mps2: float
    trajectory: Tuple[TrajectoryPoint, ...]
    cost: float
    collision: CollisionReport


@dataclass(frozen=True)
class Plan:
    """The chosen plan and the command implementing its first step."""

    command: ControlCommand
    chosen: PlanCandidate
    candidates: Tuple[PlanCandidate, ...]

    @property
    def feasible(self) -> bool:
        return not self.chosen.collision.collides


@dataclass
class MpcPlanner:
    """Receding-horizon lane-level planner.

    A planner varies only its lane map, its vehicle model and its
    pure-pursuit lookahead.  The horizon, the speed profiles and the
    cost weights are the one tuning every vehicle runs: class
    constants, readable as ``planner.dt_s`` and the like.
    """

    #: A 3-s horizon in 0.2-s steps (15 rollout points).
    horizon_s: ClassVar[float] = 3.0
    dt_s: ClassVar[float] = 0.2
    target_speed_mps: ClassVar[float] = 5.6
    accel_candidates: ClassVar[Tuple[float, ...]] = (
        -4.0, -2.0, -0.5, 0.0, 1.0, 2.0
    )
    lane_change_penalty: ClassVar[float] = 5.0
    comfort_weight: ClassVar[float] = 0.5
    speed_error_weight: ClassVar[float] = 2.0
    progress_weight: ClassVar[float] = 1.0
    collision_cost: ClassVar[float] = 1e6

    lane_map: LaneMap
    model: BicycleModel = field(default_factory=BicycleModel)
    lookahead_m: float = 4.0

    def plan(
        self,
        state: VehicleState,
        predictions: Sequence[PredictedState] = (),
        static_obstacles: Sequence[Obstacle] = (),
        now_s: float = 0.0,
    ) -> Plan:
        """One planning cycle: roll out candidates, score, pick, command."""
        current_lane = self.lane_map.locate(state.x_m, state.y_m)
        if current_lane is None:
            # Off-map: emergency stop.
            return self._emergency_plan(state, now_s)
        candidate_lanes = [current_lane] + self._adjacent_lanes(current_lane)
        candidates: List[PlanCandidate] = []
        for lane_id in candidate_lanes:
            lane = self.lane_map.segment(lane_id)
            for accel in self.accel_candidates:
                trajectory = self._rollout(state, lane, accel)
                report = check_trajectory(
                    trajectory, predictions, static_obstacles
                )
                cost = self._cost(
                    trajectory, lane_id != current_lane, accel, report
                )
                candidates.append(
                    PlanCandidate(
                        lane_id=lane_id,
                        accel_mps2=accel,
                        trajectory=tuple(trajectory),
                        cost=cost,
                        collision=report,
                    )
                )
        best = min(candidates, key=lambda c: c.cost)
        lane = self.lane_map.segment(best.lane_id)
        command = ControlCommand(
            steer_rad=self._pure_pursuit_steer(state, lane),
            accel_mps2=best.accel_mps2,
            timestamp_s=now_s,
            source="proactive",
        )
        return Plan(
            command=self.model.clamp(command),
            chosen=best,
            candidates=tuple(candidates),
        )

    # -- internals ---------------------------------------------------------

    def _adjacent_lanes(self, lane_id: str) -> List[str]:
        """Lanes reachable from *lane_id* via a lane-change edge."""
        return self.lane_map.lane_changes(lane_id)

    def _lane_progress(self, lane: LaneSegment, x: float, y: float) -> float:
        """Approximate arc-length of the closest centerline point."""
        best_s, best_d = 0.0, float("inf")
        cumulative = 0.0
        for a, b in zip(lane.centerline, lane.centerline[1:]):
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            if seg_len == 0:
                continue
            t = max(
                0.0,
                min(
                    1.0,
                    ((x - a[0]) * (b[0] - a[0]) + (y - a[1]) * (b[1] - a[1]))
                    / seg_len ** 2,
                ),
            )
            cx, cy = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
            d = math.hypot(x - cx, y - cy)
            if d < best_d:
                best_d, best_s = d, cumulative + t * seg_len
            cumulative += seg_len
        return best_s

    def _pure_pursuit_steer(
        self, state: VehicleState, lane: LaneSegment
    ) -> float:
        """Steer toward a lookahead point on the target lane centerline."""
        s = self._lane_progress(lane, state.x_m, state.y_m)
        target = lane.point_at(s + self.lookahead_m)
        dx, dy = target[0] - state.x_m, target[1] - state.y_m
        alpha = math.atan2(dy, dx) - state.heading_rad
        alpha = math.atan2(math.sin(alpha), math.cos(alpha))
        lookahead = max(math.hypot(dx, dy), 1e-6)
        return math.atan2(
            2.0 * self.model.wheelbase_m * math.sin(alpha), lookahead
        )

    def _rollout(
        self, state: VehicleState, lane: LaneSegment, accel: float
    ) -> List[TrajectoryPoint]:
        """Forward-simulate following *lane* at constant *accel*."""
        points = []
        sim_state = state
        steps = int(round(self.horizon_s / self.dt_s))
        for k in range(steps):
            steer = self._pure_pursuit_steer(sim_state, lane)
            command = ControlCommand(steer_rad=steer, accel_mps2=accel)
            sim_state = self.model.step(sim_state, command, self.dt_s)
            points.append(
                TrajectoryPoint(
                    time_s=(k + 1) * self.dt_s,
                    x_m=sim_state.x_m,
                    y_m=sim_state.y_m,
                    speed_mps=sim_state.speed_mps,
                )
            )
        return points

    def _cost(
        self,
        trajectory: Sequence[TrajectoryPoint],
        is_lane_change: bool,
        accel: float,
        report: CollisionReport,
    ) -> float:
        progress = trajectory[-1].x_m - trajectory[0].x_m
        speed_error = sum(
            (p.speed_mps - self.target_speed_mps) ** 2 for p in trajectory
        ) / len(trajectory)
        if report.collides:
            # All-infeasible situations still need a sane ordering: push
            # the collision as far into the future as possible and brake
            # as hard as possible (mitigation), never chase progress.
            ttc = report.first_collision_time_s or 0.0
            return (
                self.collision_cost
                - 100.0 * ttc
                + 10.0 * (accel + self.model.max_decel_mps2)
            )
        return (
            -self.progress_weight * progress
            + self.comfort_weight * abs(accel)
            + self.speed_error_weight * speed_error
            + (self.lane_change_penalty if is_lane_change else 0.0)
        )

    def _emergency_plan(self, state: VehicleState, now_s: float) -> Plan:
        command = ControlCommand(
            steer_rad=0.0,
            accel_mps2=-self.model.max_decel_mps2,
            timestamp_s=now_s,
            source="proactive",
        )
        stopped = PlanCandidate(
            lane_id="<off-map>",
            accel_mps2=-self.model.max_decel_mps2,
            trajectory=(),
            cost=float("inf"),
            collision=CollisionReport(collides=False),
        )
        return Plan(command=command, chosen=stopped, candidates=(stopped,))
