"""Collision checking along candidate trajectories (paper Fig. 5).

The "Collision Detection" block: given a time-stamped ego trajectory and
the predicted states of surrounding objects (plus static obstacles), decide
whether any point comes within the safety margin.  The corridor-geometry
helpers at the bottom apply the same clearance arithmetic to whole lane
maps — the scenario suite uses them to prove a generated corridor is
drivable (or intentionally blocked) *before* a drive ever runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..scene.world import Obstacle, World
from .prediction import PredictedState

#: Ego body radius: the disc every clearance is measured from.
EGO_RADIUS_M = 0.8
#: Clearance below which a trajectory point collides.
SAFETY_MARGIN_M = 0.3
#: A prediction is compared with the trajectory point within this time.
TIME_TOLERANCE_S = 0.06


@dataclass(frozen=True)
class TrajectoryPoint:
    """One time-stamped pose on a candidate ego trajectory."""

    time_s: float
    x_m: float
    y_m: float
    speed_mps: float = 0.0


@dataclass(frozen=True)
class CollisionReport:
    """Result of checking one trajectory."""

    collides: bool
    first_collision_time_s: Optional[float] = None
    colliding_object_id: Optional[int] = None
    min_clearance_m: float = float("inf")


def check_trajectory(
    trajectory: Sequence[TrajectoryPoint],
    predictions: Sequence[PredictedState],
    static_obstacles: Sequence[Obstacle] = (),
    ego_radius_m: float = EGO_RADIUS_M,
) -> CollisionReport:
    """Check an ego trajectory against moving predictions and static
    obstacles.

    Moving objects are compared only at matching horizon instants (within
    :data:`TIME_TOLERANCE_S`); static obstacles are checked at every
    point.  A point collides when its clearance is under
    :data:`SAFETY_MARGIN_M`.
    """
    if ego_radius_m <= 0:
        raise ValueError("ego radius must be positive")
    min_clearance = float("inf")
    for point in trajectory:
        for obstacle in static_obstacles:
            clearance = (
                math.hypot(point.x_m - obstacle.x_m, point.y_m - obstacle.y_m)
                - obstacle.radius_m
                - ego_radius_m
            )
            min_clearance = min(min_clearance, clearance)
            if clearance < SAFETY_MARGIN_M:
                return CollisionReport(
                    collides=True,
                    first_collision_time_s=point.time_s,
                    colliding_object_id=-1 - obstacle.obstacle_id,
                    min_clearance_m=min_clearance,
                )
        for pred in predictions:
            if abs(pred.time_s - point.time_s) > TIME_TOLERANCE_S:
                continue
            clearance = (
                math.hypot(point.x_m - pred.x_m, point.y_m - pred.y_m)
                - pred.radius_m
                - ego_radius_m
            )
            min_clearance = min(min_clearance, clearance)
            if clearance < SAFETY_MARGIN_M:
                return CollisionReport(
                    collides=True,
                    first_collision_time_s=point.time_s,
                    colliding_object_id=pred.object_id,
                    min_clearance_m=min_clearance,
                )
    return CollisionReport(collides=False, min_clearance_m=min_clearance)


def lane_clearance_at(
    world: World,
    lane_map,
    s_m: float,
    ego_radius_m: float = EGO_RADIUS_M,
) -> float:
    """Best static clearance over all lanes at corridor station *s_m*.

    For each lane segment, takes the centerline point at arc-length
    *s_m* and measures its surface distance to the nearest static
    obstacle, less the ego body radius.  The max over lanes is the
    clearance a planner allowed to change lanes can achieve at that
    station; ``inf`` when the world has no obstacles.
    """
    best = -math.inf
    for segment_id in lane_map.segment_ids:
        segment = lane_map.segment(segment_id)
        x, y = segment.point_at(s_m)
        clearance = math.inf
        for obstacle in world.obstacles:
            clearance = min(
                clearance, obstacle.distance_to(x, y) - ego_radius_m
            )
        best = max(best, clearance)
    return best


#: Station stride of :func:`corridor_blocked_at`.
_CORRIDOR_STEP_M = 0.5


def corridor_blocked_at(
    world: World,
    lane_map,
    length_m: float,
    ego_radius_m: float = EGO_RADIUS_M,
) -> Optional[float]:
    """First corridor station where *every* lane is obstructed.

    Walks the corridor in :data:`_CORRIDOR_STEP_M` strides; a station is
    blocked when no lane offers :data:`SAFETY_MARGIN_M` of clearance
    there (the margin the trajectory checker uses).  Returns the
    arc-length of the first blocked station, or None when the corridor
    is traversable end to end — the scenario generator's drivability
    certificate.
    """
    n_steps = max(1, int(math.ceil(length_m / _CORRIDOR_STEP_M)))
    for k in range(n_steps + 1):
        s = min(length_m, k * _CORRIDOR_STEP_M)
        clearance = lane_clearance_at(world, lane_map, s, ego_radius_m)
        if clearance < SAFETY_MARGIN_M:
            return s
    return None
