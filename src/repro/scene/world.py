"""2-D world simulation substrate.

The deployment environments in the paper (tourist sites, campuses,
industrial parks) are constrained, lane-structured worlds with pedestrians
and slow vehicles.  This module models such a world: static obstacles,
moving agents with simple motion laws, and visual landmarks (the features
the VIO tracks).  Everything downstream — sensors, perception, planning,
and the closed-loop SoV — observes or acts on a :class:`World`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Obstacle:
    """A static circular obstacle (parked cart, bollard, planter)."""

    x_m: float
    y_m: float
    radius_m: float = 0.5
    obstacle_id: int = 0

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("obstacle radius must be positive")

    def distance_to(self, x_m: float, y_m: float) -> float:
        """Surface distance (negative means inside the obstacle)."""
        return math.hypot(self.x_m - x_m, self.y_m - y_m) - self.radius_m


@dataclass(frozen=True)
class Agent:
    """A moving agent (pedestrian, bicycle, cart) with constant velocity.

    Constant-velocity motion is what the planning module's prediction step
    assumes (Sec. IV "Action/Traffic Prediction"), so the world uses the
    same law to make the prediction exactly right in the nominal case.
    """

    agent_id: int
    x_m: float
    y_m: float
    vx_mps: float
    vy_mps: float
    radius_m: float = 0.4
    kind: str = "pedestrian"

    def position_at(self, dt_s: float) -> Tuple[float, float]:
        return (self.x_m + self.vx_mps * dt_s, self.y_m + self.vy_mps * dt_s)

    def advanced(self, dt_s: float, steps: int = 1) -> "Agent":
        """This agent moved on by *steps* sub-steps of *dt_s*
        (:meth:`position_at`'s law, applied once per sub-step)."""
        x_m, y_m = self.x_m, self.y_m
        dx, dy = self.vx_mps * dt_s, self.vy_mps * dt_s
        for _ in range(steps):
            x_m += dx
            y_m += dy
        return Agent(
            agent_id=self.agent_id,
            x_m=x_m,
            y_m=y_m,
            vx_mps=self.vx_mps,
            vy_mps=self.vy_mps,
            radius_m=self.radius_m,
            kind=self.kind,
        )

    @property
    def speed_mps(self) -> float:
        return math.hypot(self.vx_mps, self.vy_mps)


@dataclass(frozen=True)
class Landmark:
    """A 3-D visual landmark (corner of a building, sign, texture patch).

    Landmarks are what cameras observe and the VIO tracks.  ``z_m`` is
    height above the road plane.
    """

    landmark_id: int
    x_m: float
    y_m: float
    z_m: float


@dataclass
class World:
    """The complete simulated environment."""

    obstacles: List[Obstacle] = field(default_factory=list)
    agents: List[Agent] = field(default_factory=list)
    landmarks: List[Landmark] = field(default_factory=list)
    time_s: float = 0.0

    def advance(self, dt_s: float, steps: int = 1) -> None:
        """Move all agents forward by *steps* sub-steps of *dt_s*: the
        same floats as *steps* calls of ``advance(dt_s)``."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        self.agents = [a.advanced(dt_s, steps) for a in self.agents]
        time_s = self.time_s
        for _ in range(steps):
            time_s += dt_s
        self.time_s = time_s

    def nearest_obstruction(
        self, x_m: float, y_m: float, heading_rad: float, fov_rad: float = math.pi / 2
    ) -> Optional[Tuple[float, object]]:
        """Closest obstacle or agent within a forward field of view.

        Returns ``(surface_distance_m, entity)`` or ``None``.  This is the
        geometric query behind the radar/sonar models and the reactive path.
        """
        best: Optional[Tuple[float, object]] = None
        for entity in [*self.obstacles, *self.agents]:
            dx, dy = entity.x_m - x_m, entity.y_m - y_m
            distance = math.hypot(dx, dy) - entity.radius_m
            bearing = _angle_diff(math.atan2(dy, dx), heading_rad)
            if abs(bearing) > fov_rad / 2:
                continue
            if best is None or distance < best[0]:
                best = (distance, entity)
        return best

    def entities_in_range(
        self, x_m: float, y_m: float, max_range_m: float
    ) -> List[object]:
        """All obstacles and agents with centers within *max_range_m*."""
        out: List[object] = []
        for entity in [*self.obstacles, *self.agents]:
            if math.hypot(entity.x_m - x_m, entity.y_m - y_m) <= max_range_m:
                out.append(entity)
        return out


def _angle_diff(a: float, b: float) -> float:
    """Signed smallest difference a-b, wrapped to (-pi, pi]."""
    d = math.fmod(a - b + math.pi, 2.0 * math.pi)
    if d <= 0:
        d += 2.0 * math.pi
    return d - math.pi


def make_urban_block(
    seed: int = 0,
    n_obstacles: int = 6,
    n_agents: int = 4,
    n_landmarks: int = 200,
    extent_m: float = 100.0,
) -> World:
    """A reproducible synthetic deployment-site world.

    Obstacles are scattered off the x-axis corridor (the default lane);
    agents drift at pedestrian speeds; landmarks line the corridor at
    building height — the environment the sensor and perception stacks
    exercise.
    """
    rng = np.random.default_rng(seed)
    obstacles = [
        Obstacle(
            x_m=float(rng.uniform(10.0, extent_m)),
            y_m=float(rng.uniform(3.0, 10.0) * rng.choice([-1.0, 1.0])),
            radius_m=float(rng.uniform(0.3, 1.0)),
            obstacle_id=i,
        )
        for i in range(n_obstacles)
    ]
    agents = [
        Agent(
            agent_id=i,
            x_m=float(rng.uniform(5.0, extent_m)),
            y_m=float(rng.uniform(-8.0, 8.0)),
            vx_mps=float(rng.uniform(-1.5, 1.5)),
            vy_mps=float(rng.uniform(-1.5, 1.5)),
            kind=str(rng.choice(["pedestrian", "bicycle", "cart"])),
        )
        for i in range(n_agents)
    ]
    landmarks = [
        Landmark(
            landmark_id=i,
            x_m=float(rng.uniform(0.0, extent_m)),
            y_m=float(rng.uniform(4.0, 15.0) * rng.choice([-1.0, 1.0])),
            z_m=float(rng.uniform(0.5, 6.0)),
        )
        for i in range(n_landmarks)
    ]
    return World(obstacles=obstacles, agents=agents, landmarks=landmarks)
