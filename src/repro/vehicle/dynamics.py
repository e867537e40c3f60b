"""Kinematic vehicle dynamics substrate.

The paper's vehicles are low-speed (20 mph cap) pods/shuttles that maneuver
at lane granularity.  A kinematic bicycle model is the standard substrate
for that regime and is what both our MPC planner and the closed-loop SoV
simulation drive.  Braking follows the constant-deceleration model of
Eq. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Tuple

from ..core import calibration


@dataclass(frozen=True)
class VehicleState:
    """Pose and speed of the vehicle in the world frame."""

    x_m: float = 0.0
    y_m: float = 0.0
    heading_rad: float = 0.0
    speed_mps: float = 0.0
    time_s: float = 0.0

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x_m, self.y_m)

    def distance_to(self, point: Tuple[float, float]) -> float:
        return math.hypot(self.x_m - point[0], self.y_m - point[1])


@dataclass(frozen=True)
class ControlCommand:
    """One actuation command: steer / brake / accelerate (Fig. 5 output)."""

    steer_rad: float = 0.0
    accel_mps2: float = 0.0
    timestamp_s: float = 0.0
    #: "proactive" or "reactive" (Sec. IV); "degradation" marks commands
    #: issued by the graceful-degradation supervisor when the proactive
    #: pipeline is unavailable (repro.robustness.degradation).
    source: str = "proactive"

    def __post_init__(self) -> None:
        if self.source not in ("proactive", "reactive", "degradation"):
            raise ValueError(f"unknown command source {self.source!r}")


@dataclass(frozen=True)
class BicycleModel:
    """Kinematic bicycle model with actuation limits.

    Every vehicle shares the paper's speed cap and brake: 20 mph top
    speed, 4 m/s^2 deceleration (class constants); the wheelbase and
    the accel and steer limits vary per model.
    """

    max_speed_mps: ClassVar[float] = calibration.VEHICLE_TOP_SPEED_MPS
    max_decel_mps2: ClassVar[float] = calibration.BRAKE_DECEL_MPS2

    wheelbase_m: float = 1.8
    max_accel_mps2: float = 2.0
    max_steer_rad: float = 0.5

    def __post_init__(self) -> None:
        if self.wheelbase_m <= 0:
            raise ValueError("wheelbase must be positive")

    def clamp(self, command: ControlCommand) -> ControlCommand:
        """Clamp a command to the vehicle's actuation limits.

        A command strictly inside both limits is returned as it is: the
        clamping expressions would give back its own two values.
        """
        if (
            -self.max_steer_rad < command.steer_rad < self.max_steer_rad
            and -self.max_decel_mps2 < command.accel_mps2 < self.max_accel_mps2
        ):
            return command
        steer = max(-self.max_steer_rad, min(self.max_steer_rad, command.steer_rad))
        accel = max(-self.max_decel_mps2, min(self.max_accel_mps2, command.accel_mps2))
        return replace(command, steer_rad=steer, accel_mps2=accel)

    def step(
        self, state: VehicleState, command: ControlCommand, dt_s: float
    ) -> VehicleState:
        """Advance the state by *dt_s* under *command*.

        Uses the standard rear-axle kinematic bicycle update.  Speed is
        clamped to [0, max_speed]; the vehicle never reverses.
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        # clamp()'s expressions on the two floats, with no command built.
        steer = max(-self.max_steer_rad, min(self.max_steer_rad, command.steer_rad))
        accel = max(-self.max_decel_mps2, min(self.max_accel_mps2, command.accel_mps2))
        speed = state.speed_mps + accel * dt_s
        speed = max(0.0, min(self.max_speed_mps, speed))
        # Integrate with the mean of old/new speed for second-order accuracy.
        avg_speed = 0.5 * (state.speed_mps + speed)
        heading = state.heading_rad + (
            avg_speed / self.wheelbase_m * math.tan(steer) * dt_s
        )
        x = state.x_m + avg_speed * math.cos(state.heading_rad) * dt_s
        y = state.y_m + avg_speed * math.sin(state.heading_rad) * dt_s
        return VehicleState(
            x_m=x,
            y_m=y,
            heading_rad=_wrap_angle(heading),
            speed_mps=speed,
            time_s=state.time_s + dt_s,
        )

    def brake_to_stop(
        self, state: VehicleState, dt_s: float = 0.01
    ) -> List[VehicleState]:
        """Full-braking trajectory from *state* to standstill.

        Returns the sequence of states (including the initial one).  Total
        distance covered converges to ``v^2 / 2a`` as ``dt -> 0``, matching
        :meth:`repro.core.latency_model.LatencyModel.braking_distance_m`.
        """
        states = [state]
        brake = ControlCommand(accel_mps2=-self.max_decel_mps2)
        while states[-1].speed_mps > 0:
            states.append(self.step(states[-1], brake, dt_s))
        return states

    def stopping_distance_m(self, speed_mps: float) -> float:
        """Closed-form braking distance from *speed_mps* (Eq. 1 term)."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return speed_mps ** 2 / (2.0 * self.max_decel_mps2)


def _wrap_angle(angle_rad: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(angle_rad + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def simulate_straight_line_stop(
    initial_speed_mps: float,
    computing_latency_s: float,
    model: Optional[BicycleModel] = None,
    data_latency_s: float = calibration.CAN_BUS_LATENCY_S,
    mech_latency_s: float = calibration.MECHANICAL_LATENCY_S,
    dt_s: float = 0.001,
) -> float:
    """Numerically reproduce Eq. 1: distance from event to standstill.

    The vehicle cruises at *initial_speed_mps* during the computing, CAN,
    and mechanical latencies, then brakes at full deceleration.  Returns the
    total distance covered — the quantity that must not exceed the obstacle
    distance ``D``.
    """
    model = model or BicycleModel()
    state = VehicleState(speed_mps=initial_speed_mps)
    cruise = ControlCommand(accel_mps2=0.0)
    reaction_time = computing_latency_s + data_latency_s + mech_latency_s
    elapsed = 0.0
    while elapsed < reaction_time:
        step = min(dt_s, reaction_time - elapsed)
        state = model.step(state, cruise, step)
        elapsed += step
    final = model.brake_to_stop(state, dt_s)[-1]
    return final.x_m
