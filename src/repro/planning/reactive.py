"""The reactive path — the last line of defense (paper Sec. IV, Fig. 5).

Radar (and sonar) distance readings bypass the computing system: when the
nearest obstruction is inside the stopping envelope, the reactive path
sends a full-brake command directly to the ECU, overriding the proactive
pipeline.  Its end-to-end latency is ~30 ms (vs the proactive best case of
149 ms), letting the vehicle react to objects 4.1 m away — approaching the
4 m braking-distance limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from ..core import calibration
from ..core.latency_model import LatencyModel
from ..vehicle.dynamics import ControlCommand


@dataclass(frozen=True)
class ReactiveDecision:
    """Outcome of one reactive-path evaluation.

    ``triggered`` marks a *new intervention* (the path stopped a moving
    vehicle); ``held`` marks a standing brake-hold refresh on a vehicle
    that is already stopped — a hold carries a command but is not counted
    as a trigger, so trigger counts reflect real interventions.
    """

    triggered: bool
    distance_m: Optional[float]
    threshold_m: float
    command: Optional[ControlCommand] = None
    held: bool = False


@dataclass
class ReactivePath:
    """Distance-threshold brake override.

    The trigger threshold is the avoidance range achievable at the
    reactive path's own latency (Eq. 1 with Tcomp = 30 ms), padded by a
    small margin.  Anything closer cannot be avoided even by this path, so
    the threshold is also the earliest-useful trigger point — braking
    sooner than necessary hurts ride quality (Sec. V-C: staying proactive
    "directly translates to better passenger experience").
    """

    latency_s: ClassVar[float] = calibration.REACTIVE_PATH_LATENCY_S
    #: Below this speed the vehicle counts as stopped: an in-threshold
    #: obstruction yields a brake *hold*, not a new trigger.
    stopped_speed_eps_mps: ClassVar[float] = 0.05
    latency_model: ClassVar[LatencyModel] = LatencyModel()

    margin_m: float = 0.3
    triggers: int = field(default=0, init=False)

    @property
    def threshold_m(self) -> float:
        return (
            self.latency_model.min_avoidable_distance_m(self.latency_s)
            + self.margin_m
        )

    def evaluate(
        self,
        nearest_distance_m: Optional[float],
        now_s: float,
        speed_mps: Optional[float] = None,
    ) -> ReactiveDecision:
        """Evaluate one radar/sonar reading.

        ``nearest_distance_m`` is None when no obstruction is in view.
        When *speed_mps* is supplied and the vehicle is already stopped,
        an in-threshold obstruction refreshes the standing brake command
        (``held=True``) without counting a trigger — braking a parked
        vehicle is not an intervention.
        """
        threshold = self.threshold_m
        if nearest_distance_m is None or nearest_distance_m > threshold:
            return ReactiveDecision(
                triggered=False,
                distance_m=nearest_distance_m,
                threshold_m=threshold,
            )
        command = ControlCommand(
            steer_rad=0.0,
            accel_mps2=-self.latency_model.decel_mps2,
            timestamp_s=now_s + self.latency_s,
            source="reactive",
        )
        if speed_mps is not None and speed_mps <= self.stopped_speed_eps_mps:
            return ReactiveDecision(
                triggered=False,
                distance_m=nearest_distance_m,
                threshold_m=threshold,
                command=command,
                held=True,
            )
        self.triggers += 1
        return ReactiveDecision(
            triggered=True,
            distance_m=nearest_distance_m,
            threshold_m=threshold,
            command=command,
        )
