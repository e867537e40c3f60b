"""Fault-aware load shedding for the SoV dataflow (paper Sec. III-C, IV).

When the health picture degrades, blindly restarting modules is not the
only lever: the scheduler can *shed* work so the surviving pipeline runs
leaner (the π-Edge argument — safety-critical tasks keep their budget by
taking it from deferrable ones).  The policy maps each degradation mode
to a per-tick scheduling decision:

* ``NOMINAL`` — nothing is shed; the pipeline runs exactly as calibrated.
* ``DEGRADED`` — KCF tracking is skipped every tick (radar tracking or
  coasted tracks stand in) and detection runs at a reduced cadence; on
  the off-cadence ticks the planner consumes the previous tick's
  perception output.
* ``REACTIVE_ONLY`` / ``SAFE_STOP`` — the proactive pipeline is bypassed
  entirely: no perception/planning work is scheduled, and the supervisor
  (guarded by the reactive path) drives.  Safety-critical commands are
  sent at CAN arbitration priority so they never queue behind backlogged
  proactive traffic.

Decisions are pure functions of ``(mode, tick_index)``: the shedder
consumes no randomness, so enabling it never perturbs the nominal
simulation, and a shed iteration is never slower than the un-shed one
(the latency samples are identical; shedding only zeroes terms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..robustness.degradation import DegradationMode
from .canbus import CanBus

#: The proactive-pipeline tasks bypassed wholesale in REACTIVE_ONLY and
#: SAFE_STOP (everything downstream of the sensor interfaces).
PIPELINE_TASKS: Tuple[str, ...] = (
    "localization",
    "depth",
    "detection",
    "tracking",
    "planning",
)

#: Tasks skipped on *every* DEGRADED tick (the KCF tracker first: cheap
#: to drop, and radar tracking covers its role — Sec. IV).
DEGRADED_SKIP_TASKS: Tuple[str, ...] = ("tracking",)

#: Tasks governed by the DEGRADED detection cadence (the serialized
#: chain).
DETECTION_CHAIN: Tuple[str, ...] = ("detection", "tracking")


@dataclass(frozen=True)
class LoadShedPolicy:
    """Which work each degradation mode sheds."""

    #: Detection runs on one tick in this many while DEGRADED (cadence
    #: drop); 1 keeps detection at full rate.
    degraded_detection_period: int = 2

    def __post_init__(self) -> None:
        if self.degraded_detection_period < 1:
            raise ValueError("detection period must be >= 1")


@dataclass(frozen=True)
class TickShed:
    """One control tick's scheduling decision."""

    #: Dataflow tasks whose latency is shed this tick.
    skip_tasks: FrozenSet[str] = frozenset()
    #: The whole proactive pipeline is bypassed (supervisor drives).
    bypass_pipeline: bool = False
    #: Perception may serve the previous tick's output (cadence drop).
    reuse_cached_perception: bool = False
    #: Arbitration id for this tick's outgoing command.
    can_arbitration_id: int = CanBus.PRIORITY_NORMAL

    @property
    def sheds_anything(self) -> bool:
        return bool(self.skip_tasks) or self.bypass_pipeline


class LoadShedder:
    """Maps (degradation mode, tick index) to a :class:`TickShed`."""

    def __init__(self, policy: Optional[LoadShedPolicy] = None) -> None:
        self.policy = policy or LoadShedPolicy()
        #: Shed-task counts keyed by mode name, mirrored into telemetry.
        self.sheds_by_mode: Dict[str, int] = {}

    def plan(self, mode: DegradationMode, tick_index: int) -> TickShed:
        policy = self.policy
        if mode is DegradationMode.NOMINAL:
            return TickShed()
        if mode is DegradationMode.DEGRADED:
            skip = set(DEGRADED_SKIP_TASKS)
            off_cadence = (
                policy.degraded_detection_period > 1
                and tick_index % policy.degraded_detection_period != 0
            )
            if off_cadence:
                skip.update(DETECTION_CHAIN)
            return TickShed(
                skip_tasks=frozenset(skip),
                reuse_cached_perception=off_cadence,
            )
        # REACTIVE_ONLY / SAFE_STOP: the supervisor drives; its commands
        # are safety-critical on the wire.
        return TickShed(
            skip_tasks=frozenset(PIPELINE_TASKS),
            bypass_pipeline=True,
            can_arbitration_id=CanBus.PRIORITY_CRITICAL,
        )

    def account(self, mode: DegradationMode, shed: TickShed) -> None:
        """Tally one tick's sheds (the SoV mirrors this into telemetry)."""
        if shed.skip_tasks:
            self.sheds_by_mode[mode.name] = self.sheds_by_mode.get(
                mode.name, 0
            ) + len(shed.skip_tasks)

    @property
    def total_sheds(self) -> int:
        return sum(self.sheds_by_mode.values())
