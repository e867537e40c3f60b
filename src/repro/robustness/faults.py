"""Composable, seeded fault models for the SoV loop (paper Sec. III-C).

The paper's safety argument assumes the proactive pipeline *will* fail —
sensors drop out, vision misses objects, software stalls — and the vehicle
stays safe because the reactive Radar/Sonar→ECU path and fallback policies
catch those failures.  This module provides the failure vocabulary:

* **sensor faults** — dropout (no data), freeze (stale data), stuck value;
* **camera frame drops** — per-frame Bernoulli loss in the FPGA sensor hub;
* **CAN faults** — frame loss and delay bursts on the command path;
* **perception faults** — task crashes and latency spikes/stalls layered
  onto the sampled dataflow distributions;
* **GPS denial** — loss of the localization anchor;
* **actuator faults** — a silent steering bias (the lateral stressor:
  nothing crashes, nothing heartbeats wrong, the vehicle just veers).

Faults are declarative, frozen dataclasses scheduled by a
:class:`FaultWindow`; a :class:`FaultScenario` bundles them into a named,
reproducible experiment.  The runtime side — the :class:`FaultHarness` —
owns a dedicated RNG stream derived from ``(seed, scenario)`` so that
injection never perturbs the nominal simulation's random sequence: a SoV
with an empty scenario behaves bit-identically to one with no scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Sensors the dropout/freeze/stuck faults understand.
SENSOR_NAMES = ("radar", "camera", "gps")


@dataclass(frozen=True)
class FaultWindow:
    """A half-open activity interval ``[start_s, end_s)``."""

    start_s: float
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("fault window cannot start before t=0")
        if self.end_s <= self.start_s:
            raise ValueError("fault window must end after it starts")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class SensorDropoutFault:
    """A sensor produces no data while active.

    A radar dropout blinds the reactive path; a camera dropout blinds the
    vision pipeline (the paper's scenario 2, made total); a GPS dropout is
    equivalent to :class:`GpsDenialFault`.
    """

    sensor: str
    window: FaultWindow

    kind = "sensor_dropout"

    def __post_init__(self) -> None:
        if self.sensor not in SENSOR_NAMES:
            raise ValueError(f"unknown sensor {self.sensor!r}")


@dataclass(frozen=True)
class SensorFreezeFault:
    """A sensor repeats its last pre-fault reading (a frozen driver)."""

    sensor: str
    window: FaultWindow

    kind = "sensor_freeze"

    def __post_init__(self) -> None:
        if self.sensor not in SENSOR_NAMES:
            raise ValueError(f"unknown sensor {self.sensor!r}")


@dataclass(frozen=True)
class SensorStuckValueFault:
    """A sensor reports one constant value (a shorted rangefinder)."""

    sensor: str
    value: float
    window: FaultWindow

    kind = "sensor_stuck"

    def __post_init__(self) -> None:
        if self.sensor not in SENSOR_NAMES:
            raise ValueError(f"unknown sensor {self.sensor!r}")


@dataclass(frozen=True)
class CameraFrameDropFault:
    """Bernoulli frame loss at the FPGA sensor hub's camera interface."""

    drop_prob: float
    window: FaultWindow

    kind = "camera_frame_drop"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class CanBusFault:
    """Frame loss and/or extra delay on the CAN command path.

    ``loss_prob`` is the per-frame corruption probability (the frame still
    occupies the wire — it is dropped after losing arbitration to an error
    frame); ``extra_delay_s`` models a congested/babbling bus.
    """

    window: FaultWindow
    loss_prob: float = 0.0
    extra_delay_s: float = 0.0

    kind = "can_bus"

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if self.extra_delay_s < 0:
            raise ValueError("extra delay must be non-negative")


@dataclass(frozen=True)
class PerceptionCrashFault:
    """The perception task dies while active: no plans are produced.

    The health monitor's watchdog notices the missing heartbeats and keeps
    restarting the module (MTTR-sampled); restarts only stick once the
    fault window has passed.
    """

    window: FaultWindow

    kind = "perception_crash"


@dataclass(frozen=True)
class PerceptionStallFault:
    """The perception task stalls: every iteration gains latency.

    ``extra_latency_s`` is added on top of the sampled dataflow latency;
    a stall longer than the watchdog timeout also costs the module its
    heartbeat (the stall *is* the missed deadline).
    """

    extra_latency_s: float
    window: FaultWindow

    kind = "perception_stall"

    def __post_init__(self) -> None:
        if self.extra_latency_s < 0:
            raise ValueError("extra latency must be non-negative")


@dataclass(frozen=True)
class LatencySpikeFault:
    """Random latency spikes: each iteration gains ``spike_s`` with
    probability ``spike_prob`` (a noisy co-tenant, paper Sec. V-B3)."""

    spike_s: float
    spike_prob: float
    window: FaultWindow

    kind = "latency_spike"

    def __post_init__(self) -> None:
        if self.spike_s < 0:
            raise ValueError("spike must be non-negative")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError("spike probability must be in [0, 1]")


@dataclass(frozen=True)
class GpsDenialFault:
    """GPS fix lost (urban canyon, jamming): localization degrades."""

    window: FaultWindow

    kind = "gps_denial"


@dataclass(frozen=True)
class SteeringBiasFault:
    """The steering actuator applies a constant lateral bias (a bent
    linkage, a miscalibrated steering offset).

    Unlike the longitudinal faults, this one stresses the *lateral*
    control problem: every command reaching the actuator is executed
    with ``bias_rad`` added to its steer angle, silently — no heartbeat
    is lost and no sensor reads wrong, so the supervisor cannot see it
    and the vehicle simply tracks a curved path.  The reactive path
    still guards the forward cone.
    """

    bias_rad: float
    window: FaultWindow

    kind = "steering_bias"

    def __post_init__(self) -> None:
        if self.bias_rad == 0.0:
            raise ValueError("a zero bias is not a fault")


Fault = Union[
    SensorDropoutFault,
    SensorFreezeFault,
    SensorStuckValueFault,
    CameraFrameDropFault,
    CanBusFault,
    PerceptionCrashFault,
    PerceptionStallFault,
    LatencySpikeFault,
    GpsDenialFault,
    SteeringBiasFault,
]


@dataclass(frozen=True)
class FaultScenario:
    """A named, declarative schedule of faults for one drive."""

    name: str
    faults: Tuple[Fault, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        object.__setattr__(self, "faults", tuple(self.faults))
        # The schedule's faults by kind, in schedule order: the loop asks
        # for one kind at a time, many times per simulated second.
        by_kind: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            by_kind.setdefault(fault.kind, []).append(fault)
        object.__setattr__(
            self, "_by_kind", {k: tuple(v) for k, v in by_kind.items()}
        )

    def of_kind(self, kind: str) -> List[Fault]:
        return list(self._by_kind.get(kind, ()))

    def active(self, kind: str, now_s: float) -> List[Fault]:
        """The faults of *kind* whose windows cover *now_s*, in schedule
        order; a kind the schedule does not hold returns at once."""
        faults = self._by_kind.get(kind)
        if faults is None:
            return []
        return [f for f in faults if f.window.active(now_s)]

    @property
    def kinds(self) -> List[str]:
        return sorted({f.kind for f in self.faults})

    def subset(self, indices: "Sequence[int]") -> "FaultScenario":
        """The schedule restricted to the fault positions in *indices*.

        The delta-debugging edit hook: triage shrinks a schedule by
        dropping draws, never by re-rolling them, so any subset replays
        the surviving faults bit-identically.  Order is preserved and
        indices are de-duplicated; out-of-range indices raise.
        """
        keep = sorted(set(indices))
        for i in keep:
            if not 0 <= i < len(self.faults):
                raise IndexError(
                    f"fault index {i} out of range for "
                    f"{len(self.faults)}-fault schedule"
                )
        return FaultScenario(
            name=f"{self.name}-subset",
            faults=tuple(self.faults[i] for i in keep),
            description=self.description,
        )


#: The scenario a harness gets when none is supplied: injects nothing.
EMPTY_SCENARIO = FaultScenario(name="nominal", faults=())


class FaultHarness:
    """Runtime fault injection for one drive.

    The harness is the single point the SoV loop consults: it answers
    "what does the radar read right now?", "is vision blind?", "how much
    extra latency does perception pay this tick?", and "which CAN fault is
    active?".  All stochastic choices come from a private RNG stream
    seeded by ``(seed, scenario.name)`` so runs are reproducible and the
    nominal simulation's RNG is untouched.
    """

    def __init__(self, scenario: Optional[FaultScenario] = None, seed: int = 0):
        self.scenario = scenario or EMPTY_SCENARIO
        # Stable per-(seed, scenario) stream, independent of the sim RNG.
        name_digest = sum(ord(c) * (i + 1) for i, c in enumerate(self.scenario.name))
        self._rng = np.random.default_rng([seed, name_digest % (2**31)])
        self._last_radar_m: Optional[float] = None
        self.injections: Dict[str, int] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.injections[kind] = self.injections.get(kind, 0) + 1

    @property
    def total_injections(self) -> int:
        return sum(self.injections.values())

    # -- sensor faults ---------------------------------------------------------

    def sensor_faulted(self, sensor: str, now_s: float) -> bool:
        """Whether *any* fault currently afflicts the named sensor."""
        for kind in ("sensor_dropout", "sensor_freeze", "sensor_stuck"):
            if any(
                f.sensor == sensor for f in self.scenario.active(kind, now_s)
            ):
                return True
        if sensor == "gps" and self.scenario.active("gps_denial", now_s):
            return True
        return False

    def radar_reading(
        self, true_distance_m: Optional[float], now_s: float
    ) -> Optional[float]:
        """Filter the radar/sonar range through the active radar faults."""
        for fault in self.scenario.active("sensor_stuck", now_s):
            if fault.sensor == "radar":
                self._count("sensor_stuck")
                return fault.value
        for fault in self.scenario.active("sensor_freeze", now_s):
            if fault.sensor == "radar":
                self._count("sensor_freeze")
                return self._last_radar_m
        if any(
            f.sensor == "radar"
            for f in self.scenario.active("sensor_dropout", now_s)
        ):
            self._count("sensor_dropout")
            return None
        self._last_radar_m = true_distance_m
        return true_distance_m

    def vision_blinded(self, now_s: float) -> bool:
        """Whether the camera/vision input is entirely dark.

        Deliberately *silent*: the perception task keeps running (and
        heartbeating) on an empty frame — the paper's scenario 2, where
        only the reactive path can save the vehicle.
        """
        blinded = any(
            f.sensor == "camera"
            for f in self.scenario.active("sensor_dropout", now_s)
        )
        if blinded:
            self._count("camera_dropout")
        return blinded

    def gps_denied(self, now_s: float) -> bool:
        denied = bool(self.scenario.active("gps_denial", now_s)) or any(
            f.sensor == "gps"
            for f in self.scenario.active("sensor_dropout", now_s)
        )
        if denied:
            self._count("gps_denial")
        return denied

    # -- perception faults -----------------------------------------------------

    def perception_crashed(self, now_s: float) -> bool:
        crashed = bool(self.scenario.active("perception_crash", now_s))
        if crashed:
            self._count("perception_crash")
        return crashed

    def perception_overhead_s(self, now_s: float) -> float:
        """Extra latency injected into this perception iteration."""
        extra = 0.0
        for fault in self.scenario.active("perception_stall", now_s):
            extra += fault.extra_latency_s
            self._count("perception_stall")
        for fault in self.scenario.active("latency_spike", now_s):
            if self._rng.random() < fault.spike_prob:
                extra += fault.spike_s
                self._count("latency_spike")
        return extra

    # -- actuation faults ------------------------------------------------------

    def steering_bias_rad(self, now_s: float) -> float:
        """Lateral steering bias applied at the actuator right now.

        Sums every active :class:`SteeringBiasFault` (two bent linkages
        compound).  Consumes no randomness.
        """
        bias = 0.0
        for fault in self.scenario.active("steering_bias", now_s):
            bias += fault.bias_rad
            self._count("steering_bias")
        return bias

    # -- attribution support ---------------------------------------------------

    def active_kinds(self, now_s: float) -> Tuple[str, ...]:
        """Fault kinds whose windows cover *now_s* (sorted, no counting).

        Used by deadline-miss attribution to tag a miss with the faults
        in force; unlike the injection accessors this never increments
        the injection tallies.
        """
        return tuple(
            sorted(
                {
                    f.kind
                    for f in self.scenario.faults
                    if f.window.active(now_s)
                }
            )
        )

    # -- transport faults ------------------------------------------------------

    def can_fault(self, now_s: float) -> Optional[CanBusFault]:
        """The currently active CAN fault (the most lossy one wins)."""
        active = self.scenario.active("can_bus", now_s)
        if not active:
            return None
        return max(active, key=lambda f: (f.loss_prob, f.extra_delay_s))

    def can_rng(self) -> np.random.Generator:
        return self._rng

    # -- sensor-hub faults -----------------------------------------------------

    def frame_dropped(self, trigger_s: float) -> bool:
        """Whether the camera frame triggered at *trigger_s* is lost."""
        for fault in self.scenario.active("camera_frame_drop", trigger_s):
            if self._rng.random() < fault.drop_prob:
                self._count("camera_frame_drop")
                return True
        return False
