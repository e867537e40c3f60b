"""Fault injection, health monitoring, and graceful degradation.

The safety subsystem of the repro: declarative fault scenarios
(:mod:`repro.robustness.faults`), heartbeat/watchdog health monitoring
with an MTTR restart model (:mod:`repro.robustness.health`), and the
NOMINAL → DEGRADED → REACTIVE_ONLY → SAFE_STOP supervisor
(:mod:`repro.robustness.degradation`) that the closed-loop SoV consults
every control tick.

:mod:`repro.robustness.chaos` builds on all three: a seeded chaos
campaign engine that samples fault scenarios from a configurable
fault-space distribution and sweeps them through the closed-loop SoV,
aggregating a collision-free envelope report.  It is deliberately *not*
re-exported here — chaos imports the runtime (which imports this
package), so pull it in directly via ``import repro.robustness.chaos``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "degradation": (
        "DegradationMode", "DegradationPolicy", "DegradationStateMachine",
        "HealthInputs", "ModeTransition",
    ),
    "faults": (
        "CameraFrameDropFault", "CanBusFault", "EMPTY_SCENARIO",
        "FaultHarness", "FaultScenario", "FaultWindow", "GpsDenialFault",
        "LatencySpikeFault", "PerceptionCrashFault", "PerceptionStallFault",
        "SensorDropoutFault", "SensorFreezeFault", "SensorStuckValueFault",
        "SteeringBiasFault",
    ),
    "health": ("HealthMonitor", "HealthReport", "ModuleHealth"),
})
