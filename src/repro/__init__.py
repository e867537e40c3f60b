"""repro — reproduction of "Building the Computing System for Autonomous
Micromobility Vehicles: Design Constraints and Architectural Optimizations"
(MICRO 2020).

The library is organized as the paper is:

* :mod:`repro.core` — the Sec. III analytical models (latency Eq. 1,
  energy Eq. 2, cost Table II, constraint checking) and every calibration
  constant the paper reports.
* :mod:`repro.vehicle` — vehicle substrate: dynamics, ECU/actuator,
  battery, named configurations.
* :mod:`repro.scene` — world simulation: lane maps, obstacles/agents,
  trajectories, KITTI-like synthetic datasets.
* :mod:`repro.sensors` — cameras, IMU, GPS, radar, sonar, with per-sensor
  clocks (drift/offset) and the full rig.
* :mod:`repro.sync` — Sec. VI-A: software-only vs hardware sensor
  synchronization.
* :mod:`repro.lidar` — Sec. III-D: point clouds, kd-tree with access
  tracing, ICP, the four Fig. 4b kernels, reuse analysis.
* :mod:`repro.hw` — Sec. V: cache simulator, platform models, GPU
  contention, task mapping, FPGA resources, the RPR engine.
* :mod:`repro.perception` — Table III algorithms: ELAS-like stereo, the
  detector, KCF, VIO, GPS-VIO fusion, radar tracking + spatial sync.
* :mod:`repro.planning` — lane-level MPC, the Apollo-EM-style baseline,
  collision checking, prediction, the reactive path.
* :mod:`repro.runtime` — the SoV: dataflow graph, pipelined scheduler,
  CAN bus, closed-loop drive simulation.
* :mod:`repro.robustness` — Sec. III-C safety machinery: declarative
  fault injection, heartbeat/watchdog health monitoring with an MTTR
  restart model, and the graceful-degradation supervisor.
* :mod:`repro.cloud` — Fig. 1 offline services: maps, training, uplink.
* :mod:`repro.fleetops` — the fleet-scale campaign engine: a supervised
  multi-process worker pool (heartbeats, retries, straggler speculation,
  serial degradation) with a crash-consistent checkpoint journal,
  executing chaos/invariant/drill cells bit-identically to the serial
  paths.
* :mod:`repro.observability` — per-frame span tracing (Perfetto export),
  a metrics registry with streaming percentiles, Eq. 1 deadline-miss
  attribution, and the ``bench-gate`` perf-regression gate over the
  closed-loop, chaos-campaign, and scheduler workloads.
* :mod:`repro.testing` — the property-based safety-invariant harness
  sweeping the corridor scenario suite (:mod:`repro.scene.corridors`).

Quickstart::

    from repro.core import LatencyModel
    from repro.runtime import obstacle_ahead_scenario

    print(LatencyModel().latency_requirement_s(5.0))   # ~0.164 s
    result = obstacle_ahead_scenario(5.9, 0.164).drive(4.0)
    print(result.stopped, result.collided)
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cloud": ("cloud",),
    "core": ("core",),
    "fleetops": ("fleetops",),
    "hw": ("hw",),
    "lidar": ("lidar",),
    "observability": ("observability",),
    "perception": ("perception",),
    "planning": ("planning",),
    "robustness": ("robustness",),
    "runtime": ("runtime",),
    "scene": ("scene",),
    "sensors": ("sensors",),
    "sync": ("sync",),
    "testing": ("testing",),
    "vehicle": ("vehicle",),
})
__all__.append("__version__")
