"""The SoV runtime: dataflow, pipelined scheduler, CAN bus, closed loop.

Fault injection, health monitoring, and the degradation supervisor the
closed loop consults live in :mod:`repro.robustness`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alp": (
        "AlpExecutor", "AlpReport", "paper_assignment", "paper_devices",
        "single_device_assignment",
    ),
    "canbus": ("CanBus", "CanMessage"),
    "dataflow": ("LatencyDistribution", "SovDataflow", "Task"),
    "sensor_hub": ("FpgaSensorHub",),
    "scheduler": ("FrameTiming", "PipelinedExecutor", "PipelineReport"),
    "shedding": ("LoadShedder", "LoadShedPolicy", "TickShed"),
    "sov": (
        "DriveResult", "SovConfig", "SystemsOnAVehicle",
        "obstacle_ahead_scenario",
    ),
    "telemetry": ("LatencyStats", "OperationsLog"),
})
