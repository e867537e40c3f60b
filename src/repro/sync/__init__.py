"""Sensor synchronization: delay models, software and hardware strategies."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "delays": (
        "DelayStage", "PipelineModel", "camera_pipeline", "imu_pipeline",
    ),
    "hardware_sync": (
        "HardwareSynchronizer", "HardwareSyncSimulation", "SynchronizerSpec",
    ),
    "matching": (
        "MatchedPair", "SyncReport", "TimedRecord", "associate_nearest",
    ),
    "software_sync": ("SoftwareSyncSimulation", "paper_mismatch_example"),
})
