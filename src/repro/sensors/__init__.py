"""Sensor substrate: clocks, cameras, IMU, GPS, radar, sonar, and the rig."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Sensor", "SensorClock", "SensorSample"),
    "camera": (
        "Camera", "CameraFrame", "CameraTimingModel", "StereoRigGeometry",
        "make_stereo_pair_cameras",
    ),
    "gps": ("GnssFix", "Gps", "OutageWindow"),
    "imu": ("Imu", "ImuReading"),
    "radar": ("Radar", "RadarDetection"),
    "rig": ("SensorRig", "build_rig"),
    "sonar": ("Sonar", "SonarPing"),
})
