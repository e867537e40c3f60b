"""Perception algorithms: stereo depth, detection, tracking, VIO, fusion."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "depth_error": ("StereoSyncErrorModel", "fig11a_curve"),
    "detection": (
        "Detection", "LogisticModel", "SlidingWindowDetector",
        "build_training_set", "evaluate_detector", "hog_features",
        "patch_features", "make_scene", "non_max_suppression",
        "train_detector",
    ),
    "features": (
        "ImageFeature", "TrackResult", "extract_features", "track_feature",
        "track_features",
    ),
    "fusion": ("FusedEstimate", "GpsVioFusion", "run_fusion"),
    "kcf": ("BoundingBox", "KcfTracker"),
    "radar_tracking": (
        "CameraProjection", "RadarTrack", "RadarTracker", "SpatialMatch",
        "spatial_synchronization",
    ),
    "frontend": ("FrontEndFrame", "LocalizationFrontEnd"),
    "tracking_manager": (
        "TrackedTarget", "TrackingManager", "TrackingModeStats",
    ),
    "stereo": ("ElasLikeMatcher", "StereoResult", "depth_error_from_pair"),
    "vio": (
        "CameraImuSyncErrorModel", "RelativeMotion", "VioEstimate",
        "VisualInertialOdometry", "estimate_relative_motion",
        "trajectory_error_m",
    ),
})
