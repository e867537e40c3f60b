"""World simulation substrate: lane maps, worlds, trajectories, datasets."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "corridors": (
        "CorridorScenario", "corridor_names", "generate_corridor",
        "generate_suite", "make_corridor_sov", "run_corridor_drive",
    ),
    "dataset_io": ("load_sequence", "save_sequence"),
    "kitti_like": (
        "CameraIntrinsics", "DriveSequence", "FeatureObservation", "Frame",
        "ImuSample", "SequenceGenerator", "StereoPair", "make_disparity_scene",
        "make_stereo_pair", "project_landmark",
    ),
    "lanes": ("LaneMap", "LaneSegment", "campus_loop", "straight_corridor"),
    "trajectory": (
        "CircuitTrajectory", "FigureEightTrajectory", "StraightTrajectory",
        "Trajectory", "TrajectorySample", "WaypointTrajectory",
    ),
    "world": ("Agent", "Landmark", "Obstacle", "World", "make_urban_block"),
})
