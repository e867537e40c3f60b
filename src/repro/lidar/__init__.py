"""LiDAR case-study substrate: clouds, kd-tree, ICP, kernels, reuse."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "kdtree": ("AccessTrace", "KdTree"),
    "kernels": (
        "ALL_KERNELS", "KernelResult", "localization_kernel",
        "recognition_kernel", "reconstruction_kernel", "run_kernel",
        "segmentation_kernel",
    ),
    "pointcloud": ("Box", "PointCloud", "rotation_z", "simulate_lidar_scan"),
    "registration": ("IcpResult", "icp"),
    "reuse": ("ReuseHistogram", "distribution_divergence", "reuse_histogram"),
})
