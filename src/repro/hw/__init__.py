"""Hardware platform substrate: caches, platforms, mapping, FPGA, RPR."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CacheConfig", "CacheSimulator", "CacheStats", "coffee_lake_llc",
        "normalized_memory_traffic", "small_llc",
    ),
    "contention": ("ContentionModel", "gpu_contention_model"),
    "fpga": (
        "AcceleratorBlock", "FpgaDevice", "ResourceVector",
        "hardware_synchronizer_block", "localization_accelerator",
        "paper_fpga_floorplan", "rpr_engine_block", "spatial_sharing_cost",
    ),
    "mapping": (
        "MappingResult", "OffloadImpact", "best_mapping", "enumerate_mappings",
        "evaluate_mapping", "fpga_offload_impact", "localization_alone_s",
        "scene_understanding_alone_s",
    ),
    "platforms": (
        "PERCEPTION_TASKS", "PLATFORMS", "ComparisonRow", "Platform",
        "all_platforms", "automotive_asic_platform", "cpu_platform",
        "evaluate_sensor_hub", "fig6_comparison", "fpga_platform",
        "gpu_platform", "tx2_platform",
    ),
    "offload": (
        "OffloadDecision", "OffloadTarget", "avoidance_range_with_offload",
        "cloud_datacenter", "edge_server", "evaluate_offload", "offload_plan",
    ),
    "roofline": (
        "Roofline", "RooflinePoint", "Workload", "lidar_acceleration_gap",
        "paper_rooflines", "paper_workloads", "roofline_analysis",
    ),
    "rpr": (
        "Bitstream", "RprEngine", "RprEngineConfig", "RprEvent", "RprManager",
        "conventional_dma_reconfiguration", "cpu_driven_reconfiguration",
        "hourly_task_swap_overhead", "paper_localization_variants",
    ),
})
