"""Core analytical models from Sec. III of the paper.

Public surface:

* :mod:`repro.core.latency_model` — Eq. 1 end-to-end latency model.
* :mod:`repro.core.energy_model` — Eq. 2 driving-time model, Table I.
* :mod:`repro.core.cost_model` — Table II bill of materials and TCO.
* :mod:`repro.core.constraints` — executable Sec. III constraint checklist.
* :mod:`repro.core.calibration` — every constant the paper reports.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "calibration": ("TaskPlatformProfile", "task_profile"),
    "fleet": ("ComputeTier", "FleetTcoModel", "paper_compute_tiers"),
    "thermal": (
        "CoolingSolution", "ThermalModel", "conventional_fans",
        "cooling_comparison", "liquid_cooling", "passive_cooling",
    ),
    "constraints": ("ConstraintResult", "ConstraintSet", "DesignCandidate"),
    "cost_model": (
        "BillOfMaterials", "CostItem", "TcoModel", "VehicleCost",
        "camera_vehicle_sensors", "cost_comparison", "lidar_vehicle_sensors",
        "paper_camera_vehicle", "paper_lidar_vehicle",
    ),
    "energy_model": (
        "EnergyModel", "PowerComponent", "PowerInventory", "Scenario",
        "fig3b_scenarios", "paper_ad_inventory", "waymo_lidar_bank",
    ),
    "latency_model": (
        "LatencyBreakdown", "LatencyModel", "LatencyRequirementPoint",
        "computing_fraction", "end_to_end_latency_s", "paper_breakdown_best",
        "paper_breakdown_mean",
    ),
})
