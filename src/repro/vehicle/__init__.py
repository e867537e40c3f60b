"""Vehicle substrate: dynamics, actuation, battery, and configurations."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "actuator": ("Actuator", "EngineControlUnit"),
    "battery": ("Battery", "BatteryDepletedError"),
    "configs": (
        "VehicleConfig", "eight_seater_shuttle", "lidar_variant",
        "two_seater_pod",
    ),
    "dynamics": (
        "BicycleModel", "ControlCommand", "VehicleState",
        "simulate_straight_line_stop",
    ),
})
