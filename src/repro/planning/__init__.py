"""Planning: lane-level MPC, EM baseline, collision, prediction, reactive."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "collision": ("CollisionReport", "TrajectoryPoint", "check_trajectory"),
    "em_planner": ("EmPlan", "EmPlanner"),
    "mpc": ("MpcPlanner", "Plan", "PlanCandidate"),
    "prediction": (
        "PredictedState", "TrackedObject", "predict_constant_velocity",
        "predictions_at",
    ),
    "reactive": ("ReactiveDecision", "ReactivePath"),
})
