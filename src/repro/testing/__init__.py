"""Machine-checked safety properties for the simulated stack.

:mod:`repro.testing.invariants` turns the paper's prose safety argument
into executable invariants and sweeps them over the corridor scenario
suite (:mod:`repro.scene.corridors`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "invariants": (
        "INVARIANT_NAMES", "CellOutcome", "InvariantViolation", "MatrixReport",
        "drive_fingerprint", "run_invariant_matrix",
    ),
})
