"""Corridor scenario matrix: every safety invariant on every cell.

The corridor suite (:mod:`repro.scene.corridors`) encodes the paper's
operating domain — "sidewalks and campus roads" dense with pedestrians,
carts, and clutter — as named, seeded multi-obstacle scenarios.  The
invariant harness (:mod:`repro.testing.invariants`) drives every
``scenario x seed`` cell under the protected configuration and checks
the paper's safety argument as machine-checked properties: bit-identical
replay, no-collision-or-controlled-stop, Eq. 1 deadline accounting
consistency, residency fractions forming a distribution, and reactive
engagement whenever the sonar threshold is crossed.

The expected shape, mirrored by ``tests/testing/test_invariants.py``:
**zero violations across the whole matrix** — the paper's prose claims
hold on every corridor the suite can generate.

The sweep runs on the fault-tolerant fleet substrate
(:mod:`repro.fleetops`) — cells are pure per spec, so the fleet matrix
is identical to the in-process one cell for cell
(``examples/corridor_matrix.py --serial`` runs it in process).
"""

from __future__ import annotations

from ..fleetops.supervisor import FleetConfig
from ..testing.invariants import INVARIANT_NAMES, run_invariant_matrix
from .base import ExperimentResult, Row, register

#: Seeds swept per scenario (each reseeds geometry jitter + fault draws).
MATRIX_SEEDS = (0, 1, 2)
#: Worker-pool size for the default fleet-substrate sweep.
MATRIX_WORKERS = 4


@register("scenario_matrix")
def scenario_matrix() -> ExperimentResult:
    """The full corridor suite under the property-based invariant harness.

    Paper values encode the qualitative claims: zero collisions with the
    safety net engaged (Sec. IV's "last line of defense") and zero
    accounting inconsistencies in the Eq. 1 ledger.
    """
    report = run_invariant_matrix(
        seeds=MATRIX_SEEDS, fleet=FleetConfig(n_workers=MATRIX_WORKERS)
    )
    summary = report.summary()
    rows = [
        Row(
            "scenarios",
            None,
            summary["n_scenarios"],
            "count",
            "named corridor generators in the registered suite",
        ),
        Row(
            "cells",
            None,
            summary["n_cells"],
            "count",
            f"scenario x seed grid, seeds {list(MATRIX_SEEDS)}",
        ),
        Row(
            "invariant_checks",
            None,
            summary["checks_run"],
            "count",
            f"{len(INVARIANT_NAMES)} invariants, inapplicable ones skipped",
        ),
        Row(
            "invariant_violations",
            0.0,
            summary["violations"],
            "count",
            "any nonzero is a pinned (scenario, seed) reproduction",
        ),
        Row(
            "collision_rate",
            0.0,
            summary["collision_rate"],
            "frac",
            "protected drives across the whole matrix",
        ),
        Row(
            "safe_stop_rate",
            None,
            summary["safe_stop_rate"],
            "frac",
            "cells ending in a commanded SAFE_STOP",
        ),
        Row(
            "reactive_engagement_rate",
            None,
            summary["reactive_engagement_rate"],
            "frac",
            "cells where the Radar/Sonar->ECU path fired at least once",
        ),
        Row(
            "deadline_misses",
            None,
            summary["deadline_misses"],
            "count",
            "Eq. 1 budget misses matrix-wide (paper's worst-case budget)",
        ),
    ]
    series = {
        "cells": [
            (
                cell.scenario,
                cell.seed,
                cell.final_mode,
                round(cell.final_x_m, 2),
                round(cell.min_clearance_m, 3),
                cell.reactive_engagements,
            )
            for cell in report.cells
        ],
        "violations": [v.repro() for v in report.violations],
        "invariants": list(INVARIANT_NAMES),
    }
    return ExperimentResult(
        "scenario_matrix",
        "Corridor scenario suite x safety-invariant matrix (Sec. III-C / IV)",
        rows,
        series=series,
    )
