"""Procgen campaign: 200 generated scenario cells on the fleet substrate.

The corridor suite (PR 4) validates the stack against 10 hand-named
scenes; the PerceptIn deployment story the paper draws on validates
against open-ended scenario *distributions*.  This experiment sweeps 200
procedurally generated cells — straight corridors, narrowing gaps, T-
and 4-way intersections, populated with intent-driven carts,
pedestrian platoons, occluded crossings, and cyclists
(:mod:`repro.scene.procgen`) — through the supervised fleet engine with
the full invariant harness per cell: scene regeneration is bit-identical
from ``(generator_seed, cell_index)``, plus the five drive invariants.

The mission layer then sweeps each generated scene's multi-leg route
against the paper's Eq. 2 range/energy model through the battery
integrator, checking the closed form the equation implies: the feasible
range lost to an AD payload is exactly ``Pad / (Pv + Pad)`` of the
unburdened range.

The expected shape, mirrored by ``benchmarks/test_procgen_campaign.py``:
**zero invariant violations across all 200 generated cells, exactly-once
fleet accounting, and the Eq. 2 identity to float precision.**
"""

from __future__ import annotations

from ..core.energy_model import EnergyModel
from ..fleetops.campaign import procgen_summary, run_procgen_campaign
from ..fleetops.supervisor import FleetConfig
from ..scene.procgen import (
    DEFAULT_SPACE,
    MissionSpec,
    TOPOLOGIES,
    evaluate_mission,
    scenario_mission,
)
from ..testing.invariants import GENERATED_INVARIANT_NAMES
from .base import ExperimentResult, Row, register

#: Generator seed the campaign sweeps (cells are (seed, 0..N-1)).
GENERATOR_SEED = 0
#: Campaign size — the acceptance floor for the generated sweep.
PROCGEN_CELLS = 200
PROCGEN_WORKERS = 4


@register("procgen_campaign")
def procgen_campaign() -> ExperimentResult:
    """Generated-scenario sweep + Eq. 2 mission frontier.

    Paper values encode the safety and determinism contracts: zero
    collisions and zero invariant violations across the generated
    distribution, scene regeneration bit-identical on every cell, and
    the Eq. 2 range-reduction identity holding exactly.
    """
    result = run_procgen_campaign(
        generator_seed=GENERATOR_SEED,
        n_cells=PROCGEN_CELLS,
        fleet=FleetConfig(n_workers=PROCGEN_WORKERS),
    )
    summary = procgen_summary(result)
    cells = result.matrix.cells
    regen_checked = sum(
        "scene_regeneration" in cell.checked for cell in cells
    )
    blocked_cells = sum(
        cell.entered_safe_stop or cell.stopped for cell in cells
    )

    # -- Eq. 2 mission layer ---------------------------------------------------
    model = EnergyModel()
    pad = model.ad_power_w
    base = evaluate_mission(
        MissionSpec(name="ref-base", route_length_m=0.0, ad_power_w=0.0),
        model,
    ).limit_route_length_m
    with_ad = evaluate_mission(
        MissionSpec(name="ref-ad", route_length_m=0.0), model
    ).limit_route_length_m
    measured_reduction = 1.0 - with_ad / base
    analytic_reduction = pad / (model.vehicle_power_w + pad)
    time_reduction = 1.0 - model.driving_time_s / model.base_driving_time_s
    missions = [scenario_mission(DEFAULT_SPACE.sample(GENERATOR_SEED, i))
                for i in range(PROCGEN_CELLS)]
    outcomes = [evaluate_mission(m, model) for m in missions]
    feasible_frac = sum(o.feasible for o in outcomes) / len(outcomes)

    rows = [
        Row(
            "cells",
            None,
            summary["n_cells"],
            "count",
            f"generated cells (generator_seed={GENERATOR_SEED}, "
            f"intensity {DEFAULT_SPACE.intensity:g}) on "
            f"{PROCGEN_WORKERS} fleet workers",
        ),
        Row(
            "invariant_checks",
            None,
            summary["checks_run"],
            "count",
            f"{len(GENERATED_INVARIANT_NAMES)} invariants per cell, "
            "inapplicable ones skipped",
        ),
        Row(
            "invariant_violations",
            0.0,
            summary["violations"],
            "count",
            "any nonzero is a pinned (generator_seed, cell_index) repro",
        ),
        Row(
            "scene_regeneration_checked_frac",
            1.0,
            regen_checked / max(1, len(cells)),
            "frac",
            "cells whose scene rebuilt bit-identically from its coordinates",
        ),
        Row(
            "collision_rate",
            0.0,
            summary["collision_rate"],
            "frac",
            "protected drives across the generated distribution",
        ),
        Row(
            "lost_or_duplicate_cells",
            0.0,
            summary["lost_cells"] + summary["duplicate_cells"],
            "count",
            "fleet exactly-once accounting over the campaign",
        ),
        Row(
            "topology_families",
            float(len(TOPOLOGIES)),
            summary["n_topologies"],
            "count",
            f"distinct road topologies drawn: {result.topology_counts}",
        ),
        Row(
            "controlled_stops",
            None,
            float(blocked_cells),
            "count",
            "cells ending stopped or in SAFE_STOP (dead ends, close calls)",
        ),
        Row(
            "eq2_range_reduction_measured",
            analytic_reduction,
            measured_reduction,
            "frac",
            "feasible-range loss from the 175 W AD payload, via the "
            "battery integrator",
        ),
        Row(
            "eq2_time_reduction_identity",
            analytic_reduction,
            time_reduction,
            "frac",
            "Eq. 2 driving-time reduction — equals the range reduction",
        ),
        Row(
            "mission_feasible_frac",
            None,
            feasible_frac,
            "frac",
            "generated multi-leg missions finishing above the 10% reserve",
        ),
    ]
    series = {
        "topology_counts": sorted(result.topology_counts.items()),
        "campaign_checksum": [result.campaign_checksum],
        "violations": [
            v.replay_command() for v in result.matrix.violations
        ],
        "invariants": list(GENERATED_INVARIANT_NAMES),
        "mission_frontier_m": [
            (f"{p:g}W", round(
                evaluate_mission(
                    MissionSpec(
                        name=f"frontier-{p:g}",
                        route_length_m=0.0,
                        ad_power_w=p,
                    ),
                    model,
                ).limit_route_length_m,
                1,
            ))
            for p in (0.0, 100.0, 175.0, 300.0, 500.0)
        ],
    }
    return ExperimentResult(
        "procgen_campaign",
        "Procedural scenario campaign + Eq. 2 mission sweep (Sec. II / V)",
        rows,
        series=series,
    )
