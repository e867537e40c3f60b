"""Campaign rollups, and the generated-scene campaign.

Every campaign runs its cells through one
:meth:`~repro.fleetops.supervisor.FleetSupervisor.run` call, in process
or on the worker pool as its :class:`~repro.fleetops.supervisor.FleetConfig`
says; cells are pure, so the results are bit-identical either way.
This module holds what the fleet adds on top of a campaign:

* :func:`rollup_fleet` feeds a chaos campaign's measured
  :class:`~repro.robustness.chaos.EnvelopeReport` into the Sec. VII TCO
  model (:class:`repro.core.fleet.FleetTcoModel`), and
  :func:`fleet_summary` flattens a
  :func:`~repro.robustness.chaos.run_chaos_campaign` result with its
  supervision counters and rollup;
* :func:`run_procgen_campaign` sweeps procedurally generated scenes
  through the invariant harness.

``tests/fleetops`` and ``benchmarks/test_fleet_campaign.py`` assert
that pool and in-process runs agree cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import zlib

from ..core.fleet import FleetTcoModel, paper_compute_tiers
from ..robustness.chaos import ChaosCampaignResult, EnvelopeReport
from .cells import procgen_cells
from .injection import WorkerFaultPlan
from .supervisor import FleetConfig, FleetRunReport, FleetSupervisor


@dataclass(frozen=True)
class FleetRollup:
    """Fleet-level economics derived from the measured envelope.

    The campaign's collision rate discounts every tier's daily profit:
    a fleet that crashes does not keep its revenue (paper Sec. VII's
    cost-vs-latency trade-off, grounded in campaign evidence instead of
    an assumed safety level).
    """

    n_cells: int
    collision_rate: float
    safe_stop_rate: float
    best_tier: str
    fleet_profit_per_day_usd: float
    risk_adjusted_profit_per_day_usd: float
    tier_profits_usd: Dict[str, float]

    def as_dict(self) -> Dict[str, float]:
        flat: Dict[str, float] = {
            "n_cells": float(self.n_cells),
            "collision_rate": self.collision_rate,
            "safe_stop_rate": self.safe_stop_rate,
            "fleet_profit_per_day_usd": self.fleet_profit_per_day_usd,
            "risk_adjusted_profit_per_day_usd": (
                self.risk_adjusted_profit_per_day_usd
            ),
        }
        for name, profit in sorted(self.tier_profits_usd.items()):
            flat[f"profit_{name}_usd"] = profit
        return flat


def rollup_fleet(envelope: EnvelopeReport) -> FleetRollup:
    """Feed a chaos campaign's measured envelope into the TCO model."""
    ranked = FleetTcoModel().compare_tiers(paper_compute_tiers())
    profits = {tier.name: profit for tier, profit in ranked}
    best_tier, best_profit = ranked[0]
    survival = max(0.0, 1.0 - envelope.collision_rate)
    return FleetRollup(
        n_cells=envelope.n_drives,
        collision_rate=envelope.collision_rate,
        safe_stop_rate=envelope.safe_stop_rate,
        best_tier=best_tier.name,
        fleet_profit_per_day_usd=best_profit,
        risk_adjusted_profit_per_day_usd=best_profit * survival,
        tier_profits_usd=profits,
    )


@dataclass
class ProcGenCampaignResult:
    """A fleet sweep over procedurally generated invariant cells."""

    space: "object"  # repro.scene.procgen.ProcGenSpace
    generator_seed: int
    report: FleetRunReport
    matrix: "object"  # repro.testing.invariants.MatrixReport
    #: CRC32 over every cell's scene checksum, in index order — one
    #: number that pins the entire generated campaign's geometry.
    campaign_checksum: int
    topology_counts: Dict[str, int]


def run_procgen_campaign(
    space=None,
    generator_seed: int = 0,
    n_cells: int = 200,
    fleet: Optional[FleetConfig] = None,
    journal_path: Optional[str] = None,
    fault_plan: Optional[WorkerFaultPlan] = None,
    check_determinism: bool = True,
) -> ProcGenCampaignResult:
    """Sweep *n_cells* generated scenarios through one
    :meth:`~repro.fleetops.supervisor.FleetSupervisor.run` (*fleet*:
    its config; None, the default one-worker in-process run).

    Each cell samples scene ``(generator_seed, index)`` from *space*
    (None: the default :class:`~repro.scene.procgen.ProcGenSpace`),
    checks the scene-regeneration invariant plus the five drive
    invariants, and reports its scene checksum; the campaign checksum
    folds those into one number, so two runs generated identical scenes
    iff the checksums match.  With ``journal_path`` set, an interrupted
    campaign resumes with exactly-once cell accounting.
    """
    from ..testing.invariants import MatrixReport

    if space is None:
        from ..scene.procgen import DEFAULT_SPACE

        space = DEFAULT_SPACE
    specs = list(
        procgen_cells(
            space=space,
            generator_seed=generator_seed,
            n_cells=n_cells,
            check_determinism=check_determinism,
        )
    )
    report = FleetSupervisor(fleet).run(
        specs,
        journal_path=journal_path,
        fault_plan=fault_plan,
        meta={
            "kind": "procgen",
            "generator_seed": generator_seed,
            "n_cells": n_cells,
            "intensity": space.intensity,
        },
    )
    report.raise_if_incomplete("procgen campaign")
    outcomes = [result.record for result in report.results]
    checksum = 0
    topology_counts: Dict[str, int] = {}
    for outcome in outcomes:
        checksum = zlib.crc32(
            str(outcome.scene_checksum).encode("ascii"), checksum
        )
        topology = outcome.scenario.split(":", 1)[1].split("[", 1)[0]
        topology_counts[topology] = topology_counts.get(topology, 0) + 1
    return ProcGenCampaignResult(
        space=space,
        generator_seed=generator_seed,
        report=report,
        matrix=MatrixReport(cells=outcomes),
        campaign_checksum=checksum,
        topology_counts=topology_counts,
    )


def procgen_summary(result: ProcGenCampaignResult) -> Dict[str, float]:
    """Flat numeric view of one generated campaign (rows, snapshots)."""
    flat = dict(result.report.summary())
    flat.update(result.matrix.summary())
    flat["campaign_checksum"] = float(result.campaign_checksum)
    flat["n_topologies"] = float(len(result.topology_counts))
    return flat


def fleet_summary(result: ChaosCampaignResult) -> Dict[str, float]:
    """Flat numeric view of one chaos campaign: its supervision
    counters, envelope and fleet rollup (rows, snapshots)."""
    envelope = result.envelope
    flat = dict(result.report.summary())
    flat["collision_rate"] = envelope.collision_rate
    flat["safe_stop_rate"] = envelope.safe_stop_rate
    flat["deadline_misses"] = float(envelope.deadline_misses)
    flat["risk_adjusted_profit_per_day_usd"] = rollup_fleet(
        envelope
    ).risk_adjusted_profit_per_day_usd
    return flat
