"""Fleet-scale chaos campaigns: supervised execution + fleet rollup.

:func:`run_fleet_campaign` is the fleet twin of
:func:`repro.robustness.chaos.run_chaos_campaign`: the same
``ChaosConfig``, the same cells, the same
:class:`~repro.robustness.chaos.EnvelopeReport` out the other end — but
executed across the supervised worker pool with checkpoint/resume, and
finished with a fleet-level rollup that feeds the campaign's measured
safety envelope into the Sec. VII TCO model
(:class:`repro.core.fleet.FleetTcoModel`).

Because :func:`~repro.fleetops.cells.run_cell` is pure per spec, the
fleet envelope is bit-identical to the serial one — crashes, retries,
stragglers and speculation included.  ``tests/fleetops`` and
``benchmarks/test_fleet_campaign.py`` assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import zlib

from ..core.fleet import FleetTcoModel, paper_compute_tiers
from ..robustness.chaos import (
    ChaosCampaignResult,
    ChaosConfig,
    aggregate_envelope,
)
from .cells import CellResult, chaos_cells, procgen_cells
from .injection import WorkerFaultPlan
from .supervisor import FleetConfig, FleetRunReport, FleetSupervisor


@dataclass(frozen=True)
class FleetCampaignConfig:
    """One fleet campaign: what to drive, and how to supervise it."""

    chaos: ChaosConfig = field(default_factory=ChaosConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)


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


@dataclass
class FleetCampaignResult:
    """A supervised campaign, its envelope, and the fleet economics."""

    config: FleetCampaignConfig
    report: FleetRunReport
    campaign: ChaosCampaignResult
    rollup: FleetRollup


def rollup_fleet(
    n_cells: int,
    collision_rate: float,
    safe_stop_rate: float,
    model: Optional[FleetTcoModel] = None,
) -> FleetRollup:
    """Feed a measured envelope into the TCO model."""
    model = model or FleetTcoModel()
    ranked = model.compare_tiers(paper_compute_tiers())
    profits = {tier.name: profit for tier, profit in ranked}
    best_tier, best_profit = ranked[0]
    survival = max(0.0, 1.0 - collision_rate)
    return FleetRollup(
        n_cells=n_cells,
        collision_rate=collision_rate,
        safe_stop_rate=safe_stop_rate,
        best_tier=best_tier.name,
        fleet_profit_per_day_usd=best_profit,
        risk_adjusted_profit_per_day_usd=best_profit * survival,
        tier_profits_usd=profits,
    )


def run_fleet_campaign(
    config: Optional[FleetCampaignConfig] = None,
    journal_path: Optional[str] = None,
    fault_plan: Optional[WorkerFaultPlan] = None,
    tco_model: Optional[FleetTcoModel] = None,
) -> FleetCampaignResult:
    """Run a chaos campaign across the supervised fleet pool.

    With ``journal_path`` set, an interrupted campaign resumes from its
    journal with exactly-once cell accounting.  The returned envelope is
    aggregated from results sorted back into drive order, so it is
    bit-identical to :func:`~repro.robustness.chaos.run_chaos_campaign`
    on the same ``ChaosConfig``.
    """
    config = config or FleetCampaignConfig()
    specs = list(chaos_cells(config.chaos))
    supervisor = FleetSupervisor(config.fleet)
    report = supervisor.run(
        specs,
        journal_path=journal_path,
        fault_plan=fault_plan,
        meta={"kind": "chaos", "n_drives": config.chaos.n_drives},
    )
    if not report.ok:
        raise RuntimeError(
            f"fleet campaign incomplete: lost={report.lost_cells} "
            f"duplicates={report.duplicate_cells} "
            f"failed={list(report.failed_cells)}"
        )
    records = [result.record for result in report.results]
    envelope = aggregate_envelope(config.chaos, records)
    campaign = ChaosCampaignResult(
        config=config.chaos, records=records, envelope=envelope
    )
    rollup = rollup_fleet(
        n_cells=len(report.results),
        collision_rate=envelope.collision_rate,
        safe_stop_rate=envelope.safe_stop_rate,
        model=tco_model,
    )
    return FleetCampaignResult(
        config=config, report=report, campaign=campaign, rollup=rollup
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
    """Sweep *n_cells* generated scenarios across the fleet pool.

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
    supervisor = FleetSupervisor(fleet or FleetConfig())
    report = supervisor.run(
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
    if not report.ok:
        raise RuntimeError(
            f"procgen campaign incomplete: lost={report.lost_cells} "
            f"duplicates={report.duplicate_cells} "
            f"failed={list(report.failed_cells)}"
        )
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


def fleet_summary(result: FleetCampaignResult) -> Dict[str, float]:
    """Flat numeric view of one fleet campaign (rows, snapshots)."""
    flat = dict(result.report.summary())
    flat["collision_rate"] = result.campaign.envelope.collision_rate
    flat["safe_stop_rate"] = result.campaign.envelope.safe_stop_rate
    flat["deadline_misses"] = float(
        sum(record.deadline_misses for record in result.campaign.records)
    )
    flat["risk_adjusted_profit_per_day_usd"] = (
        result.rollup.risk_adjusted_profit_per_day_usd
    )
    return flat
