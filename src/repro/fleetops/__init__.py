"""Fleet-scale campaign engine (ROADMAP: "Fleet-scale campaign engine").

The paper's Sec. VII fleet economics assume fleet-scale operation; this
package makes our own campaign infrastructure operate at that scale and
survive the failures that come with it.  The pieces:

``cells``
    :class:`~repro.fleetops.cells.CellSpec` / :func:`~repro.fleetops.cells.run_cells`
    — the pure, picklable unit of campaign work and the one executor
    that drives it, in lockstep groups, for the in-process and fleet
    paths alike, with deterministic per-cell seeding so results are
    bit-identical no matter where a cell runs.

``journal``
    A crash-consistent append-only campaign journal
    (``journal.jsonl`` with per-record checksums) checkpointing
    completed cells so an interrupted campaign resumes with exactly-once
    cell accounting.

``supervisor``
    :class:`~repro.fleetops.supervisor.FleetSupervisor` — a supervised
    multi-process worker pool with heartbeat liveness, per-cell
    timeouts, bounded seeded-backoff retries, straggler detection with
    speculative re-execution, and graceful degradation to serial
    execution when the pool collapses.

``injection``
    Self-test fault injection: kill workers mid-cell, delay them past
    the straggler threshold, truncate the journal mid-record — the
    chaos-engineering discipline applied to the campaign runner itself.

``campaign``
    Fleet campaigns end to end: cell grid -> supervised execution ->
    :class:`~repro.robustness.chaos.EnvelopeReport` aggregation and
    Sec. VII TCO rollups via :mod:`repro.core.fleet`.
"""

from .cells import (
    CellResult,
    CellSpec,
    ChaosCell,
    DrillCell,
    InvariantCell,
    chaos_cells,
    drill_cells,
    invariant_cells,
    run_cell,
)
from .injection import (
    WorkerFaultPlan,
    corrupt_journal_record,
    truncate_journal_tail,
)
from .journal import CampaignJournal, JournalState, load_journal
from .supervisor import FleetConfig, FleetRunReport, FleetSupervisor
from .campaign import (
    FleetCampaignConfig,
    FleetCampaignResult,
    FleetRollup,
    fleet_summary,
    rollup_fleet,
    run_fleet_campaign,
)

__all__ = [
    "CellResult",
    "CellSpec",
    "ChaosCell",
    "DrillCell",
    "InvariantCell",
    "chaos_cells",
    "drill_cells",
    "invariant_cells",
    "run_cell",
    "WorkerFaultPlan",
    "corrupt_journal_record",
    "truncate_journal_tail",
    "CampaignJournal",
    "JournalState",
    "load_journal",
    "FleetConfig",
    "FleetRunReport",
    "FleetSupervisor",
    "FleetCampaignConfig",
    "FleetCampaignResult",
    "FleetRollup",
    "fleet_summary",
    "rollup_fleet",
    "run_fleet_campaign",
]
