"""Fleet campaign: supervised fleet execution vs the serial reference.

The paper's Sec. VII fleet economics presuppose campaign evidence
gathered at fleet scale; this experiment runs the same chaos campaign
twice through :func:`~repro.robustness.chaos.run_chaos_campaign` — once
in process (the serial reference), once across the supervised worker
pool (:mod:`repro.fleetops`) *with faults injected into the campaign
runner itself*: a worker killed mid-chunk, a cell of another chunk
delayed past the straggler threshold, and the checkpoint journal torn
mid-record between runs.

The expected shape, mirrored by ``benchmarks/test_fleet_campaign.py``:
**bit-identical envelopes and zero lost or duplicated cells through
every injected failure** — supervision and checkpointing change where
cells run and how often, never what they compute.  The measured
envelope then prices the fleet via the Sec. VII TCO rollup.
"""

from __future__ import annotations

import os
import tempfile

from ..fleetops.campaign import rollup_fleet
from ..fleetops.injection import WorkerFaultPlan, truncate_journal_tail
from ..fleetops.supervisor import FleetConfig, FleetSupervisor, chunk_size
from ..robustness.chaos import ChaosConfig, iter_cells, run_chaos_campaign
from .base import ExperimentResult, Row, register

#: Campaign seed (every cell derives its drive seed from it).
FLEET_SEED = 0
#: Campaign size — small enough to run per-invocation, big enough that
#: cells genuinely interleave across the pool.
FLEET_DRIVES = 12
FLEET_WORKERS = 4
#: Per-drive sim duration (short drill-lane drives keep the sweep fast).
FLEET_DURATION_S = 2.0


@register("fleet_campaign")
def fleet_campaign() -> ExperimentResult:
    """Fleet-vs-serial determinism under injected runner faults.

    Paper values encode the engine's contract: the fleet envelope is
    bit-identical to serial (fingerprint match fraction 1.0) and the
    accounting is exactly-once (zero lost, zero duplicated cells) even
    with a worker crash, a straggler, and a torn journal in the mix.
    """
    chaos = ChaosConfig(
        n_drives=FLEET_DRIVES,
        seed=FLEET_SEED,
        duration_s=FLEET_DURATION_S,
        safety_net=True,
    )
    serial = run_chaos_campaign(chaos)
    serial_ids = [r.identity() for r in serial.report.results]

    specs = list(iter_cells(chaos))
    # Each worker's first chunk holds `chunk` cells.  The kill lands
    # mid-way through the first chunk and the delay in the second: a
    # kill fires before the chunk's later cells run, so in one chunk it
    # would swallow the delay.
    chunk = chunk_size(FLEET_DRIVES, FLEET_WORKERS)
    plan = WorkerFaultPlan(
        crash_cells=(specs[chunk // 2].cell_id,),
        delay_cells=((specs[chunk].cell_id, 2.5),),
    )
    fleet_cfg = FleetConfig(
        n_workers=FLEET_WORKERS,
        min_straggler_s=1.0,
        straggler_factor=4.0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "journal.jsonl")
        result = run_chaos_campaign(
            chaos, fleet=fleet_cfg, journal_path=journal_path, fault_plan=plan
        )
        # Tear the journal's final record, then resume: only the torn
        # cell re-runs and the envelope still matches serial exactly.
        truncate_journal_tail(journal_path, drop_bytes=40)
        resumed = FleetSupervisor(fleet_cfg).run(
            specs, journal_path=journal_path
        )
    report = result.report
    rollup = rollup_fleet(result.envelope)
    fleet_ids = [r.identity() for r in report.results]
    resumed_ids = [r.identity() for r in resumed.results]
    matched = sum(a == b for a, b in zip(fleet_ids, serial_ids))
    rows = [
        Row(
            "fingerprint_match_frac",
            1.0,
            matched / len(serial_ids),
            "frac",
            f"{FLEET_DRIVES} cells x {FLEET_WORKERS} workers vs serial, "
            "bit-exact drive fingerprints",
        ),
        Row(
            "envelope_identical",
            1.0,
            float(result.envelope == serial.envelope),
            "bool",
            "aggregated safety envelope equal field-for-field",
        ),
        Row(
            "lost_cells",
            0.0,
            float(report.lost_cells),
            "count",
            "cells never accounted for after crash + straggler injection",
        ),
        Row(
            "duplicate_cells",
            0.0,
            float(report.duplicate_cells),
            "count",
            "cells counted twice (speculative twins are discarded)",
        ),
        Row(
            "worker_crashes_recovered",
            1.0,
            float(report.worker_crashes),
            "count",
            "injected mid-chunk worker kill, absorbed by retry + restart",
        ),
        Row(
            "stragglers_speculated",
            None,
            float(report.speculative_launches),
            "count",
            "delayed cells re-dispatched speculatively (first result wins)",
        ),
        Row(
            "resume_identical",
            1.0,
            float(resumed_ids == serial_ids),
            "bool",
            "resume after torn journal reproduces the serial results",
        ),
        Row(
            "resume_cells_from_journal",
            None,
            float(resumed.cells_from_journal),
            "count",
            "cells recovered from the journal's trusted prefix",
        ),
        Row(
            "risk_adjusted_profit_per_day_usd",
            None,
            rollup.risk_adjusted_profit_per_day_usd,
            "USD/day",
            f"Sec. VII TCO on tier {rollup.best_tier!r}, discounted "
            "by the measured collision rate",
        ),
    ]
    series = {
        "supervision_counters": sorted(
            (k, v) for k, v in report.summary().items() if v
        ),
        "tier_profits_usd": sorted(
            (name, round(profit, 2))
            for name, profit in rollup.tier_profits_usd.items()
        ),
    }
    return ExperimentResult(
        "fleet_campaign",
        "Fleet campaign engine: determinism + exactly-once under faults "
        "(Sec. VII)",
        rows,
        series=series,
    )
