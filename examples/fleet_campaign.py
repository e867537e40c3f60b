"""Fleet campaign: a supervised chaos sweep that survives its own fleet.

Runs one chaos campaign twice — serially, then across the supervised
worker pool (``repro.fleetops``) with faults injected into the campaign
runner itself: a worker killed mid-chunk, a cell of another chunk
delayed into straggler territory, and the checkpoint journal torn
mid-record before a resume.
Prints the supervision ledger and proves the fleet envelope is
bit-identical to the serial one through all of it.

Usage::

    python examples/fleet_campaign.py [n_cells] [n_workers]
    python examples/fleet_campaign.py 24 4 --kill-worker   # CI smoke mode
"""

import os
import sys
import tempfile

from repro.fleetops import (
    FleetConfig,
    FleetSupervisor,
    WorkerFaultPlan,
    rollup_fleet,
    truncate_journal_tail,
)
from repro.fleetops.supervisor import chunk_size
from repro.robustness.chaos import ChaosConfig, iter_cells, run_chaos_campaign

SEED = 0
DURATION_S = 2.0


def main() -> None:
    positional = [a for a in sys.argv[1:] if not a.startswith("--")]
    n_cells = int(positional[0]) if positional else 24
    n_workers = int(positional[1]) if len(positional) > 1 else 4
    kill_worker = "--kill-worker" in sys.argv

    chaos = ChaosConfig(
        n_drives=n_cells, seed=SEED, duration_s=DURATION_S, safety_net=True
    )
    fleet = FleetConfig(
        n_workers=n_workers,
        seed=SEED,
        min_straggler_s=1.0,
        straggler_factor=4.0,
    )
    specs = list(iter_cells(chaos))
    print(
        f"Fleet campaign — {n_cells} chaos cells across {n_workers} workers"
        + (" (one worker killed mid-chunk)" if kill_worker else "")
    )
    print("=" * 78)

    serial = run_chaos_campaign(chaos)
    serial_ids = [r.identity() for r in serial.report.results]
    print(
        f"\nserial reference: collisions "
        f"{serial.envelope.collisions}/{serial.envelope.n_drives}, "
        f"safe-stops {serial.envelope.safe_stop_rate:.1%}"
    )

    plan = None
    if kill_worker:
        # Kill mid-way through the first chunk; delay a cell of the
        # second, which the kill cannot swallow.
        chunk = chunk_size(n_cells, n_workers)
        plan = WorkerFaultPlan(
            crash_cells=(specs[chunk // 2].cell_id,),
            delay_cells=((specs[min(chunk, n_cells - 1)].cell_id, 2.5),),
        )

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "journal.jsonl")
        result = run_chaos_campaign(
            chaos, fleet=fleet, journal_path=journal_path, fault_plan=plan
        )
        report = result.report
        print(
            f"\nfleet run: {len(report.results)} cells in "
            f"{report.wall_s:.2f} s ({report.cells_per_s:.1f} cells/s)"
        )
        print(
            f"  exactly-once: lost {report.lost_cells}, "
            f"duplicates {report.duplicate_cells}, "
            f"failed {len(report.failed_cells)}"
        )
        print(
            f"  supervision: crashes {report.worker_crashes}, "
            f"restarts {report.workers_restarted}, "
            f"retries {report.retries}, "
            f"stragglers {report.stragglers_detected}, "
            f"speculative {report.speculative_launches}, "
            f"twins discarded {report.duplicates_discarded}"
        )
        identical = result.envelope == serial.envelope
        print(f"  envelope bit-identical to serial: {identical}")
        if not identical or not report.ok:
            raise SystemExit("fleet campaign diverged from serial")

        # Tear the last journal record (a crash mid-append), then resume.
        truncate_journal_tail(journal_path, drop_bytes=40)
        resumed = FleetSupervisor(fleet).run(specs, journal_path=journal_path)
        resumed_ok = [
            r.identity() for r in resumed.results
        ] == serial_ids and resumed.ok
        print(
            f"\nresume after torn journal: {resumed.cells_from_journal} cells "
            f"from the trusted prefix, {resumed.journal_tail_dropped} torn "
            f"record(s) dropped, re-ran "
            f"{len(specs) - resumed.cells_from_journal}"
        )
        print(f"  resumed results bit-identical to serial: {resumed_ok}")
        if not resumed_ok:
            raise SystemExit("journal resume diverged from serial")

    rollup = rollup_fleet(result.envelope)
    print(
        f"\nSec. VII rollup: best tier {rollup.best_tier!r}, "
        f"risk-adjusted profit ${rollup.risk_adjusted_profit_per_day_usd:.0f}"
        f"/day at collision rate {rollup.collision_rate:.1%}"
    )
    print("\nOK — fleet execution changed where cells ran, not what they computed")


if __name__ == "__main__":
    main()
