"""Fleet-campaign benchmarks: the acceptance campaign at fleet scale.

The CI ``fleet-smoke`` job runs the experiment table; this module also
carries the ISSUE's acceptance campaign — a 200+ cell chaos sweep proven
bit-identical between the serial reference and the supervised worker
pool, then interrupted by a worker crash and a torn journal and resumed
with zero lost and zero duplicated cells.
"""

import os

import pytest

from repro.experiments import run_experiment
from repro.fleetops.injection import WorkerFaultPlan, truncate_journal_tail
from repro.fleetops.journal import load_journal
from repro.fleetops.supervisor import FleetConfig, FleetSupervisor
from repro.robustness.chaos import ChaosConfig, iter_cells, run_chaos_campaign

#: The acceptance campaign: >= 200 cells (ISSUE 7's floor).
ACCEPTANCE_CELLS = 200
ACCEPTANCE_SEED = 0
#: Short drill-lane drives keep the 2 x 200-cell sweep CI-sized.
ACCEPTANCE_DURATION_S = 2.0

CHAOS = ChaosConfig(
    n_drives=ACCEPTANCE_CELLS,
    seed=ACCEPTANCE_SEED,
    duration_s=ACCEPTANCE_DURATION_S,
    safety_net=True,
)
FLEET = FleetConfig(n_workers=4, seed=ACCEPTANCE_SEED)


def test_fleet_campaign_experiment(benchmark, record_table):
    result = benchmark.pedantic(
        run_experiment, args=("fleet_campaign",), iterations=1, rounds=1
    )
    record_table(result)
    # The tentpole claim: fleet execution is bit-identical to serial...
    assert result.row("fingerprint_match_frac").measured == 1.0
    assert result.row("envelope_identical").measured == 1.0
    # ...with exactly-once accounting through injected runner faults...
    assert result.row("lost_cells").measured == 0.0
    assert result.row("duplicate_cells").measured == 0.0
    assert result.row("worker_crashes_recovered").measured >= 1.0
    # ...and a torn-journal resume that reproduces serial exactly.
    assert result.row("resume_identical").measured == 1.0


@pytest.fixture(scope="module")
def serial_campaign():
    return run_chaos_campaign(CHAOS)


@pytest.fixture(scope="module")
def serial_identities(serial_campaign):
    return [r.identity() for r in serial_campaign.report.results]


def test_200_cell_fleet_bit_identical_to_serial(
    serial_campaign, serial_identities
):
    result = run_chaos_campaign(CHAOS, fleet=FLEET)
    report = result.report
    assert report.n_cells == ACCEPTANCE_CELLS
    assert report.ok, report.summary()
    assert report.lost_cells == 0
    assert report.duplicate_cells == 0
    assert [r.identity() for r in report.results] == serial_identities
    assert result.envelope == serial_campaign.envelope
    assert result.records == serial_campaign.records


def test_200_cell_interrupted_campaign_resumes_exactly_once(
    tmp_path_factory, serial_identities
):
    """Crash a worker mid-chunk AND tear the journal, then resume."""
    tmp = tmp_path_factory.mktemp("fleet")
    journal_path = str(tmp / "journal.jsonl")
    specs = list(iter_cells(CHAOS))
    plan = WorkerFaultPlan(
        crash_cells=(specs[3].cell_id, specs[101].cell_id),
    )
    first = FleetSupervisor(FLEET).run(
        specs, journal_path=journal_path, fault_plan=plan
    )
    assert first.ok, first.summary()
    assert first.worker_crashes >= 2
    # Power loss mid-append: the last record is torn.
    truncate_journal_tail(journal_path, drop_bytes=40)
    state = load_journal(journal_path)
    assert state.tail_dropped == 1
    assert len(state.results) == ACCEPTANCE_CELLS - 1
    resumed = FleetSupervisor(FLEET).run(specs, journal_path=journal_path)
    assert resumed.ok, resumed.summary()
    assert resumed.cells_from_journal == ACCEPTANCE_CELLS - 1
    assert resumed.lost_cells == 0
    assert resumed.duplicate_cells == 0
    assert [r.identity() for r in resumed.results] == serial_identities
    # The healed journal now holds the complete campaign exactly once.
    healed = load_journal(journal_path)
    assert healed.tail_dropped == 0
    assert healed.duplicates_dropped == 0
    assert len(healed.results) == ACCEPTANCE_CELLS
    assert os.path.getsize(journal_path) > 0
