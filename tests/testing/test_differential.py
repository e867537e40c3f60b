"""Tests for the scalar-vs-batched differential equivalence harness.

The fast slice here is tier-1 — including one mixed grid of every cell
kind through the cell executor, one at a time, and the worker pool; the
full matrix (every corridor x seed x fault-draw cell plus a procgen
block, 200 drives) is ``slow``-marked and runs nightly.
"""

from __future__ import annotations

import pytest

from repro.fleetops.cells import CellSpec, InvariantCell, ProcGenCell
from repro.scene.corridors import corridor_names
from repro.scene.procgen import DEFAULT_SPACE
from repro.testing.differential import (
    FINGERPRINT_FIELDS,
    Mismatch,
    n_comparisons_per_cell,
    run_differential,
    run_differential_cell,
)


def _grid(names, seeds, fault_seeds, n_procgen):
    """Single-drive corridor cells under each fault draw, then procgen
    cells: the grid the differential matrix sweeps."""
    cells = [
        InvariantCell(name, seed, fault_seed=k, check_determinism=False)
        for name in names
        for seed in seeds
        for k in fault_seeds
    ] + [
        ProcGenCell(DEFAULT_SPACE, 0, i, check_determinism=False)
        for i in range(n_procgen)
    ]
    return [
        CellSpec(
            kind="procgen" if isinstance(cell, ProcGenCell) else "invariant",
            index=i,
            cell=cell,
        )
        for i, cell in enumerate(cells)
    ]


def test_fingerprint_fields_cover_fingerprint():
    from repro.scene.providers import resolve_scene
    from repro.scene.corridors import make_corridor_sov
    from repro.testing.invariants import drive_fingerprint

    scenario = resolve_scene("slalom", 0)
    sov = make_corridor_sov(scenario, safety_net=True)
    result = sov.drive(scenario.duration_s)
    assert len(FINGERPRINT_FIELDS) == len(drive_fingerprint(result))


def test_fast_slice_matches():
    specs = _grid(["slalom", "cluttered_stop"], (0,), (None, 11), 1)
    assert [s.cell_id for s in specs] == [
        "invariant:slalom:0:nodet",
        "invariant:slalom:0:f11:nodet",
        "invariant:cluttered_stop:0:nodet",
        "invariant:cluttered_stop:0:f11:nodet",
        "procgen:0:0:i1.0:nodet",
    ]
    report = run_differential(specs)
    assert report.n_cells == 5
    assert report.comparisons == 5 * n_comparisons_per_cell()
    assert report.ok, report.format_report()
    assert "MATCH" in report.format_report()


def test_single_cell_repro_roundtrip():
    assert run_differential_cell("invariant:slalom:0:f7:nodet") == []
    assert run_differential_cell("procgen:0:1:i1.0:nodet") == []
    with pytest.raises(ValueError, match="not replayable"):
        run_differential_cell("chaos:drill-lane:0:0:net:x9fa44d6b")


def test_mismatch_repro_line_names_cell_and_field():
    m = Mismatch(
        cell_id="invariant:slalom:3:f7", field="distance_m",
        scalar=10.0, batched=10.5, drive=1,
    )
    line = m.repro()
    assert line.startswith("run_differential_cell('invariant:slalom:3:f7')")
    assert "drive 1" in line
    assert "distance_m" in line
    assert "10.5" in line


def _mixed_grid():
    """One grid of every cell kind: chaos on the drill lane and on a
    corridor, invariant with the determinism re-drive, procgen, drill,
    and triage (one of them a two-drive ``replay_determinism`` cell)."""
    from repro.fleetops.cells import (
        CellSpec,
        ChaosCell,
        DrillCell,
        InvariantCell,
        ProcGenCell,
        TriageCell,
    )
    from repro.robustness.chaos import ChaosConfig, FaultSpace
    from repro.scene.procgen import DEFAULT_SPACE

    payloads = [
        ("chaos", ChaosCell(ChaosConfig(n_drives=1, seed=3, duration_s=3.0), 0)),
        ("chaos", ChaosCell(ChaosConfig(n_drives=1, seed=5, corridor="slalom"), 0)),
        ("invariant", InvariantCell(name="cluttered_stop", seed=0)),
        ("procgen", ProcGenCell(space=DEFAULT_SPACE, generator_seed=0, cell_index=1)),
        ("drill", DrillCell(scenario="camera_blackout")),
        (
            "triage",
            TriageCell(
                sim_seed=7,
                faults=FaultSpace(intensity=2.0).sample_schedule(0, 1, 3),
                duration_s=4.0,
            ),
        ),
        (
            "triage",
            TriageCell(
                scene="slalom",
                scene_seed=1,
                sim_seed=1,
                duration_s=3.0,
                safety_net=True,
                invariant="replay_determinism",
            ),
        ),
    ]
    return [
        CellSpec(kind=kind, index=i, cell=cell)
        for i, (kind, cell) in enumerate(payloads)
    ]


def test_one_executor_mixed_grid():
    """Every kind through run_cells, one at a time, the in-process
    supervisor, the chunked pool, and the pool with a worker killed
    mid-chunk: one campaign CRC; every drive matches the scalar
    ``sov.drive``."""
    from repro.fleetops.cells import campaign_crc, run_cell, run_cells
    from repro.fleetops.injection import WorkerFaultPlan
    from repro.fleetops.supervisor import FleetConfig, FleetSupervisor

    specs = _mixed_grid()
    report = run_differential(specs)
    assert report.ok, report.format_report()
    # Three cells re-drive, and their second drives are compared too.
    assert report.comparisons == (len(specs) + 3) * n_comparisons_per_cell()

    grouped = run_cells(specs)
    alone = [run_cell(spec) for spec in specs]
    in_process = FleetSupervisor(FleetConfig(n_workers=1)).run(specs)
    pool = FleetSupervisor(FleetConfig(n_workers=2)).run(specs)
    # Chunks of four and three; the kill on the first chunk's second
    # cell re-runs its four cells alone, at N=1.
    killed = FleetSupervisor(FleetConfig(n_workers=2)).run(
        specs, fault_plan=WorkerFaultPlan(crash_cells=(specs[1].cell_id,))
    )
    assert in_process.ok
    assert pool.ok
    assert killed.ok, killed.summary()
    assert (killed.worker_crashes, killed.retries) == (1, 4)
    engines = (
        grouped, alone, in_process.results, pool.results, killed.results
    )
    identities = [r.identity() for r in grouped]
    for results in engines:
        assert [r.identity() for r in results] == identities
    assert len({campaign_crc(results) for results in engines}) == 1


@pytest.mark.slow
def test_full_differential_matrix_nightly():
    """The acceptance-bar sweep: 200 drives, zero mismatches.

    Corridors x seeds x fault draws (10 x 5 x 3 = 150) plus 50 procgen
    cells, batched in the executor's lockstep groups.
    """
    specs = _grid(corridor_names(), range(5), (None, 7, 23), 50)
    report = run_differential(specs)
    assert report.n_cells == 200
    assert report.comparisons == 200 * n_comparisons_per_cell()
    assert report.ok, report.format_report()
