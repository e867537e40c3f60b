"""Tests for the scalar-vs-batched differential equivalence harness.

The fast slice here is tier-1 — including one mixed grid of every cell
kind through the cell executor, one at a time, and the worker pool; the
full matrix (every corridor x seed x fault cell plus a procgen block,
>= 200 cells) is ``slow``-marked and runs nightly.
"""

from __future__ import annotations

import pytest

from repro.scene.corridors import corridor_names
from repro.testing.differential import (
    FINGERPRINT_FIELDS,
    Mismatch,
    differential_cells,
    n_comparisons_per_cell,
    run_differential_cell,
    run_differential_matrix,
)


def test_fingerprint_fields_cover_fingerprint():
    from repro.scene.providers import resolve_scene
    from repro.scene.corridors import make_corridor_sov
    from repro.testing.invariants import drive_fingerprint

    scenario = resolve_scene("slalom", 0)
    sov = make_corridor_sov(scenario, safety_net=True)
    result = sov.drive(scenario.duration_s)
    assert len(FINGERPRINT_FIELDS) == len(drive_fingerprint(result))


def test_fast_slice_matches():
    report = run_differential_matrix(
        names=["slalom", "cluttered_stop"],
        seeds=(0,),
        fault_seeds=(None, 11),
        n_procgen=1,
        batch_size=3,
    )
    assert report.n_cells == 5
    assert report.comparisons == 5 * n_comparisons_per_cell()
    assert report.ok, report.format_report()
    assert "MATCH" in report.format_report()


def test_single_cell_repro_roundtrip():
    assert run_differential_cell("diff:slalom:0") == []
    assert run_differential_cell("diff:procgen:0:1") == []
    with pytest.raises(ValueError):
        run_differential_cell("invariant:slalom:0")


def test_mismatch_repro_line_names_cell_and_field():
    m = Mismatch(
        cell_id="diff:slalom:3:f7", field="distance_m",
        scalar=10.0, batched=10.5,
    )
    line = m.repro()
    assert "diff:slalom:3:f7" in line
    assert "distance_m" in line
    assert "10.5" in line


def test_cell_enumeration_grid_shape():
    cells = differential_cells(
        names=["slalom"], seeds=(0, 1), fault_seeds=(None, 5), n_procgen=2
    )
    ids = [c.cell_id for c in cells]
    assert ids == [
        "diff:slalom:0",
        "diff:slalom:0:f5",
        "diff:slalom:1",
        "diff:slalom:1:f5",
        "diff:procgen:0:0",
        "diff:procgen:0:1",
    ]


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


def test_one_executor_mixed_grid(monkeypatch):
    """Every kind through run_cells, one at a time, and the pool: one
    campaign CRC; every drive matches the scalar ``sov.drive``."""
    from repro.fleetops.cells import CELL_KINDS, campaign_crc, run_cell, run_cells
    from repro.fleetops.supervisor import FleetConfig, FleetSupervisor
    from repro.runtime import batched
    from repro.testing.invariants import drive_fingerprint

    specs = _mixed_grid()
    driven = []
    drive_batch = batched.drive_batch

    def spy(sovs, durations):
        results = drive_batch(sovs, durations)
        driven.extend(drive_fingerprint(r) for r in results)
        return results

    monkeypatch.setattr(batched, "drive_batch", spy)
    grouped = run_cells(specs)
    monkeypatch.undo()

    scalar = []
    for spec in specs:
        _context, drives = CELL_KINDS[spec.kind].build(spec.cell)
        scalar.extend(
            drive_fingerprint(sov.drive(duration)) for sov, duration in drives
        )
    assert len(driven) == len(specs) + 3  # three cells re-drive
    assert driven == scalar

    alone = [run_cell(spec) for spec in specs]
    pool = FleetSupervisor(FleetConfig(n_workers=2)).run(specs)
    assert pool.ok
    identities = [r.identity() for r in grouped]
    assert [r.identity() for r in alone] == identities
    assert [r.identity() for r in pool.results] == identities
    assert campaign_crc(alone) == campaign_crc(pool.results) == campaign_crc(
        grouped
    )


def test_batch_size_validation():
    with pytest.raises(ValueError):
        run_differential_matrix(names=["slalom"], seeds=(0,), batch_size=0)


@pytest.mark.slow
def test_full_differential_matrix_nightly():
    """The acceptance-bar sweep: >= 200 cells, zero mismatches.

    Corridors x seeds x faults (10 x 5 x 3 = 150) plus 50 procgen
    cells, batched in shared lockstep groups of 32.
    """
    report = run_differential_matrix(
        names=list(corridor_names()),
        seeds=(0, 1, 2, 3, 4),
        fault_seeds=(None, 7, 23),
        n_procgen=50,
        batch_size=32,
    )
    assert report.n_cells >= 200
    assert report.ok, report.format_report()
