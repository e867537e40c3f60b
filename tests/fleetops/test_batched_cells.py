"""Tests for the lockstep cell executor (``run_cells``) and the campaign CRC."""

from __future__ import annotations

from repro.fleetops.cells import (
    LOCKSTEP_GROUP,
    campaign_crc,
    chaos_cells,
    invariant_cells,
    run_cell,
    run_cells,
)
from repro.robustness.chaos import ChaosConfig, FaultSpace, run_chaos_drive
from repro.testing.invariants import drive_fingerprint


def _specs(n: int = 4, seed: int = 3):
    config = ChaosConfig(n_drives=n, seed=seed, space=FaultSpace())
    return list(chaos_cells(config))


def test_run_cells_serial_equals_run_cell():
    specs = _specs(2)
    a = [r.identity() for r in run_cells(specs)]
    b = [run_cell(s).identity() for s in specs]
    assert a == b


def test_batched_engine_bit_identical_to_serial():
    # The lockstep group against the scalar reference drive.
    specs = _specs(4)
    for result, spec in zip(run_cells(specs), specs):
        record, drive = run_chaos_drive(spec.cell.config, spec.index)
        assert result.fingerprint == drive_fingerprint(drive)
        # Records (the campaign's analytic payload) must agree too.
        assert result.record == record


def test_batched_engine_mixed_kinds_preserves_order():
    chaos = _specs(2)
    invariant = list(invariant_cells(names=["slalom"], seeds=(0,)))
    # Interleave: invariant cell between the chaos cells.
    specs = [chaos[0], invariant[0], chaos[1]]
    grouped = run_cells(specs)
    assert [r.cell_id for r in grouped] == [s.cell_id for s in specs]
    assert [r.identity() for r in grouped] == [
        run_cell(s).identity() for s in specs
    ]


def test_run_cells_pulls_one_lockstep_group_at_a_time(monkeypatch):
    from repro.runtime import batched

    pulled = []
    calls = []
    drive_batch = batched.drive_batch

    def spy(sovs, durations):
        calls.append((len(sovs), len(pulled)))
        return drive_batch(sovs, durations)

    monkeypatch.setattr(batched, "drive_batch", spy)
    config = ChaosConfig(n_drives=LOCKSTEP_GROUP + 1, seed=3, duration_s=0.5)

    def specs():
        for spec in chaos_cells(config):
            pulled.append(spec)
            yield spec

    results = run_cells(specs())
    assert [r.index for r in results] == list(range(LOCKSTEP_GROUP + 1))
    assert calls == [
        (LOCKSTEP_GROUP, LOCKSTEP_GROUP),
        (1, LOCKSTEP_GROUP + 1),
    ]


def test_campaign_crc_is_order_independent_and_sensitive():
    results = run_cells(_specs(3))
    assert campaign_crc(results) == campaign_crc(list(reversed(results)))
    assert campaign_crc(results) != campaign_crc(results[:2])
