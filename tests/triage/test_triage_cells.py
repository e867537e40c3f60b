"""Triage cells: purity, identity, id parsing, and supervisor error capture."""

import pytest

from repro.fleetops.cells import (
    CellSpec,
    InvariantCell,
    ProcGenCell,
    TriageCell,
    parse_cell_id,
    run_cell,
)
from repro.fleetops.supervisor import FleetConfig, FleetSupervisor
from repro.robustness.faults import FaultWindow, SensorDropoutFault
from repro.scene.procgen import DEFAULT_SPACE
from repro.triage.replay import replay_cell


def triage_cell(**overrides) -> TriageCell:
    base = dict(
        scene="drill-lane",
        sim_seed=7,
        faults=(
            SensorDropoutFault(sensor="camera", window=FaultWindow(0.0, 3.0)),
        ),
        safety_net=False,
        duration_s=2.5,
        obstacle_distance_m=8.0,
    )
    base.update(overrides)
    return TriageCell(**base)


# -- purity and identity ------------------------------------------------------


def test_triage_cell_reruns_bit_identically():
    spec = CellSpec(kind="triage", index=0, cell=triage_cell())
    a = run_cell(spec)
    b = run_cell(spec)
    assert a.identity() == b.identity()
    assert a.record == b.record
    assert tuple(a.fingerprint) == tuple(b.fingerprint)


def test_cell_id_distinguishes_every_payload_axis():
    base = triage_cell()
    variants = [
        triage_cell(sim_seed=8),
        triage_cell(faults=()),
        triage_cell(duration_s=3.0),
        triage_cell(safety_net=True),
        triage_cell(obstacle_distance_m=9.0),
        triage_cell(drop_agents=(1,)),
        triage_cell(replica=1),
    ]
    ids = {base.cell_id, *(v.cell_id for v in variants)}
    assert len(ids) == 1 + len(variants)


def test_cell_id_ignores_provenance():
    assert (
        triage_cell(origin="chaos:drill-lane:0:3:raw").cell_id
        == triage_cell().cell_id
    )


def test_triage_outcome_violation_kind():
    outcome = run_cell(
        CellSpec(kind="triage", index=0, cell=triage_cell())
    ).record
    assert outcome.violated
    assert outcome.failure_class == "collision"
    assert outcome.violation_kind == "no_collision_or_safe_stop/collision"
    passing = run_cell(
        CellSpec(
            kind="triage",
            index=0,
            cell=triage_cell(faults=(), safety_net=True),
        )
    ).record
    assert not passing.violated
    assert passing.failure_class == "none"


# -- cell-id parsing ----------------------------------------------------------


def test_parse_invariant_id_round_trips():
    spec = parse_cell_id("invariant:slalom:3")
    assert spec.kind == "invariant"
    assert spec.cell.name == "slalom"
    assert spec.cell.seed == 3
    assert spec.cell_id == "invariant:slalom:3"


def test_parse_procgen_id_round_trips():
    original = ProcGenCell(
        space=DEFAULT_SPACE.with_intensity(1.5),
        generator_seed=0,
        cell_index=4,
    )
    spec = parse_cell_id(original.cell_id)
    assert spec.kind == "procgen"
    assert spec.cell == original
    assert spec.cell_id == original.cell_id


def test_parse_chaos_id_with_colon_in_corridor():
    spec = parse_cell_id("chaos:procgen:crossroads:11:2:raw")
    assert spec.kind == "chaos"
    assert spec.cell.config.corridor == "procgen:crossroads"
    assert spec.cell.config.seed == 11
    assert spec.cell.drive_index == 2
    assert not spec.cell.config.safety_net
    assert spec.cell_id == "chaos:procgen:crossroads:11:2:raw"


def test_parse_drill_id_round_trips():
    spec = parse_cell_id("drill:camera_blackout:net:0")
    assert spec.kind == "drill"
    assert spec.cell.scenario == "camera_blackout"
    assert spec.cell.safety_net
    assert spec.cell_id == "drill:camera_blackout:net:0"


def test_parse_rejects_triage_and_garbage_ids():
    with pytest.raises(ValueError, match="not replayable"):
        parse_cell_id(triage_cell().cell_id)
    with pytest.raises(ValueError):
        parse_cell_id("chaos:drill-lane:0:1:sideways")
    with pytest.raises(ValueError):
        parse_cell_id("invariant:urban-slalom:notanint")


def test_parse_invariant_budget_round_trips():
    tight = InvariantCell(
        name="occluded_crossing_stalled", seed=0, deadline_budget_s=0.15
    )
    assert tight.cell_id == "invariant:occluded_crossing_stalled:0:b0.15"
    for original in (
        tight,
        # Seven significant digits: a :g spelling would round them off.
        InvariantCell(
            name="procgen:straight",
            seed=2,
            deadline_budget_s=0.1234567,
            check_determinism=False,
        ),
    ):
        spec = parse_cell_id(original.cell_id)
        assert spec.cell == original
        assert spec.cell_id == original.cell_id


def test_tight_budget_id_replays_the_same_misses():
    cell = InvariantCell(
        name="occluded_crossing_stalled",
        seed=0,
        deadline_budget_s=0.15,
        check_determinism=False,
    )
    original = run_cell(CellSpec(kind="invariant", index=0, cell=cell))
    replayed = run_cell(parse_cell_id(cell.cell_id))
    assert original.record.deadline_misses > 0
    assert replayed.identity() == original.identity()


def test_parse_refuses_chaos_ids_of_a_non_default_config():
    from repro.fleetops.cells import chaos_cells
    from repro.robustness.chaos import ChaosConfig

    spec = next(chaos_cells(ChaosConfig(n_drives=1, duration_s=2.0)))
    with pytest.raises(ValueError, match="not replayable from its id"):
        parse_cell_id(spec.cell_id)


# -- S1: the supervisor surfaces worker failure details -----------------------


def test_serial_supervisor_captures_failure_traceback(tmp_path):
    good = CellSpec(kind="triage", index=0, cell=triage_cell())
    # An invariant cell naming an unregistered corridor raises inside
    # run_cell, which the serial path must capture — not crash on.
    bad = CellSpec(
        kind="invariant",
        index=1,
        cell=InvariantCell(name="bogus-corridor", seed=0),
    )
    report = FleetSupervisor(FleetConfig(n_workers=1)).run(
        [good, bad], journal_path=str(tmp_path / "journal.jsonl")
    )
    assert [r.cell_id for r in report.results] == [good.cell_id]
    assert bad.cell_id in report.failed_cells
    assert bad.cell_id in report.failure_details
    assert "bogus-corridor" in report.failure_details[bad.cell_id]


# -- replay entry point -------------------------------------------------------


def test_replay_cell_smoke(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    result = replay_cell("invariant:slalom:0", trace_path=str(trace))
    out = capsys.readouterr().out
    assert result.record.violations == ()
    assert "all invariants hold" in out
    assert trace.exists()
    assert trace.stat().st_size > 0


def test_replay_cell_rejects_triage_ids():
    with pytest.raises(ValueError):
        replay_cell(triage_cell().cell_id)
