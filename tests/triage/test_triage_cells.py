"""Triage cells: purity, identity, id parsing, and supervisor error capture;
and one property over every cell kind's id grammar."""

import runpy
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.fault_campaign import DRILL_ORDER
from repro.fleetops.cells import (
    CELL_KINDS,
    CellSpec,
    ChaosCell,
    DrillCell,
    InvariantCell,
    ProcGenCell,
    TriageCell,
    parse_cell_id,
    run_cell,
)
from repro.fleetops.supervisor import FleetConfig, FleetSupervisor
from repro.robustness.chaos import ChaosConfig, FaultSpace
from repro.robustness.faults import FaultWindow, SensorDropoutFault
from repro.scene.procgen import DEFAULT_SPACE
from repro.testing.invariants import drive_fingerprint
from repro.triage.replay import export_cell_trace, replay_cell


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
    # Seven significant digits: a :g spelling would round them off.
    for intensity in (1.5, 1.2345678):
        original = ProcGenCell(
            space=DEFAULT_SPACE.with_intensity(intensity),
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


def test_parse_rejects_triage_and_garbage_ids(capsys):
    from repro.triage.__main__ import main

    with pytest.raises(ValueError, match="not replayable"):
        parse_cell_id(triage_cell().cell_id)
    with pytest.raises(ValueError):
        parse_cell_id("chaos:drill-lane:0:1:sideways")
    with pytest.raises(ValueError):
        parse_cell_id("invariant:urban-slalom:notanint")
    # Trailing or misspelled fields would otherwise replay another id.
    for garbled in ("procgen:0:3:i1.0:junk", "procgen:0:3:q1.5"):
        with pytest.raises(ValueError, match="unparseable"):
            parse_cell_id(garbled)
    # Unknown scenes are refused at parse time, not when the cell builds,
    # and the replay CLI — and the examples' --cell-id replay, whose exit
    # status 1 means "violations found" — prints the refusal and exits 2.
    examples = Path(__file__).resolve().parents[2] / "examples"
    example_replays = [
        runpy.run_path(str(examples / script))["replay_main"]
        for script in ("corridor_matrix.py", "procgen_matrix.py")
    ]
    for unknown in ("drill:meteor_strike:net:0", "invariant:no_such_scene:0"):
        with pytest.raises(ValueError, match="unknown"):
            parse_cell_id(unknown)
        assert main(["replay", unknown]) == 2
        assert "refused" in capsys.readouterr().err
        for replay_main in example_replays:
            with pytest.raises(SystemExit) as exited:
                replay_main(["--cell-id", unknown])
            assert exited.value.code == 2
            assert "refused" in capsys.readouterr().err


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


def test_replay_cell_traces_a_chaos_drive(tmp_path, capsys):
    cell_id = "chaos:drill-lane:0:0:raw"
    trace = tmp_path / "trace.json"
    result = replay_cell(cell_id, trace_path=str(trace))
    assert "trace exported" in capsys.readouterr().out
    assert trace.stat().st_size > 0
    traced = export_cell_trace(parse_cell_id(cell_id), str(trace))
    assert traced.trace is not None
    assert drive_fingerprint(traced) == result.fingerprint


def test_replay_cell_rejects_triage_ids():
    with pytest.raises(ValueError):
        replay_cell(triage_cell().cell_id)


# -- one property for the whole id grammar ------------------------------------


def _chaos_cell(seed, index, safety_net, corridor, intensity, duration_s):
    config = ChaosConfig(
        n_drives=index + 1,
        seed=seed,
        safety_net=safety_net,
        corridor=corridor,
        space=FaultSpace(intensity=intensity),
        duration_s=duration_s,
    )
    return ChaosCell(config, index)


#: Per kind, payloads with non-default configs mixed in: every field an
#: id must tell apart is drawn away from its default.
_PAYLOADS = {
    "chaos": st.builds(
        _chaos_cell,
        seed=st.integers(0, 50),
        index=st.integers(0, 5),
        safety_net=st.booleans(),
        corridor=st.sampled_from([None, "slalom"]),
        intensity=st.sampled_from([1.0, 1.5]),
        duration_s=st.sampled_from([10.0, 3.0]),
    ),
    "invariant": st.builds(
        InvariantCell,
        name=st.sampled_from(["slalom", "cluttered_stop"]),
        seed=st.integers(0, 50),
        deadline_budget_s=st.sampled_from([None, 0.15, 0.1234567]),
        check_determinism=st.booleans(),
        fault_seed=st.none() | st.integers(0, 50),
    ),
    "procgen": st.builds(
        ProcGenCell,
        space=st.builds(
            lambda intensity, other: replace(
                DEFAULT_SPACE.with_intensity(intensity), **other
            ),
            st.sampled_from([1.0, 1.5, 1.2345678]),
            st.sampled_from(
                [{"clutter_rate": 2.4}, {"dead_end_prob": 0.3}, {}]
            ),
        ),
        generator_seed=st.integers(0, 50),
        cell_index=st.integers(0, 20),
        check_determinism=st.booleans(),
    ),
    "drill": st.builds(
        DrillCell,
        scenario=st.sampled_from(DRILL_ORDER),
        safety_net=st.booleans(),
        seed=st.integers(0, 50),
    ),
    "triage": st.builds(
        triage_cell,
        sim_seed=st.integers(0, 50),
        duration_s=st.sampled_from([1.0, 2.5]),
        safety_net=st.booleans(),
    ),
}


def test_id_property_covers_every_kind():
    assert set(_PAYLOADS) == set(CELL_KINDS)


@pytest.mark.parametrize("kind", sorted(_PAYLOADS))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(data=st.data())
def test_every_id_replays_its_own_drive_or_is_refused(kind, data):
    cell = data.draw(_PAYLOADS[kind])
    try:
        parsed = parse_cell_id(cell.cell_id)
    except ValueError:
        return
    original = CellSpec(kind=kind, index=parsed.index, cell=cell)
    assert run_cell(parsed).identity() == run_cell(original).identity()
