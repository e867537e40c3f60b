"""Tests for the property-based safety-invariant harness."""

import pytest

from repro.fleetops.cells import (
    CellSpec,
    InvariantCell,
    ProcGenCell,
    procgen_cells,
    run_cell,
)
from repro.fleetops.supervisor import FleetConfig
from repro.scene.corridors import corridor_names, run_corridor_drive
from repro.scene.procgen import DEFAULT_SPACE
from repro.testing.invariants import (
    INVARIANT_NAMES,
    InvariantViolation,
    MatrixReport,
    drive_fingerprint,
    run_invariant_matrix,
)
from repro.triage.replay import replay_cell

#: A tightened Eq. 1 budget that the stalled-perception corridor cannot
#: hold: guarantees deterministic deadline misses for attribution tests.
TIGHT_BUDGET_S = 0.15


def invariant_cell(name, seed=0, **fields):
    """The checked outcome of one corridor invariant cell."""
    cell = InvariantCell(name=name, seed=seed, **fields)
    return run_cell(CellSpec(kind="invariant", index=0, cell=cell)).record


def generated_cell(generator_seed, cell_index, **fields):
    """The checked outcome of one default-space generated cell."""
    cell = ProcGenCell(
        space=DEFAULT_SPACE,
        generator_seed=generator_seed,
        cell_index=cell_index,
        **fields,
    )
    spec = CellSpec(kind="procgen", index=cell_index, cell=cell)
    return run_cell(spec).record


def replayed_by_printed_line(line):
    """Run what a printed ``--cell-id`` replay line runs."""
    cell_id = line.split("--cell-id ", 1)[1].split()[0]
    return replay_cell(cell_id, echo=lambda _line: None)


class TestFingerprint:
    def test_identical_drives_fingerprint_equal(self):
        _s1, r1 = run_corridor_drive("slalom", seed=0)
        _s2, r2 = run_corridor_drive("slalom", seed=0)
        assert drive_fingerprint(r1) == drive_fingerprint(r2)

    def test_different_seeds_fingerprint_differently(self):
        _s1, r1 = run_corridor_drive("slalom", seed=0)
        _s2, r2 = run_corridor_drive("slalom", seed=1)
        assert drive_fingerprint(r1) != drive_fingerprint(r2)

    def test_safety_net_changes_the_fingerprint_inputs(self):
        # The fingerprint must cover enough of the drive that an
        # ablation arm cannot alias a protected run.
        _s1, protected = run_corridor_drive("cluttered_stop", seed=0)
        _s2, unprotected = run_corridor_drive(
            "cluttered_stop", seed=0, safety_net=False
        )
        assert drive_fingerprint(protected) != drive_fingerprint(unprotected)


class TestCell:
    def test_clean_cell_checks_every_invariant(self):
        cell = invariant_cell("slalom", seed=0)
        assert cell.ok
        assert set(cell.checked) == set(INVARIANT_NAMES)
        assert not cell.collided

    def test_determinism_check_can_be_skipped(self):
        cell = invariant_cell("slalom", seed=0, check_determinism=False)
        assert "replay_determinism" not in cell.checked
        assert cell.ok

    def test_blocked_cell_stops_instead_of_colliding(self):
        cell = invariant_cell("cluttered_stop", seed=0)
        assert cell.ok
        assert cell.stopped or cell.entered_safe_stop

    def test_residency_is_a_distribution_on_degraded_cells(self):
        # The degraded variants exercise non-NOMINAL residency; the
        # invariant (checked in-harness) asserts the fractions form a
        # distribution, and a passing cell means it held.
        for name in ("narrow_gap_gps_denied", "slalom_flaky_camera"):
            cell = invariant_cell(name, seed=0, check_determinism=False)
            assert "residency_sums_to_one" in cell.checked
            assert cell.ok

    def test_unknown_scenario_propagates(self):
        with pytest.raises(KeyError):
            invariant_cell("no_such_corridor")


class TestDeadlineAttribution:
    """Satellite: misses under a tightened budget stay fully attributed."""

    def test_tight_budget_forces_misses_and_accounting_holds(self):
        cell = invariant_cell(
            "occluded_crossing_stalled",
            seed=0,
            check_determinism=False,
            deadline_budget_s=TIGHT_BUDGET_S,
        )
        assert cell.deadline_misses > 0
        # The accounting invariant ran against the forced misses and
        # found every one charged to exactly one stage.
        assert "deadline_accounting" in cell.checked
        assert cell.ok

    def test_every_miss_charged_to_exactly_one_stage(self):
        from repro.scene.corridors import generate_corridor, make_corridor_sov

        scenario = generate_corridor("occluded_crossing_stalled", 0)
        sov = make_corridor_sov(scenario)
        sov.enable_attribution(TIGHT_BUDGET_S)
        result = sov.drive(scenario.duration_s)
        table = result.attribution
        assert table.total_misses > 0
        assert sum(table.by_stage.values()) == table.total_misses
        assert sum(table.by_mode.values()) == table.total_misses
        assert len(table.records) == table.total_misses
        table.check_consistency()

    def test_default_budget_is_clean_on_the_same_cell(self):
        cell = invariant_cell(
            "occluded_crossing_stalled", seed=0, check_determinism=False
        )
        assert cell.deadline_misses == 0

    def test_every_failing_accounting_check_is_reported(self):
        # A table with more misses than ticks and no miss records fails
        # two accounting checks: the matrix records both, in check order,
        # and the single-invariant face returns the same two details.
        import dataclasses

        from repro.observability.attribution import AttributionTable
        from repro.scene.corridors import make_corridor_sov
        from repro.scene.providers import resolve_scene
        from repro.testing.invariants import (
            _evaluate_cell,
            check_drive_invariant,
        )

        scenario = resolve_scene("slalom", 0)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        broken = dataclasses.replace(
            sov.drive(scenario.duration_s),
            attribution=AttributionTable(
                budget_s=0.1,
                ticks_observed=2,
                total_misses=3,
                by_stage={"perception": 3},
                by_mode={"NOMINAL": 3},
            ),
        )
        details = (
            "3 misses exceed 2 observed ticks",
            "0 miss records vs total 3",
        )
        assert check_drive_invariant("deadline_accounting", broken) == details
        outcome = _evaluate_cell("slalom", 0, "", scenario, sov, [broken])
        assert [(v.invariant, v.detail) for v in outcome.violations] == [
            ("deadline_accounting", detail) for detail in details
        ]


class TestMatrix:
    @pytest.fixture(scope="class")
    def small_matrix(self):
        return run_invariant_matrix(
            names=("slalom", "cluttered_stop", "narrow_gap_gps_denied"),
            seeds=(0, 1),
            check_determinism=False,
        )

    def test_matrix_passes_and_counts_cells(self, small_matrix):
        assert small_matrix.ok
        assert small_matrix.n_cells == 6
        assert small_matrix.violations == []
        assert small_matrix.collision_rate == 0.0

    def test_summary_is_flat_and_numeric(self, small_matrix):
        summary = small_matrix.summary()
        assert summary["n_cells"] == 6.0
        assert summary["n_scenarios"] == 3.0
        assert all(isinstance(v, float) for v in summary.values())

    def test_format_report_names_every_cell(self, small_matrix):
        text = small_matrix.format_report()
        assert "PASS" in text
        assert "slalom" in text
        assert "seed=1" in text

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_invariant_matrix(names=("slalom",), seeds=())

    def test_full_registry_is_the_default_sweep(self):
        report = run_invariant_matrix(seeds=(0,), check_determinism=False)
        assert {c.scenario for c in report.cells} == set(corridor_names())
        assert report.ok


class TestViolationReporting:
    def test_violation_repro_is_a_pinned_one_liner(self):
        # A fault draw, a tight budget and no re-drive: the printed line
        # replays this cell, not the plain (name, seed) one.
        cell = InvariantCell(
            name="occluded_crossing_stalled",
            seed=4,
            deadline_budget_s=TIGHT_BUDGET_S,
            check_determinism=False,
            fault_seed=23,
        )
        original = run_cell(CellSpec(kind="invariant", index=0, cell=cell))
        v = InvariantViolation(
            invariant="deadline_accounting",
            scenario=cell.name,
            seed=cell.seed,
            detail="x",
            cell_id=cell.cell_id,
        )
        assert v.replay_command() == (
            "python examples/corridor_matrix.py --cell-id "
            "invariant:occluded_crossing_stalled:4:f23:b0.15:nodet"
        )
        replayed = replayed_by_printed_line(v.replay_command())
        assert original.record.deadline_misses > 0
        assert replayed.identity() == original.identity()

    def test_failing_report_surfaces_the_repro_line(self):
        spec = next(
            procgen_cells(n_cells=1, start_index=3, check_determinism=False)
        )
        original = run_cell(spec)
        outcome = original.record
        bad = InvariantViolation(
            "reactive_engagement",
            outcome.scenario,
            outcome.seed,
            "x",
            cell_id=spec.cell_id,
        )
        report = MatrixReport(
            cells=[
                outcome.__class__(
                    **{**outcome.__dict__, "violations": (bad,)}
                ),
            ]
        )
        assert not report.ok
        [line] = [
            line
            for line in report.format_report().splitlines()
            if "--cell-id" in line
        ]
        assert "examples/procgen_matrix.py" in line
        replayed = replayed_by_printed_line(line)
        assert replayed.identity() == original.identity()


class TestGeneratedCells:
    def test_generated_cell_checks_regeneration_first(self):
        from repro.testing.invariants import GENERATED_INVARIANT_NAMES

        cell = generated_cell(generator_seed=0, cell_index=1)
        assert cell.ok, cell.violations
        assert cell.checked[0] == "scene_regeneration"
        assert set(cell.checked) <= set(GENERATED_INVARIANT_NAMES)
        assert cell.scene_checksum is not None

    def test_generated_cell_matches_scene_checksum(self):
        from repro.scene.procgen import scene_checksum

        cell = generated_cell(
            generator_seed=2, cell_index=3, check_determinism=False
        )
        assert cell.scene_checksum == scene_checksum(
            DEFAULT_SPACE.sample(2, 3)
        )

    def test_qualified_scene_names_route_through_providers(self):
        cell = invariant_cell(
            "procgen:straight", seed=1, check_determinism=False
        )
        assert cell.scenario == "procgen:straight"
        assert cell.ok, cell.violations


class TestFleetEngineMatrix:
    def test_fleet_matrix_matches_serial(self):
        names = ("slalom", "cluttered_stop")
        in_process = run_invariant_matrix(
            names=names, seeds=(0,), check_determinism=False
        )
        fleet = run_invariant_matrix(
            names=names,
            seeds=(0,),
            check_determinism=False,
            fleet=FleetConfig(n_workers=2),
        )
        assert fleet.cells == in_process.cells


class TestBatchedEngine:
    """The matrix drives its cells in one lockstep group."""

    def test_batched_engine_matches_serial(self):
        names = ("slalom", "narrow_gap")
        grouped = run_invariant_matrix(
            names=names, seeds=(0,), check_determinism=False
        )
        alone = [
            invariant_cell(name, 0, check_determinism=False)
            for name in names
        ]
        assert grouped.cells == alone
        # ... and each matches the scalar reference drive.
        for name, cell in zip(names, grouped.cells):
            _scenario, result = run_corridor_drive(name, seed=0)
            assert cell.final_x_m == result.final_state.x_m
            assert cell.min_clearance_m == result.min_obstacle_clearance_m

    def test_batched_engine_runs_determinism_redrive(self):
        # Both cells and both re-drives share one lockstep group.
        report = run_invariant_matrix(
            names=("slalom", "narrow_gap"), seeds=(0,)
        )
        assert report.n_cells == 2
        for cell in report.cells:
            assert "replay_determinism" in cell.checked
        assert report.ok, report.format_report()
