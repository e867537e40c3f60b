"""Tests for the campaign cell layer (specs, purity, picklability)."""

import pickle
import types

import pytest

from repro.experiments.fault_campaign import (
    DRILL_ORDER,
    DRILL_SCENARIOS,
    drill_scenario,
)
from repro.fleetops.cells import (
    CellSpec,
    ChaosCell,
    DrillCell,
    InvariantCell,
    chaos_cells,
    drill_cells,
    invariant_cells,
    run_cell,
)
from repro.robustness.chaos import (
    ChaosConfig,
    FaultSpace,
    iter_cells,
    run_chaos_campaign,
    run_chaos_drive,
)

CFG = ChaosConfig(n_drives=3, seed=7, duration_s=2.0)


class TestSpecs:
    def test_cell_ids_are_stable_and_unique(self):
        specs = list(chaos_cells(CFG))
        ids = [s.cell_id for s in specs]
        assert len(set(ids)) == len(ids)
        # CFG's 2 s drives are not the default shape: the id carries a
        # CRC of (space, duration, obstacle distance, initial speed).
        assert ids[0] == "chaos:drill-lane:7:0:net:x265f9683"

    def test_chaos_id_tells_drive_shapes_apart(self):
        def first_id(**overrides):
            return next(chaos_cells(ChaosConfig(n_drives=1, **overrides))).cell_id

        assert first_id() == "chaos:drill-lane:0:0:net"
        shaped = {
            first_id(duration_s=2.0),
            first_id(duration_s=3.0),
            first_id(obstacle_distance_m=18.0),
            first_id(initial_speed_mps=4.0),
            first_id(space=FaultSpace(intensity=2.0)),
        }
        assert len(shaped) == 5
        assert all(i.startswith("chaos:drill-lane:0:0:net:x") for i in shaped)

    def test_corridor_and_arm_in_chaos_id(self):
        cfg = ChaosConfig(
            n_drives=1, seed=1, safety_net=False, corridor="slalom"
        )
        spec = next(chaos_cells(cfg))
        assert spec.cell_id == "chaos:slalom:1:0:raw"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            CellSpec(kind="quantum", index=0, cell=DrillCell("gps_denial"))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CellSpec(kind="drill", index=-1, cell=DrillCell("gps_denial"))

    def test_chaos_cells_is_lazy(self):
        huge = ChaosConfig(n_drives=10**9, seed=0)
        gen = chaos_cells(huge)
        assert isinstance(gen, types.GeneratorType)
        assert next(gen).index == 0

    def test_iter_cells_matches_chaos_cells(self):
        assert [s.cell_id for s in iter_cells(CFG)] == [
            s.cell_id for s in chaos_cells(CFG)
        ]

    def test_invariant_and_drill_grids(self):
        inv = invariant_cells(names=["cluttered_stop"], seeds=(0, 1))
        assert [s.cell_id for s in inv] == [
            "invariant:cluttered_stop:0",
            "invariant:cluttered_stop:1",
        ]
        drills = drill_cells()
        assert [s.cell.scenario for s in drills] == list(DRILL_ORDER)
        assert all(s.kind == "drill" for s in drills)


class TestDrillRegistry:
    def test_registry_covers_order(self):
        assert set(DRILL_SCENARIOS) == set(DRILL_ORDER)

    def test_drill_scenario_builds_named(self):
        for name in DRILL_ORDER:
            assert drill_scenario(name).name == name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown drill scenario"):
            drill_scenario("meteor_strike")


class TestRunCell:
    def test_chaos_cell_matches_direct_drive(self):
        spec = next(chaos_cells(CFG))
        result = run_cell(spec)
        record, _ = run_chaos_drive(CFG, 0)
        assert result.record == record
        assert result.kind == "chaos"
        assert result.summary["collided"] == float(record.collided)

    def test_purity_same_spec_same_identity(self):
        spec = list(chaos_cells(CFG))[1]
        assert run_cell(spec).identity() == run_cell(spec).identity()

    def test_wall_s_excluded_from_identity(self):
        spec = next(chaos_cells(CFG))
        a, b = run_cell(spec), run_cell(spec)
        assert a.identity() == b.identity()
        assert "wall_s" not in str(a.identity())

    def test_serial_campaign_routes_through_run_cell(self):
        # The refactored serial path and run_cell agree record-for-record.
        campaign = run_chaos_campaign(CFG)
        cells = [run_cell(s).record for s in iter_cells(CFG)]
        assert campaign.records == cells

    def test_drill_cell_runs(self):
        result = run_cell(drill_cells(scenarios=["gps_denial"])[0])
        assert result.kind == "drill"
        assert result.record.scenario == "gps_denial"
        assert result.summary["collided"] == 0.0

    def test_invariant_cell_runs(self):
        result = run_cell(invariant_cells(names=["cluttered_stop"], seeds=(0,))[0])
        assert result.kind == "invariant"
        assert result.summary["violations"] == 0.0

    def test_invariant_fault_draw_is_judged_on_the_merged_schedule(self):
        # Draw 27 sticks the radar at a false value on a clean scene:
        # the reactive engagement check must see the drawn fault and
        # stand aside.
        cell = InvariantCell(
            "slalom", 0, check_determinism=False, fault_seed=27
        )
        assert cell.cell_id == "invariant:slalom:0:f27:nodet"
        record = run_cell(CellSpec("invariant", 0, cell)).record
        assert "reactive_engagement" not in record.checked
        clean = InvariantCell("slalom", 0, check_determinism=False)
        assert "reactive_engagement" in run_cell(
            CellSpec("invariant", 0, clean)
        ).record.checked


class TestPicklability:
    """Every campaign dataclass must cross a process boundary intact."""

    def test_specs_round_trip(self):
        for spec in (
            next(chaos_cells(CFG)),
            invariant_cells(names=["cluttered_stop"], seeds=(0,))[0],
            drill_cells(scenarios=["gps_denial"])[0],
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert clone.cell_id == spec.cell_id

    def test_chaos_result_round_trips(self):
        result = run_cell(next(chaos_cells(CFG)))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.identity() == result.identity()
        assert clone.record == result.record
        assert clone.summary == result.summary

    def test_campaign_reports_round_trip(self):
        # The aggregates the fleet engine journals and ships around.
        campaign = run_chaos_campaign(CFG)
        clone = pickle.loads(pickle.dumps(campaign.envelope))
        assert clone == campaign.envelope
        records = pickle.loads(pickle.dumps(campaign.records))
        assert records == campaign.records

    def test_drive_result_round_trips(self):
        _, result = run_chaos_drive(CFG, 0)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.collided == result.collided
        assert clone.final_mode == result.final_mode
        assert clone.min_obstacle_clearance_m == result.min_obstacle_clearance_m

    def test_ingest_report_round_trips(self):
        from repro.cloud.ingestion import IngestCampaignConfig, run_ingest_campaign

        outcome = run_ingest_campaign(
            IngestCampaignConfig(n_vehicles=2, logs_per_vehicle=2, seed=0)
        )
        clone = pickle.loads(pickle.dumps(outcome.report))
        assert clone == outcome.report

    def test_fault_scenarios_round_trip(self):
        for name in DRILL_ORDER:
            scenario = drill_scenario(name)
            assert pickle.loads(pickle.dumps(scenario)) == scenario


class TestProcGenCells:
    def test_cell_ids_encode_coordinates_and_intensity(self):
        from repro.fleetops.cells import ProcGenCell, procgen_cells
        from repro.scene.procgen import DEFAULT_SPACE

        cell = ProcGenCell(
            space=DEFAULT_SPACE.with_intensity(1.5),
            generator_seed=3,
            cell_index=7,
        )
        assert cell.cell_id == "procgen:3:7:i1.5"
        assert (
            ProcGenCell(
                space=DEFAULT_SPACE,
                generator_seed=0,
                cell_index=0,
                check_determinism=False,
            ).cell_id
            == "procgen:0:0:i1.0:nodet"
        )
        specs = list(procgen_cells(n_cells=3, start_index=5))
        assert [s.index for s in specs] == [5, 6, 7]
        assert all(s.kind == "procgen" for s in specs)
        assert specs[0].cell.cell_index == 5

    def test_invariant_cell_id_keeps_historical_spelling(self):
        from repro.fleetops.cells import InvariantCell

        assert InvariantCell(name="slalom", seed=2).cell_id == (
            "invariant:slalom:2"
        )
        assert InvariantCell(
            name="slalom", seed=2, check_determinism=False
        ).cell_id == "invariant:slalom:2:nodet"

    def test_run_cell_executes_procgen_kind(self):
        from repro.fleetops.cells import procgen_cells, run_cell

        spec = next(iter(procgen_cells(n_cells=1)))
        result = run_cell(spec)
        assert result.kind == "procgen"
        assert result.summary["violations"] == 0.0
        assert result.summary["scene_checksum"] > 0
        assert result.record.scene_checksum == int(
            result.summary["scene_checksum"]
        )

    def test_procgen_specs_and_results_pickle_round_trip(self):
        import pickle

        from repro.fleetops.cells import procgen_cells, run_cell

        spec = next(iter(procgen_cells(n_cells=1)))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cell_id == spec.cell_id
        result = run_cell(spec)
        back = pickle.loads(pickle.dumps(result))
        assert back.identity() == result.identity()
        assert back.record == result.record
