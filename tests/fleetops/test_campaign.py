"""Tests for fleet campaigns end to end (envelope + TCO rollup),
including the scenario x seed x fault determinism property sweep."""

import dataclasses

import pytest

from repro.fleetops.campaign import fleet_summary, rollup_fleet
from repro.fleetops.cells import drill_cells, invariant_cells, run_cell
from repro.fleetops.injection import WorkerFaultPlan
from repro.fleetops.supervisor import FleetConfig, FleetSupervisor
from repro.robustness.chaos import ChaosConfig, iter_cells, run_chaos_campaign

CHAOS = ChaosConfig(n_drives=6, seed=3, duration_s=2.0)


@pytest.fixture(scope="module")
def fleet_result():
    return run_chaos_campaign(CHAOS, fleet=FleetConfig(n_workers=4))


@pytest.fixture(scope="module")
def serial_result():
    return run_chaos_campaign(CHAOS)


class TestFleetCampaign:
    def test_envelope_bit_identical_to_serial(
        self, fleet_result, serial_result
    ):
        assert fleet_result.envelope == serial_result.envelope
        assert fleet_result.records == serial_result.records

    def test_exactly_once_accounting(self, fleet_result):
        report = fleet_result.report
        assert report.ok
        assert report.lost_cells == 0
        assert report.duplicate_cells == 0
        assert len(report.results) == CHAOS.n_drives

    def test_rollup_prices_the_measured_envelope(self, fleet_result):
        rollup = rollup_fleet(fleet_result.envelope)
        assert rollup.n_cells == CHAOS.n_drives
        assert rollup.best_tier == "our_platform"
        assert rollup.collision_rate == 0.0
        assert (
            rollup.risk_adjusted_profit_per_day_usd
            == rollup.fleet_profit_per_day_usd
        )
        assert set(rollup.tier_profits_usd) == {
            "mobile_soc",
            "our_platform",
            "automotive_asic",
            "dual_server",
        }

    def test_collisions_discount_the_rollup(self, serial_result):
        rollup = rollup_fleet(
            dataclasses.replace(serial_result.envelope, collision_rate=0.2)
        )
        assert rollup.risk_adjusted_profit_per_day_usd == pytest.approx(
            rollup.fleet_profit_per_day_usd * 0.8
        )
        assert rollup.as_dict()["collision_rate"] == 0.2

    def test_fleet_summary_is_flat(self, fleet_result):
        flat = fleet_summary(fleet_result)
        assert flat["n_cells"] == float(CHAOS.n_drives)
        assert flat["collision_rate"] == 0.0
        assert flat["deadline_misses"] >= 0.0
        assert all(isinstance(v, float) for v in flat.values())


class TestDeterminismProperty:
    """Satellite: sweep scenario x seed x fault cells and assert the
    fleet's drive fingerprints equal the serial ones, cell for cell."""

    def build_grid(self):
        # Two chaos campaigns (different seeds, one without the safety
        # net), every fault drill, and a corridor invariant cell — one
        # mixed grid spanning every cell kind the engine executes.
        specs = []
        for seed, safety_net in ((3, True), (8, False)):
            cfg = ChaosConfig(
                n_drives=3, seed=seed, duration_s=2.0, safety_net=safety_net
            )
            for spec in iter_cells(cfg):
                specs.append(spec)
        specs.extend(drill_cells(start_index=len(specs)))
        specs.extend(
            invariant_cells(
                names=["cluttered_stop"], seeds=(0,), start_index=len(specs)
            )
        )
        # Re-index into one campaign order.
        from dataclasses import replace

        return [
            replace(spec, index=i) for i, spec in enumerate(specs)
        ]

    def test_mixed_grid_fleet_matches_serial(self):
        specs = self.build_grid()
        assert len({s.cell_id for s in specs}) == len(specs)
        serial = [run_cell(s).identity() for s in specs]
        report = FleetSupervisor(FleetConfig(n_workers=4)).run(specs)
        assert report.ok
        assert [r.identity() for r in report.results] == serial

    def test_mixed_grid_survives_injected_faults(self, tmp_path):
        specs = self.build_grid()
        serial = [run_cell(s).identity() for s in specs]
        plan = WorkerFaultPlan(
            crash_cells=(specs[0].cell_id, specs[7].cell_id),
            delay_cells=((specs[3].cell_id, 3.0),),
        )
        config = FleetConfig(
            n_workers=4, min_straggler_s=1.0, straggler_factor=4.0
        )
        report = FleetSupervisor(config).run(
            specs,
            journal_path=str(tmp_path / "journal.jsonl"),
            fault_plan=plan,
        )
        assert report.ok, report.summary()
        assert report.worker_crashes >= 1
        assert report.lost_cells == 0
        assert report.duplicate_cells == 0
        assert [r.identity() for r in report.results] == serial


class TestIncompleteCampaign:
    def test_incomplete_campaign_raises(self, monkeypatch):
        from repro.fleetops import supervisor as supervisor_mod

        class Broken:
            def __init__(self, *a, **k):
                pass

            def run(self, specs, **kwargs):
                from repro.fleetops.supervisor import FleetRunReport

                return FleetRunReport(n_cells=len(list(specs)), n_workers=1)

        monkeypatch.setattr(supervisor_mod, "FleetSupervisor", Broken)
        with pytest.raises(RuntimeError, match="incomplete"):
            run_chaos_campaign(ChaosConfig(n_drives=2, seed=0, duration_s=2.0))
