"""Tests for the supervised fleet worker pool."""

import pytest

from repro.fleetops.cells import (
    chaos_cells,
    invariant_cells,
    procgen_cells,
    run_cell,
)
from repro.fleetops.injection import WorkerFaultPlan, truncate_journal_tail
from repro.fleetops.journal import load_journal
from repro.fleetops.supervisor import (
    FleetConfig,
    FleetSupervisor,
    _CellState,
)
from repro.robustness.chaos import ChaosConfig

CFG = ChaosConfig(n_drives=6, seed=5, duration_s=2.0)


@pytest.fixture(scope="module")
def specs():
    return list(chaos_cells(CFG))


@pytest.fixture(scope="module")
def serial_identities(specs):
    return [run_cell(s).identity() for s in specs]


def identities(report):
    return [r.identity() for r in report.results]


class TestConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FleetConfig(n_workers=0)
        with pytest.raises(ValueError):
            FleetConfig(cell_timeout_s=0.0)
        with pytest.raises(ValueError):
            FleetConfig(heartbeat_timeout_s=0.1, heartbeat_interval_s=0.25)
        with pytest.raises(ValueError):
            FleetConfig(max_retries_per_cell=-1)

    def test_backoff_is_seeded_and_bounded(self):
        sup = FleetSupervisor(FleetConfig(seed=3))
        a = sup._backoff_s("chaos:x:0:0:net", 1)
        b = sup._backoff_s("chaos:x:0:0:net", 1)
        assert a == b  # same seed, same cell, same failure -> same wait
        assert 0.0 < a <= FleetConfig().retry_backoff_cap_s * 1.5
        assert sup._backoff_s("chaos:x:0:1:net", 1) != a


class TestSerialPath:
    def test_single_worker_runs_in_process(self, specs, serial_identities):
        report = FleetSupervisor(FleetConfig(n_workers=1)).run(specs)
        assert report.ok
        assert identities(report) == serial_identities
        assert report.serial_fallback_cells == len(specs)

    def test_duplicate_cell_ids_rejected(self, specs):
        with pytest.raises(ValueError, match="unique"):
            FleetSupervisor(FleetConfig(n_workers=1)).run(
                [specs[0], specs[0]]
            )


class TestPool:
    def test_fleet_bit_identical_to_serial(self, specs, serial_identities):
        report = FleetSupervisor(FleetConfig(n_workers=3)).run(specs)
        assert report.ok
        assert report.lost_cells == 0
        assert report.duplicate_cells == 0
        assert identities(report) == serial_identities

    def test_worker_crash_recovered(self, specs, serial_identities, tmp_path):
        plan = WorkerFaultPlan(crash_cells=(specs[1].cell_id,))
        journal_path = str(tmp_path / "journal.jsonl")
        report = FleetSupervisor(FleetConfig(n_workers=3)).run(
            specs, journal_path=journal_path, fault_plan=plan
        )
        assert report.ok, report.summary()
        assert report.worker_crashes >= 1
        assert report.workers_restarted >= 1
        assert report.retries >= 1
        assert identities(report) == serial_identities
        # Every cell was checkpointed exactly once.
        state = load_journal(journal_path)
        assert sorted(state.results) == sorted(s.cell_id for s in specs)

    def test_straggler_speculation_first_result_wins(
        self, specs, serial_identities
    ):
        plan = WorkerFaultPlan(delay_cells=((specs[0].cell_id, 6.0),))
        config = FleetConfig(
            n_workers=3, min_straggler_s=1.0, straggler_factor=4.0
        )
        report = FleetSupervisor(config).run(specs, fault_plan=plan)
        assert report.ok
        assert report.stragglers_detected >= 1
        assert report.speculative_launches >= 1
        assert report.duplicate_cells == 0
        assert identities(report) == serial_identities

    def test_pool_collapse_degrades_to_serial(self, specs, serial_identities):
        # Every dispatch kills its worker, forever: the pool must die and
        # the supervisor must still finish every cell in-process.
        plan = WorkerFaultPlan(
            crash_cells=tuple(s.cell_id for s in specs), crash_attempts=99
        )
        config = FleetConfig(
            n_workers=2, max_worker_restarts=2, max_retries_per_cell=1
        )
        report = FleetSupervisor(config).run(specs, fault_plan=plan)
        assert report.ok
        assert report.degraded_to_serial
        assert report.serial_fallback_cells >= 1
        assert identities(report) == serial_identities

    def test_retry_budget_exhaustion_falls_back_in_process(
        self, specs, serial_identities
    ):
        # One cursed cell crashes its worker on every attempt; the pool
        # survives (others run fine) and the cursed cell completes via
        # the final in-process attempt.
        plan = WorkerFaultPlan(
            crash_cells=(specs[2].cell_id,), crash_attempts=99
        )
        config = FleetConfig(
            n_workers=3, max_retries_per_cell=1, max_worker_restarts=8
        )
        report = FleetSupervisor(config).run(specs, fault_plan=plan)
        assert report.ok, report.summary()
        assert report.serial_fallback_cells >= 1
        assert not report.degraded_to_serial
        assert identities(report) == serial_identities


class TestResume:
    def test_resume_after_torn_journal(
        self, specs, serial_identities, tmp_path
    ):
        journal_path = str(tmp_path / "journal.jsonl")
        first = FleetSupervisor(FleetConfig(n_workers=3)).run(
            specs, journal_path=journal_path
        )
        assert first.ok
        truncate_journal_tail(journal_path, drop_bytes=40)
        resumed = FleetSupervisor(FleetConfig(n_workers=3)).run(
            specs, journal_path=journal_path
        )
        assert resumed.ok
        assert resumed.cells_from_journal == len(specs) - 1
        assert resumed.journal_tail_dropped == 1
        assert identities(resumed) == serial_identities

    def test_complete_journal_resume_runs_nothing(
        self, specs, serial_identities, tmp_path
    ):
        journal_path = str(tmp_path / "journal.jsonl")
        FleetSupervisor(FleetConfig(n_workers=1)).run(
            specs, journal_path=journal_path
        )
        resumed = FleetSupervisor(FleetConfig(n_workers=4)).run(
            specs, journal_path=journal_path
        )
        assert resumed.ok
        assert resumed.cells_from_journal == len(specs)
        assert resumed.serial_fallback_cells == 0
        assert identities(resumed) == serial_identities

    def test_foreign_journal_refused(self, specs, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        FleetSupervisor(FleetConfig(n_workers=1)).run(
            specs, journal_path=journal_path
        )
        other = list(chaos_cells(ChaosConfig(n_drives=3, seed=9)))
        with pytest.raises(ValueError, match="refusing"):
            FleetSupervisor(FleetConfig(n_workers=1)).run(
                other, journal_path=journal_path
            )

    def test_journal_of_another_deadline_budget_refused(self, tmp_path):
        # Same scenario and seed, another Eq. 1 budget — or a generated
        # scene from a space that differs only in clutter: another
        # drive, so resuming must not reuse the journaled result.
        from dataclasses import replace

        from repro.scene.procgen import DEFAULT_SPACE

        def budget_grid(budget_s):
            return invariant_cells(
                names=["occluded_crossing_stalled"],
                seeds=(0,),
                check_determinism=False,
                deadline_budget_s=budget_s,
            )

        def procgen_grid(space):
            return list(
                procgen_cells(
                    space, n_cells=1, start_index=3, check_determinism=False
                )
            )

        pairs = [
            (budget_grid(None), budget_grid(0.15)),
            (
                procgen_grid(DEFAULT_SPACE),
                procgen_grid(replace(DEFAULT_SPACE, clutter_rate=2.4)),
            ),
        ]
        for i, (journaled, other) in enumerate(pairs):
            journal_path = str(tmp_path / f"journal{i}.jsonl")
            FleetSupervisor(FleetConfig(n_workers=1)).run(
                journaled, journal_path=journal_path
            )
            with pytest.raises(ValueError, match="refusing"):
                FleetSupervisor(FleetConfig(n_workers=1)).run(
                    other, journal_path=journal_path
                )


class TestReportAccounting:
    def test_lost_and_duplicate_counters(self, specs):
        report = FleetSupervisor(FleetConfig(n_workers=1)).run(specs[:2])
        assert report.lost_cells == 0
        assert report.duplicate_cells == 0
        report.results.append(report.results[0])
        assert report.duplicate_cells == 1

    def test_summary_is_flat_numeric(self, specs):
        report = FleetSupervisor(FleetConfig(n_workers=1)).run(specs[:2])
        summary = report.summary()
        assert summary["n_cells"] == 2.0
        assert summary["lost_cells"] == 0.0
        assert all(isinstance(v, float) for v in summary.values())

    def test_cell_state_defaults(self, specs):
        state = _CellState(spec=specs[0])
        assert state.dispatches == 0
        assert not state.speculated
