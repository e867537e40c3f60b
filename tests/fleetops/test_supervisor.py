"""Tests for the supervised fleet worker pool."""

import multiprocessing
import time

import pytest

from repro.fleetops import cells
from repro.fleetops.cells import (
    LOCKSTEP_GROUP,
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
    _WorkerHandle,
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


def _log_batch_sizes(monkeypatch, path):
    """Spy on ``drive_batch``, in this process and in workers forked
    after the call, logging each call's batch size as one line of
    *path*; returns a reader of the sorted sizes."""
    from repro.runtime import batched

    drive_batch = batched.drive_batch

    def spy(sovs, durations):
        with open(path, "a") as fh:
            fh.write(f"{len(sovs)}\n")
        return drive_batch(sovs, durations)

    monkeypatch.setattr(batched, "drive_batch", spy)
    return lambda: sorted(int(size) for size in path.read_text().split())


class TestConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FleetConfig(n_workers=0)
        with pytest.raises(ValueError):
            FleetConfig(cell_timeout_s=0.0)
        with pytest.raises(ValueError):
            FleetConfig(max_retries_per_cell=-1)


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

    def test_in_process_path_drives_one_lockstep_group(
        self, monkeypatch, tmp_path
    ):
        sizes = _log_batch_sizes(monkeypatch, tmp_path / "batches.log")
        config = ChaosConfig(n_drives=LOCKSTEP_GROUP, seed=5, duration_s=0.5)
        report = FleetSupervisor(FleetConfig(n_workers=1)).run(
            chaos_cells(config)
        )
        assert report.ok
        assert sizes() == [LOCKSTEP_GROUP]

    def test_raising_drive_fails_alone_in_its_group(self, monkeypatch):
        # One drive of a lockstep group raises mid-drive: the group is
        # re-run a cell at a time, and only the culprit fails — in
        # process, and inside a pool worker's chunk.
        config = ChaosConfig(n_drives=LOCKSTEP_GROUP, seed=5, duration_s=1.0)
        group = list(chaos_cells(config))
        culprit = group[7]
        alone = {s.cell_id: run_cell(s).identity() for s in group}
        chaos = cells.CELL_KINDS["chaos"]

        def build(cell):
            context, drives = chaos.build(cell)
            if cell.drive_index == culprit.index:

                def boom(*_args):
                    raise RuntimeError("injected mid-drive fault")

                drives[0][0]._proactive_post = boom
            return context, drives

        monkeypatch.setitem(
            cells.CELL_KINDS, "chaos", cells.CellKind(build, chaos.finish)
        )
        for n_workers in (1, 2):
            report = FleetSupervisor(FleetConfig(n_workers=n_workers)).run(
                group
            )
            assert report.failed_cells == (culprit.cell_id,)
            assert "injected mid-drive fault" in (
                report.failure_details[culprit.cell_id]
            )
            assert report.lost_cells == 0
            assert len(report.results) == LOCKSTEP_GROUP - 1
            for result in report.results:
                assert result.identity() == alone[result.cell_id]


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

    def test_first_chunks_go_out_before_the_first_wait(
        self, specs, serial_identities, monkeypatch
    ):
        # A spy on the pool's result queue (the first queue the run
        # makes) and on each assignment, in this process: the workers
        # get their first chunks before the supervisor waits on results.
        from repro.fleetops import supervisor

        events = []
        get_context = multiprocessing.get_context

        class SpyQueue:
            def __init__(self, queue):
                self._queue = queue

            def get(self, *args, **kwargs):
                events.append("get")
                return self._queue.get(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._queue, name)

        class SpyContext:
            def __init__(self, ctx):
                self._ctx = ctx
                self._queues = 0

            def Queue(self):
                queue = self._ctx.Queue()
                self._queues += 1
                return SpyQueue(queue) if self._queues == 1 else queue

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        assign = _WorkerHandle.assign

        def spy_assign(handle, chunk, now):
            events.append("assign")
            return assign(handle, chunk, now)

        monkeypatch.setattr(
            supervisor.mp,
            "get_context",
            lambda method=None: SpyContext(get_context(method)),
        )
        monkeypatch.setattr(_WorkerHandle, "assign", spy_assign)
        report = FleetSupervisor(FleetConfig(n_workers=2)).run(specs)
        assert report.ok, report.summary()
        assert identities(report) == serial_identities
        assert events[:2] == ["assign", "assign"]
        assert "get" in events

    def test_workers_drive_chunks_in_lockstep(self, monkeypatch, tmp_path):
        # Sixteen cells on two workers: one chunk of eight each, driven
        # by one drive_batch call, not sixteen calls at N=1.
        sizes = _log_batch_sizes(monkeypatch, tmp_path / "batches.log")
        config = ChaosConfig(n_drives=LOCKSTEP_GROUP, seed=5, duration_s=0.5)
        report = FleetSupervisor(FleetConfig(n_workers=2)).run(
            chaos_cells(config)
        )
        assert report.ok, report.summary()
        assert sizes() == [8, 8]

    def test_crash_mid_chunk_retries_each_cell_alone(
        self, monkeypatch, tmp_path
    ):
        config = ChaosConfig(n_drives=8, seed=5, duration_s=1.0)
        grid = list(chaos_cells(config))
        serial = [run_cell(s).identity() for s in grid]
        sizes = _log_batch_sizes(monkeypatch, tmp_path / "batches.log")
        # Chunks of four; the second cell of the first one kills its
        # worker before any cell of the chunk reports.
        plan = WorkerFaultPlan(crash_cells=(grid[1].cell_id,))
        journal_path = str(tmp_path / "journal.jsonl")
        report = FleetSupervisor(FleetConfig(n_workers=2)).run(
            grid, journal_path=journal_path, fault_plan=plan
        )
        assert report.ok, report.summary()
        assert report.worker_crashes == 1
        assert report.retries == 4
        assert sizes() == [1, 1, 1, 1, 4]
        assert identities(report) == serial
        state = load_journal(journal_path)
        assert state.duplicates_dropped == 0
        assert sorted(state.results) == sorted(s.cell_id for s in grid)

    def test_straggler_speculation_first_result_wins(
        self, specs, serial_identities
    ):
        plan = WorkerFaultPlan(delay_cells=((specs[0].cell_id, 6.0),))
        config = FleetConfig(
            n_workers=3, min_straggler_s=1.0, straggler_factor=4.0
        )
        report = FleetSupervisor(config).run(specs, fault_plan=plan)
        assert report.ok
        assert report.speculative_launches >= 1
        assert report.duplicate_cells == 0
        assert identities(report) == serial_identities

    def test_busy_worker_shuts_down_at_once(self, specs):
        # A worker still inside a chunk (here, a 5-s injected delay) is
        # terminated at once when the run ends; only an idle worker
        # gets the stop sentinel and its join.
        ctx = multiprocessing.get_context()
        result_q = ctx.Queue()
        plan = WorkerFaultPlan(delay_cells=((specs[0].cell_id, 5.0),))
        handle = _WorkerHandle(ctx, 0, result_q, plan)
        try:
            handle.assign([(specs[0], 0)], time.monotonic())
            assert not handle.idle
            started = time.monotonic()
            handle.shutdown()
            assert time.monotonic() - started < 0.5
            assert not handle.process.is_alive()
        finally:
            if handle.process.is_alive():
                handle.process.kill()
            result_q.cancel_join_thread()
            result_q.close()

    def test_cell_timeout_retires_the_worker(self, specs, serial_identities):
        # Chunks of three get three times cell_timeout_s: the delay
        # overruns that ceiling by as much as it overran one cell's.
        plan = WorkerFaultPlan(delay_cells=((specs[0].cell_id, 5.0),))
        config = FleetConfig(
            n_workers=2, cell_timeout_s=1.0, speculative_execution=False
        )
        report = FleetSupervisor(config).run(specs, fault_plan=plan)
        assert report.worker_timeouts >= 1
        assert report.ok, report.summary()
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

    def test_collapse_moves_a_completed_cells_traceback_to_its_result(
        self, monkeypatch
    ):
        # The culprit's build raises only inside workers, and the cells
        # of the other chunk crash their worker on every attempt, so the
        # pool collapses while the culprit still has retries left.  It
        # then completes in process: its worker traceback moves onto its
        # result, and failure_details keeps only cells that failed.
        import multiprocessing

        config = ChaosConfig(n_drives=4, seed=5, duration_s=1.0)
        grid = list(chaos_cells(config))
        serial = [run_cell(s).identity() for s in grid]
        culprit = grid[0]
        chaos = cells.CELL_KINDS["chaos"]

        def build(cell):
            in_worker = multiprocessing.parent_process() is not None
            if in_worker and cell.drive_index == culprit.cell.drive_index:
                raise RuntimeError("injected worker-only fault")
            return chaos.build(cell)

        monkeypatch.setitem(
            cells.CELL_KINDS, "chaos", cells.CellKind(build, chaos.finish)
        )
        plan = WorkerFaultPlan(
            crash_cells=(grid[2].cell_id, grid[3].cell_id), crash_attempts=99
        )
        fleet = FleetConfig(
            n_workers=2, max_worker_restarts=0, max_retries_per_cell=8
        )
        report = FleetSupervisor(fleet).run(grid, fault_plan=plan)
        assert report.ok, report.summary()
        assert report.degraded_to_serial
        assert report.cell_errors >= 1
        assert report.failure_details == {}
        [result] = [r for r in report.results if r.cell_id == culprit.cell_id]
        assert "injected worker-only fault" in result.error
        assert identities(report) == serial

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
