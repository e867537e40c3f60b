"""The campaign runner: in process, or on a supervised worker pool.

The :class:`FleetSupervisor` runs a grid of
:class:`~repro.fleetops.cells.CellSpec` cells.  Wherever a cell runs,
it runs in a lockstep group through :func:`_run_chunk`: one
:func:`~repro.runtime.batched.drive_batch` call drives the group, and a
group that raises is re-run one cell at a time, so only the culprit
fails and the others keep their bit-identical results.

``n_workers`` alone decides where the groups run.  With one worker (the
default) there is no pool: the in-process path takes the cells in
:func:`~repro.fleetops.cells.lockstep_groups` of 16.  With more, each
idle worker of a pool gets a *chunk* of up to
:data:`~repro.fleetops.cells.LOCKSTEP_GROUP` cells per message
(:func:`chunk_size` spreads the pending cells evenly over the live
workers) and reports one message per cell.  The pool is robust by
construction, borrowing the discipline the on-vehicle
:class:`~repro.robustness.health.HealthMonitor` applies to vehicle
modules:

* **Heartbeat liveness.**  Every worker runs a daemon thread stamping a
  shared-memory timestamp; a stale stamp (or a dead process) marks the
  worker failed, every unreported cell of its chunk is re-queued, and
  the worker is restarted — up to a bounded restart budget, like the
  watchdog's supervised module restarts.
* **Wall-clock timeouts.**  A chunk running longer than
  ``cell_timeout_s`` times its size gets its worker terminated and its
  cells retried.
* **Bounded retries.**  A failed cell joins a FIFO queue and goes,
  alone, to the next idle worker; past ``max_retries_per_cell``
  failures it falls back to one final in-process attempt.
* **Straggler speculation.**  A chunk running far past the median
  completed-cell wall time times its size has its unfinished cells
  re-dispatched, as one chunk, to an idle worker; the first result for
  each cell wins and the loser's duplicate is discarded by cell id.
  Because :func:`~repro.fleetops.cells.run_cell` is pure per spec, both
  results are bit-identical, so discarding is lossless.
* **Graceful degradation to in-process.**  When the pool collapses
  (every worker dead, restart budget spent) the supervisor finishes the
  remaining cells in-process — the campaign-engine analogue of
  REACTIVE_ONLY mode.

Accounting is per cell on every path: each outcome passes through one
ledger that counts, journals and diagnoses it once.  Every campaign in
the repo runs its cells through :meth:`FleetSupervisor.run`.

Completed cells are checkpointed to the crash-consistent campaign
journal (:mod:`repro.fleetops.journal`), fsynced, before being counted,
so an interrupted campaign resumes with exactly-once accounting: zero
lost cells, zero duplicated cells.

The pool's mechanics are constants: workers start with ``fork`` where
the platform has it, stamp a heartbeat every
:data:`HEARTBEAT_INTERVAL_S` and count as hung past
:data:`HEARTBEAT_TIMEOUT_S`; the supervisor waits at most
:data:`POLL_INTERVAL_S` for a result per loop turn.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp
import queue as queue_mod
import statistics
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from .cells import (
    LOCKSTEP_GROUP,
    CellResult,
    CellSpec,
    lockstep_groups,
    run_cells,
)
from .injection import WorkerFaultPlan
from .journal import (
    CampaignJournal,
    campaign_signature,
    load_journal,
    truncate_to_valid_prefix,
)

#: Worker heartbeat cadence (a daemon thread stamps shared memory).
HEARTBEAT_INTERVAL_S = 0.25
#: A worker whose stamp is older than this is declared hung.
HEARTBEAT_TIMEOUT_S = 30.0
#: Supervisor poll cadence (result-queue wait per loop turn).
POLL_INTERVAL_S = 0.02


@dataclass(frozen=True)
class FleetConfig:
    """Supervision policy for one fleet run."""

    #: 1: run in process, in lockstep groups; more: a worker pool.
    n_workers: int = 1
    #: Hard wall-clock ceiling per cell: a chunk of k cells gets k times
    #: this, past which its worker is killed and its cells retried.
    cell_timeout_s: float = 120.0
    #: Re-dispatches allowed per cell after its first failure; past the
    #: budget the cell gets one final in-process serial attempt.
    max_retries_per_cell: int = 2
    #: Straggler threshold of a chunk of k cells: max(min_straggler_s,
    #: factor x median wall time of completed cells x k).  Speculation
    #: needs an idle worker.
    straggler_factor: float = 6.0
    min_straggler_s: float = 5.0
    speculative_execution: bool = True
    #: Worker restarts allowed pool-wide before the pool is declared
    #: collapsed and the campaign degrades to serial execution.
    max_worker_restarts: int = 8

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("fleet needs at least one worker")
        if self.cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if self.max_retries_per_cell < 0:
            raise ValueError("retry budget cannot be negative")
        if self.max_worker_restarts < 0:
            raise ValueError("restart budget cannot be negative")


@dataclass
class FleetRunReport:
    """Everything one supervised campaign run did and survived."""

    n_cells: int
    n_workers: int
    results: List[CellResult] = field(default_factory=list)
    cells_from_journal: int = 0
    journal_tail_dropped: int = 0
    journal_duplicates_dropped: int = 0
    retries: int = 0
    cell_errors: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    worker_timeouts: int = 0
    workers_restarted: int = 0
    #: Cells re-dispatched to an idle worker because their chunk
    #: straggled (each is one straggler detected).
    speculative_launches: int = 0
    duplicates_discarded: int = 0
    serial_fallback_cells: int = 0
    degraded_to_serial: bool = False
    dropped_messages: int = 0
    failed_cells: Tuple[str, ...] = ()
    #: cell_id -> last worker-side exception traceback, for every cell
    #: that errored at least once (failed cells keep theirs; cells that
    #: eventually completed carry it on ``CellResult.error`` instead).
    failure_details: Dict[str, str] = field(default_factory=dict)
    wall_s: float = 0.0
    journal_path: Optional[str] = None

    @property
    def lost_cells(self) -> int:
        """Cells the campaign never accounted for — must be zero."""
        return self.n_cells - len(self.results) - len(self.failed_cells)

    @property
    def duplicate_cells(self) -> int:
        """Cells counted more than once in the final accounting — zero
        by construction (speculative duplicates are discarded on
        arrival, journal duplicates on load)."""
        return len(self.results) - len({r.cell_id for r in self.results})

    @property
    def cells_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return len(self.results) / self.wall_s

    @property
    def ok(self) -> bool:
        return (
            not self.failed_cells
            and self.lost_cells == 0
            and self.duplicate_cells == 0
        )

    def raise_if_incomplete(self, campaign: str) -> None:
        """Raise ``RuntimeError`` unless every cell completed exactly once."""
        if not self.ok:
            raise RuntimeError(
                f"{campaign} incomplete: lost={self.lost_cells} "
                f"duplicates={self.duplicate_cells} "
                f"failed={list(self.failed_cells)}"
            )

    def summary(self) -> Dict[str, float]:
        """Flat numeric view (experiment rows, bench snapshots)."""
        return {
            "n_cells": float(self.n_cells),
            "completed": float(len(self.results)),
            "lost_cells": float(self.lost_cells),
            "duplicate_cells": float(self.duplicate_cells),
            "cells_from_journal": float(self.cells_from_journal),
            "retries": float(self.retries),
            "worker_crashes": float(self.worker_crashes),
            "worker_hangs": float(self.worker_hangs),
            "worker_timeouts": float(self.worker_timeouts),
            "workers_restarted": float(self.workers_restarted),
            "speculative_launches": float(self.speculative_launches),
            "duplicates_discarded": float(self.duplicates_discarded),
            "serial_fallback_cells": float(self.serial_fallback_cells),
            "degraded_to_serial": float(self.degraded_to_serial),
            "failed_cells": float(len(self.failed_cells)),
            "cells_per_s": self.cells_per_s,
            "wall_s": self.wall_s,
        }


# -- one lockstep group, split on failure --------------------------------------

#: A cell's outcome: its result, or the traceback of what it raised alone.
Outcome = Union[CellResult, str]


def chunk_size(n_pending: int, n_workers: int) -> int:
    """Cells per chunk when *n_pending* cells await *n_workers* live
    workers: an even share, so no worker idles while another holds a
    full chunk, and at most one lockstep group."""
    return min(LOCKSTEP_GROUP, math.ceil(n_pending / n_workers))


def _run_chunk(chunk: Sequence[CellSpec]) -> List[Outcome]:
    """Drive *chunk* as one lockstep group; if the group raises, re-run
    it one cell at a time, so only the culprit fails.

    Cells are pure, so the re-run gives every other cell of the group
    the result it would have had.  Outcomes come back in chunk order.
    The one split policy, shared by the in-process path and the
    workers.
    """
    try:
        return run_cells(chunk)
    except Exception:
        if len(chunk) == 1:
            return [traceback.format_exc(limit=8)]
    # Split outside the handler, so a cell's traceback does not chain
    # the group's.
    return [outcome for spec in chunk for outcome in _run_chunk([spec])]


# -- worker side ---------------------------------------------------------------


def _worker_main(
    worker_id: int,
    task_q,
    result_q,
    heartbeat,
    fault_plan: Optional[WorkerFaultPlan],
) -> None:
    """Worker loop: heartbeat thread + one chunk at a time.

    A chunk is a list of ``(spec, attempt)`` pairs.  The worker drives
    it through :func:`_run_chunk` — one ``drive_batch`` call unless the
    group raises — and sends one ``result`` or ``error`` message per
    cell.  Module-level (not a closure) so it pickles under any start
    method.  Injected delays and crashes fire in chunk order after the
    chunk is dequeued and before any of its cells runs: a crash makes
    the worker vanish mid-chunk with no result sent, exactly the failure
    the supervisor must absorb.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_INTERVAL_S)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        while True:
            chunk = task_q.get()
            if chunk is None:
                break
            if fault_plan is not None:
                for spec, attempt in chunk:
                    delay = fault_plan.delay_for(spec.cell_id, attempt)
                    if delay > 0.0:
                        time.sleep(delay)
                    if fault_plan.should_crash(spec.cell_id, attempt):
                        fault_plan.crash_now()
            outcomes = _run_chunk([spec for spec, _attempt in chunk])
            for (spec, attempt), outcome in zip(chunk, outcomes):
                kind = "result" if isinstance(outcome, CellResult) else "error"
                result_q.put((kind, worker_id, spec.cell_id, attempt, outcome))
    finally:
        stop.set()


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(
        self,
        ctx,
        worker_id: int,
        result_q,
        fault_plan: Optional[WorkerFaultPlan],
    ) -> None:
        self.id = worker_id
        self.task_q = ctx.Queue()
        self.heartbeat = ctx.Value("d", time.monotonic())
        #: cell id -> attempt, for each cell of the current chunk that
        #: the worker has not reported yet.
        self.chunk: Dict[str, int] = {}
        #: Cells in the current chunk when it was dispatched.
        self.size = 0
        self.dispatched_at = 0.0
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.task_q,
                result_q,
                self.heartbeat,
                fault_plan,
            ),
            daemon=True,
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def idle(self) -> bool:
        return not self.chunk

    def heartbeat_age_s(self, now: float) -> float:
        return now - float(self.heartbeat.value)

    def assign(self, chunk: List[Tuple[CellSpec, int]], now: float) -> None:
        self.chunk = {spec.cell_id: attempt for spec, attempt in chunk}
        self.size = len(chunk)
        self.dispatched_at = now
        self.task_q.put(chunk)

    def shutdown(self, timeout_s: float = 1.0) -> None:
        """Stop the worker.  An idle one gets the stop sentinel and
        *timeout_s* to exit; one still holding cells (a straggler or a
        speculative twin) is terminated at once, as nothing will read
        its results."""
        if self.idle:
            try:
                if self.alive:
                    self.task_q.put(None)
            except Exception:
                pass
            self.process.join(timeout_s)
        if self.alive:
            self.process.terminate()
            self.process.join(timeout_s)
        try:
            self.task_q.cancel_join_thread()
            self.task_q.close()
        except Exception:
            pass


# -- supervisor ----------------------------------------------------------------


@dataclass
class _CellState:
    """In-flight bookkeeping for one not-yet-completed cell."""

    spec: CellSpec
    dispatches: int = 0
    failures: int = 0
    workers: Set[int] = field(default_factory=set)
    speculated: bool = False


@dataclass
class _Ledger:
    """The per-cell accounting of one run.

    Every outcome, from the pool or in process, is recorded here, so a
    cell is counted, journaled and diagnosed once.
    """

    report: FleetRunReport
    journal: Optional[CampaignJournal] = None
    completed: Dict[str, CellResult] = field(default_factory=dict)
    failed: List[str] = field(default_factory=list)

    def settled(self, cell_id: str) -> bool:
        return cell_id in self.completed or cell_id in self.failed

    def accept(self, result: CellResult, attempt: int, worker: int) -> bool:
        """Record *result* unless its cell already completed (first
        result wins); returns whether it counted."""
        if result.cell_id in self.completed:
            self.report.duplicates_discarded += 1
            return False
        # A cell that errored on earlier attempts but completed here
        # carries the last traceback as diagnostic payload (it is
        # excluded from identity(), so bit-identity is unaffected).
        detail = self.report.failure_details.pop(result.cell_id, None)
        if detail is not None and result.error is None:
            result = dataclasses.replace(result, error=detail)
        self.completed[result.cell_id] = result
        if self.journal is not None:
            self.journal.append_cell(result, attempt=attempt, worker=worker)
        return True

    def fail(self, cell_id: str, detail: str) -> None:
        """Give *cell_id* up, keeping the traceback of its last attempt."""
        self.failed.append(cell_id)
        self.report.failure_details[cell_id] = detail


class FleetSupervisor:
    """Run a cell grid across a supervised worker pool."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()

    # -- public API ------------------------------------------------------------

    def run(
        self,
        specs: Sequence[CellSpec],
        journal_path: Optional[str] = None,
        fault_plan: Optional[WorkerFaultPlan] = None,
        meta: Optional[Dict] = None,
    ) -> FleetRunReport:
        """Execute every cell exactly once; resume from the journal.

        Results come back sorted by ``spec.index`` — the serial order —
        so downstream aggregation cannot observe worker scheduling.
        """
        specs = list(specs)
        ids = [spec.cell_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("cell ids must be unique within a campaign")
        signature = campaign_signature(specs)
        report = FleetRunReport(
            n_cells=len(specs),
            n_workers=self.config.n_workers,
            journal_path=journal_path,
        )
        started = time.perf_counter()
        ledger = _Ledger(report)
        if journal_path is not None:
            state = load_journal(journal_path)
            if state.header is not None:
                if state.campaign != signature:
                    raise ValueError(
                        f"journal {journal_path!r} belongs to campaign "
                        f"{state.campaign!r}, not {signature!r}; refusing "
                        "to mix histories"
                    )
                known = set(ids)
                for cell_id, result in state.results.items():
                    if cell_id in known:
                        ledger.completed[cell_id] = result
                report.cells_from_journal = len(ledger.completed)
                report.journal_tail_dropped = state.tail_dropped
                report.journal_duplicates_dropped = state.duplicates_dropped
                truncate_to_valid_prefix(state)
            ledger.journal = CampaignJournal(journal_path)
            if state.header is None:
                ledger.journal.write_header(signature, len(specs), meta)
        try:
            remaining = [s for s in specs if s.cell_id not in ledger.completed]
            if remaining:
                if self.config.n_workers == 1:
                    self._run_in_process(remaining, ledger)
                else:
                    self._run_pool(remaining, ledger, fault_plan)
        finally:
            if ledger.journal is not None:
                ledger.journal.close()
        report.failed_cells = tuple(ledger.failed)
        report.results = sorted(
            ledger.completed.values(), key=lambda result: result.index
        )
        report.wall_s = time.perf_counter() - started
        return report

    # -- in-process path (n_workers == 1 or pool collapse) -------------------

    def _run_in_process(
        self,
        specs: Sequence[CellSpec],
        ledger: _Ledger,
        attempts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Drive *specs* in lockstep groups through :func:`_run_chunk`.

        *attempts* numbers each cell's attempt in its journal record
        (default 0: the cell was never dispatched).
        """
        attempts = attempts or {}
        for group in lockstep_groups(specs):
            for spec, outcome in zip(group, _run_chunk(group)):
                if isinstance(outcome, str):
                    ledger.fail(spec.cell_id, outcome)
                    continue
                ledger.report.serial_fallback_cells += 1
                ledger.accept(
                    outcome, attempt=attempts.get(spec.cell_id, 0), worker=-1
                )

    # -- pool path --------------------------------------------------------------

    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        ledger: _Ledger,
        fault_plan: Optional[WorkerFaultPlan],
    ) -> None:
        config = self.config
        report = ledger.report
        try:
            method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else mp.get_start_method(allow_none=False)
            )
            ctx = mp.get_context(method)
        except Exception:
            # No usable multiprocessing: the pool never forms at all.
            report.degraded_to_serial = True
            self._run_in_process(specs, ledger)
            return

        result_q = ctx.Queue()
        spec_by_id = {spec.cell_id: spec for spec in specs}
        pending = deque(specs)
        cells: Dict[str, _CellState] = {}
        retry_queue: Deque[str] = deque()
        wall_times: List[float] = []
        restarts_left = config.max_worker_restarts
        next_worker_id = 0
        workers: Dict[int, _WorkerHandle] = {}

        def spawn_worker() -> None:
            nonlocal next_worker_id
            handle = _WorkerHandle(ctx, next_worker_id, result_q, fault_plan)
            workers[handle.id] = handle
            next_worker_id += 1

        def accept(result: CellResult, attempt: int, worker: int) -> None:
            if ledger.accept(result, attempt=attempt, worker=worker):
                wall_times.append(result.wall_s)
                cells.pop(result.cell_id, None)

        def schedule_retry(cell_id: str) -> None:
            """One dispatch of *cell_id* failed; retry, or fall back."""
            if ledger.settled(cell_id):
                return
            state = cells.get(cell_id)
            if state is None:
                return
            state.failures += 1
            if state.workers:
                # A speculative twin is still running; let it race.
                return
            if state.failures <= config.max_retries_per_cell:
                report.retries += 1
                retry_queue.append(cell_id)
                return
            # Retry budget spent: one final in-process attempt.
            cells.pop(cell_id, None)
            self._run_in_process(
                [state.spec], ledger, {cell_id: state.dispatches}
            )

        def fail_assignment(worker: _WorkerHandle) -> None:
            chunk, worker.chunk = worker.chunk, {}
            for cell_id in chunk:
                state = cells.get(cell_id)
                if state is not None:
                    state.workers.discard(worker.id)
                schedule_retry(cell_id)

        def straggler_threshold_s(size: int) -> float:
            if len(wall_times) >= 3:
                return max(
                    config.min_straggler_s,
                    config.straggler_factor
                    * statistics.median(wall_times)
                    * size,
                )
            return config.min_straggler_s

        def next_chunk(size: int) -> List[CellSpec]:
            """A queued retry, alone; else up to *size* pending cells."""
            while retry_queue:
                cell_id = retry_queue.popleft()
                if not ledger.settled(cell_id):
                    return [spec_by_id[cell_id]]
            chunk: List[CellSpec] = []
            while pending and len(chunk) < size:
                spec = pending.popleft()
                if spec.cell_id not in ledger.completed:
                    chunk.append(spec)
            return chunk

        def dispatch(
            worker: _WorkerHandle, chunk: List[CellSpec], now: float
        ) -> None:
            pairs = []
            for spec in chunk:
                state = cells.setdefault(spec.cell_id, _CellState(spec=spec))
                pairs.append((spec, state.dispatches))
                state.dispatches += 1
                state.workers.add(worker.id)
            worker.assign(pairs, now)

        def fill_idle(now: float) -> None:
            """Dispatch onto idle workers: a queued retry alone, else a
            chunk of pending cells, sized once per pass."""
            idle = [h for h in workers.values() if h.idle and h.alive]
            if not idle:
                return
            size = chunk_size(
                len(pending), sum(h.alive for h in workers.values())
            )
            for handle in idle:
                chunk = next_chunk(size)
                if not chunk:
                    break
                dispatch(handle, chunk, now)

        for _ in range(config.n_workers):
            spawn_worker()

        def outstanding() -> int:
            return sum(not ledger.settled(cell_id) for cell_id in spec_by_id)

        try:
            # The first chunks go out before the first wait on results.
            fill_idle(time.monotonic())
            while outstanding() > 0:
                now = time.monotonic()

                # 1. Drain completed work, one message per cell.
                try:
                    message = result_q.get(timeout=POLL_INTERVAL_S)
                except queue_mod.Empty:
                    message = None
                except Exception:
                    # A torn pipe from a dying worker; the cell itself is
                    # recovered by the liveness pass, so just count it.
                    report.dropped_messages += 1
                    message = None
                if message is not None:
                    kind, worker_id, cell_id, attempt, payload = message
                    handle = workers.get(worker_id)
                    if handle is not None and cell_id in handle.chunk:
                        del handle.chunk[cell_id]
                        state = cells.get(cell_id)
                        if state is not None:
                            state.workers.discard(worker_id)
                    if kind == "result":
                        accept(payload, attempt=attempt, worker=worker_id)
                    else:
                        report.cell_errors += 1
                        report.failure_details[cell_id] = payload
                        schedule_retry(cell_id)
                    continue  # drain eagerly before supervision passes

                now = time.monotonic()

                # 2. Liveness: dead processes, stale heartbeats, timeouts.
                for handle in list(workers.values()):
                    age_s = handle.heartbeat_age_s(now)
                    if not handle.alive:
                        report.worker_crashes += 1
                    elif age_s > HEARTBEAT_TIMEOUT_S:
                        report.worker_hangs += 1
                    elif (
                        not handle.idle
                        and now - handle.dispatched_at
                        > config.cell_timeout_s * handle.size
                    ):
                        report.worker_timeouts += 1
                    else:
                        continue
                    # Retire the worker: stop a live one before its cells
                    # are retried, then restart within the budget.
                    if handle.alive:
                        handle.process.terminate()
                        handle.process.join(0.5)
                    del workers[handle.id]
                    fail_assignment(handle)
                    handle.shutdown(timeout_s=0.1)
                    if restarts_left > 0:
                        restarts_left -= 1
                        report.workers_restarted += 1
                        spawn_worker()

                # 3. Pool collapse -> graceful degradation to serial.
                if not workers:
                    report.degraded_to_serial = True
                    leftovers = [
                        spec
                        for spec in specs
                        if not ledger.settled(spec.cell_id)
                    ]
                    self._run_in_process(
                        leftovers,
                        ledger,
                        {cell_id: s.dispatches for cell_id, s in cells.items()},
                    )
                    return

                # 4. Straggler speculation: a chunk past its threshold
                # sends its unfinished cells, as one chunk, to an idle
                # worker.  Counted per cell.
                if config.speculative_execution:
                    idle = [h for h in workers.values() if h.idle and h.alive]
                    for handle in list(workers.values()):
                        if not idle:
                            break
                        running_s = now - handle.dispatched_at
                        if handle.idle or running_s <= straggler_threshold_s(
                            handle.size
                        ):
                            continue
                        stragglers = [
                            cells[cell_id]
                            for cell_id in handle.chunk
                            if cell_id in cells
                            and not cells[cell_id].speculated
                        ]
                        if not stragglers:
                            continue
                        report.speculative_launches += len(stragglers)
                        for state in stragglers:
                            state.speculated = True
                        dispatch(
                            idle.pop(), [s.spec for s in stragglers], now
                        )

                # 5. Dispatch onto idle workers.
                fill_idle(now)
        finally:
            for handle in workers.values():
                handle.shutdown()
            try:
                result_q.cancel_join_thread()
                result_q.close()
            except Exception:
                pass
