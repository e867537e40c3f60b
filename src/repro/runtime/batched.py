"""Structure-of-arrays batched multi-drive stepper.

Advances N concurrent closed-loop drives in lockstep, answering each
control tick's planning work for the *whole fleet* with one vectorized
pass over ``drives x candidate-lanes x accel-candidates`` instead of
N independent Python loop nests.  The sequencing building blocks are the
scalar loop's own :class:`~repro.runtime.sov.DriveLoop` /
``_proactive_pre`` / ``_proactive_post`` halves, so nothing outside the
planner call is re-implemented — and the planner call itself is answered
by the exact-arithmetic kernels of :mod:`repro.runtime.kernels` over
geometry precomputed in :mod:`repro.scene.cache`.

**Equivalence contract.**  For every drive, the batched stepper produces
a bit-identical :func:`~repro.testing.invariants.drive_fingerprint` to
``sov.drive(duration)``.  Three properties make that possible:

* Drives are mutually independent: each ``SystemsOnAVehicle`` owns its
  RNG, world, CAN bus, and supervisor, so interleaving steps *between*
  drives cannot perturb any one drive's stream.
* The vectorized planner replicates the scalar planner's floating-point
  arithmetic operation for operation (see :mod:`repro.runtime.kernels`);
  candidate enumeration order, tie-breaks, and the emergency path are
  reproduced structurally.
* Requests the fast path does not cover fall back to the scalar
  ``planner.plan`` for that request only: a planner that is not exactly
  an :class:`~repro.planning.mpc.MpcPlanner` over a
  :class:`~repro.vehicle.dynamics.BicycleModel`, and a prediction list
  that is not on the planner's ``(k+1)*dt`` horizon grid.  An off-map
  state gets the scalar planner's emergency stop directly.  Fallbacks
  trade speed for certainty, never correctness.

The differential harness (:mod:`repro.testing.differential`) enforces
the contract over the full scenario x seed x fault matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..planning.mpc import MpcPlanner
from ..scene.cache import SceneCache, cache_for
from ..vehicle.dynamics import BicycleModel, ControlCommand
from . import kernels
from .sov import DriveLoop, DriveResult, PlanRequest, SystemsOnAVehicle


@dataclass
class _Entry:
    """One fast-path planning request within a group."""

    request: PlanRequest
    planner: MpcPlanner
    cache: SceneCache
    candidate_sids: Tuple[str, ...]
    current_sid: str
    pred_count: int
    command: Optional[ControlCommand] = None


def _prediction_block_count(predictions: Sequence) -> Optional[int]:
    """Objects-per-block if *predictions* lie exactly on the horizon
    grid (block ``k`` == trajectory point ``k``'s timestamp, bitwise);
    None means the fast path must not assume the alignment.

    Pairing block ``k`` with point ``k`` is what ``check_trajectory``'s
    time-window scan does, because the grid step ``MpcPlanner.dt_s``
    is wider than 1.5x :data:`~repro.planning.collision.TIME_TOLERANCE_S`:
    no other grid instant falls inside a point's window.
    """
    n = len(predictions)
    if n == 0:
        return 0
    steps = kernels.HORIZON_STEPS
    if n % steps:
        return None
    per_block = n // steps
    for b, t in enumerate(kernels.HORIZON_TIMES):
        base = b * per_block
        for j in range(per_block):
            if predictions[base + j].time_s != t:
                return None
    return per_block


def plan_requests(
    items: Sequence[Tuple[SystemsOnAVehicle, PlanRequest]]
) -> List[ControlCommand]:
    """Answer a round of plan requests, vectorizing where provably exact.

    Returns the post-clamp command for each request — exactly what
    ``planner.plan(...).command`` would have produced.  Fast-path
    requests are solved in one vectorized pass per (model, lookahead)
    pair, the only planner settings that vary.
    """
    commands: List[Optional[ControlCommand]] = [None] * len(items)
    groups: Dict[Tuple, List[Tuple[int, _Entry]]] = {}
    for idx, (sov, request) in enumerate(items):
        planner = sov.planner
        fast = (
            type(planner) is MpcPlanner
            and type(planner.model) is BicycleModel
        )
        if not fast:
            commands[idx] = _scalar_plan(planner, request)
            continue
        current = planner.lane_map.locate(
            request.state.x_m, request.state.y_m
        )
        if current is None:
            # Off-map: the scalar planner's emergency stop, verbatim
            # (note: deliberately *not* clamped, matching _emergency_plan).
            commands[idx] = ControlCommand(
                steer_rad=0.0,
                accel_mps2=-planner.model.max_decel_mps2,
                timestamp_s=request.now_s,
                source="proactive",
            )
            continue
        pred_count = _prediction_block_count(request.predictions)
        if pred_count is None:
            commands[idx] = _scalar_plan(planner, request)
            continue
        cache = cache_for(planner.lane_map)
        entry = _Entry(
            request=request,
            planner=planner,
            cache=cache,
            candidate_sids=cache.candidates_of[current],
            current_sid=current,
            pred_count=pred_count,
        )
        groups.setdefault((planner.model, planner.lookahead_m), []).append(
            (idx, entry)
        )
    for group in groups.values():
        _solve_group([entry for _idx, entry in group])
        for idx, entry in group:
            commands[idx] = entry.command
    assert all(c is not None for c in commands)
    return commands  # type: ignore[return-value]


def _scalar_plan(planner, request: PlanRequest) -> ControlCommand:
    return planner.plan(
        request.state,
        predictions=request.predictions,
        static_obstacles=request.obstacles,
        now_s=request.now_s,
    ).command


def _gather_lanes(
    per_entry: List[Tuple[SceneCache, np.ndarray]]
) -> kernels.LaneBatch:
    """One cross-scene LaneBatch: the given rows of each entry's
    ``cache.lanes``, padded to the group's widest row."""
    smax = max(cache.lanes.ax.shape[1] for cache, _ in per_entry)

    def cat(attr: str, fill: float = 0.0) -> np.ndarray:
        parts = []
        for cache, idx in per_entry:
            block = getattr(cache.lanes, attr)[idx]
            if block.shape[1] < smax:
                padded = np.full((block.shape[0], smax), fill)
                padded[:, : block.shape[1]] = block
                block = padded
            parts.append(block)
        return np.concatenate(parts)

    def cat1(attr: str) -> np.ndarray:
        return np.concatenate(
            [getattr(cache.lanes, attr)[idx] for cache, idx in per_entry]
        )

    segments: List[object] = []
    for cache, idx in per_entry:
        segments.extend(cache.lanes.segments[i] for i in idx)
    return kernels.LaneBatch(
        ax=cat("ax"),
        ay=cat("ay"),
        dx=cat("dx"),
        dy=cat("dy"),
        length=cat("length"),
        length_sq=cat("length_sq", fill=1.0),
        cum=cat("cum"),
        start_x=cat1("start_x"),
        start_y=cat1("start_y"),
        end_x=cat1("end_x"),
        end_y=cat1("end_y"),
        segments=tuple(segments),
    )


def _solve_group(entries: List[_Entry]) -> None:
    """One vectorized planning pass over every candidate of every entry."""
    planner = entries[0].planner
    accels = MpcPlanner.accel_candidates
    n_accels = len(accels)
    steps = kernels.HORIZON_STEPS

    # -- candidate rows: lane-major, accel-minor, entries in order ---------
    accel_tile = np.array(accels)
    per_entry_lanes: List[Tuple[SceneCache, np.ndarray]] = []
    row_counts: List[int] = []
    states = np.empty((len(entries), 4))
    accel_parts: List[np.ndarray] = []
    change_rows: List[bool] = []
    for e_i, entry in enumerate(entries):
        cands = entry.candidate_sids
        lane_idx = np.fromiter(
            (entry.cache.row_of[s] for s in cands),
            dtype=np.intp,
            count=len(cands),
        )
        per_entry_lanes.append((entry.cache, np.repeat(lane_idx, n_accels)))
        n_rows = len(cands) * n_accels
        row_counts.append(n_rows)
        state = entry.request.state
        states[e_i] = (
            state.x_m, state.y_m, state.heading_rad, state.speed_mps
        )
        accel_parts.append(np.tile(accel_tile, len(cands)))
        for sid in cands:
            change_rows.extend([sid != entry.current_sid] * n_accels)
    lanes = _gather_lanes(per_entry_lanes)
    accel = np.concatenate(accel_parts)
    counts = np.array(row_counts)
    x0 = np.repeat(states[:, 0], counts)
    y0 = np.repeat(states[:, 1], counts)
    h0 = np.repeat(states[:, 2], counts)
    v0 = np.repeat(states[:, 3], counts)
    total_rows = lanes.width

    tx, ty, tspeed, steer0 = kernels.rollout_batch(
        lanes, x0, y0, h0, v0, accel, planner.model, planner.lookahead_m
    )

    # -- obstacles / predictions, padded ragged across entries -------------
    max_obs = max(len(e.request.obstacles) for e in entries)
    max_pred = max(e.pred_count for e in entries)
    obs_x = np.full((total_rows, max_obs), kernels.PAD_XY)
    obs_y = np.full((total_rows, max_obs), kernels.PAD_XY)
    obs_r = np.zeros((total_rows, max_obs))
    pred_x = np.full((total_rows, steps, max_pred), kernels.PAD_XY)
    pred_y = np.full((total_rows, steps, max_pred), kernels.PAD_XY)
    pred_r = np.zeros((total_rows, steps, max_pred))
    row0 = 0
    for entry, n_rows in zip(entries, row_counts):
        rows = slice(row0, row0 + n_rows)
        obstacles = entry.request.obstacles
        for j, obstacle in enumerate(obstacles):
            obs_x[rows, j] = obstacle.x_m
            obs_y[rows, j] = obstacle.y_m
            obs_r[rows, j] = obstacle.radius_m
        p = entry.pred_count
        if p:
            preds = entry.request.predictions
            px = np.array([s.x_m for s in preds]).reshape(steps, p)
            py = np.array([s.y_m for s in preds]).reshape(steps, p)
            pr = np.array([s.radius_m for s in preds]).reshape(steps, p)
            pred_x[rows, :, :p] = px
            pred_y[rows, :, :p] = py
            pred_r[rows, :, :p] = pr
        row0 += n_rows

    collides, ttc = kernels.collision_batch(
        tx, ty, kernels.HORIZON_TIMES,
        obs_x, obs_y, obs_r, pred_x, pred_y, pred_r,
    )
    costs = kernels.cost_batch(
        tx, tspeed, accel, np.array(change_rows), collides, ttc
    )

    # -- per-entry selection: first minimum, rows in candidate order -------
    row0 = 0
    for entry, n_rows in zip(entries, row_counts):
        local = int(np.argmin(costs[row0 : row0 + n_rows]))
        best_row = row0 + local
        best_accel = accels[local % n_accels]
        command = ControlCommand(
            steer_rad=float(steer0[best_row]),
            accel_mps2=best_accel,
            timestamp_s=entry.request.now_s,
            source="proactive",
        )
        entry.command = entry.planner.model.clamp(command)
        row0 += n_rows


class BatchedStepper:
    """Lockstep driver for N concurrent drives.

    ``run()`` makes one round per control period: it opens every active
    drive's control tick, answers the ticks that need planning with one
    :func:`plan_requests` call, then runs each drive's physics sub-steps
    up to its next tick (``finish_step`` then ``finish_period``).
    Finished drives retire with their
    :class:`~repro.runtime.sov.DriveResult`; the rest keep stepping, so
    heterogeneous durations waste no work.
    """

    def __init__(
        self,
        sovs: Sequence[SystemsOnAVehicle],
        durations_s: Sequence[float],
    ) -> None:
        if len(sovs) != len(durations_s):
            raise ValueError("one duration per drive required")
        if not sovs:
            raise ValueError("need at least one drive")
        self._loops = [
            DriveLoop(sov, duration)
            for sov, duration in zip(sovs, durations_s)
        ]

    def run(self) -> List[DriveResult]:
        loops = self._loops
        results: List[Optional[DriveResult]] = [None] * len(loops)
        active = [i for i, loop in enumerate(loops) if not loop.done]
        for i, loop in enumerate(loops):
            if loop.done:
                results[i] = loop.finalize()
        while active:
            pending: List[Tuple[int, PlanRequest]] = []
            for i in active:
                request = loops[i].begin_step()
                if request is not None:
                    pending.append((i, request))
            if pending:
                answered = plan_requests(
                    [(loops[i].sov, request) for i, request in pending]
                )
                for (i, request), command in zip(pending, answered):
                    loops[i].sov._proactive_post(request, command)
            still_active = []
            for i in active:
                loop = loops[i]
                loop.finish_step()
                loop.finish_period()
                if loop.done:
                    results[i] = loop.finalize()
                else:
                    still_active.append(i)
            active = still_active
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]


def drive_batch(
    sovs: Sequence[SystemsOnAVehicle], durations_s: Sequence[float]
) -> List[DriveResult]:
    """Drive N independent SoVs to completion with batched planning."""
    return BatchedStepper(sovs, durations_s).run()
