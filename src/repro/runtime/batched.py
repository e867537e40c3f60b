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
from ..scene.cache import CandidateRows, SceneCache, cache_for, packed_lanes
from ..vehicle.dynamics import BicycleModel, ControlCommand
from . import kernels
from .sov import DriveLoop, DriveResult, PlanRequest, SystemsOnAVehicle


@dataclass
class _Entry:
    """One fast-path planning request within a group."""

    request: PlanRequest
    planner: MpcPlanner
    cache: SceneCache
    rows: CandidateRows
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
            rows=cache.rows_of[current],
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


def _solve_group(entries: List[_Entry]) -> None:
    """One vectorized planning pass over every candidate of every entry.

    Rows are the entries' :class:`~repro.scene.cache.CandidateRows` in
    turn; their lanes are one fancy index into the packed lanes of the
    round's scenes, and each entry's obstacles and predictions are one
    array, spread over its rows.
    """
    planner = entries[0].planner
    accels = MpcPlanner.accel_candidates
    n_accels = len(accels)
    steps = kernels.HORIZON_STEPS
    n = len(entries)

    # -- candidate rows: entries in order, each lane-major, accel-minor ----
    table, offsets = packed_lanes(e.cache for e in entries)
    counts = np.array([len(e.rows.lanes) for e in entries])
    lane_rows = np.concatenate([e.rows.lanes for e in entries]) + np.repeat(
        [offsets[e.cache] for e in entries], counts
    )
    lanes = table.take(lane_rows)
    accel = np.concatenate([e.rows.accel for e in entries])
    change = np.concatenate([e.rows.change for e in entries])
    states = np.array(
        [
            (s.x_m, s.y_m, s.heading_rad, s.speed_mps)
            for s in (e.request.state for e in entries)
        ]
    )
    x0, y0, h0, v0 = np.repeat(states.T, counts, axis=1)

    tx, ty, tspeed, steer0 = kernels.rollout_batch(
        lanes, x0, y0, h0, v0, accel, planner.model, planner.lookahead_m
    )

    # -- obstacles / predictions: (x, y, radius), padded per entry ---------
    max_obs = max(len(e.request.obstacles) for e in entries)
    max_pred = max(e.pred_count for e in entries)
    obs = np.zeros((3, n, max_obs))
    obs[:2] = kernels.PAD_XY
    pred = np.zeros((3, n, steps, max_pred))
    pred[:2] = kernels.PAD_XY
    for i, entry in enumerate(entries):
        obstacles = entry.request.obstacles
        if obstacles:
            obs[:, i, : len(obstacles)] = np.array(
                [(o.x_m, o.y_m, o.radius_m) for o in obstacles]
            ).T
        p = entry.pred_count
        if p:
            pred[:, i, :, :p] = (
                np.array(
                    [(s.x_m, s.y_m, s.radius_m) for s in entry.request.predictions]
                )
                .T.reshape(3, steps, p)
            )
    obs_x, obs_y, obs_r = np.repeat(obs, counts, axis=1)
    pred_x, pred_y, pred_r = np.repeat(pred, counts, axis=1)

    collides, ttc = kernels.collision_batch(
        tx, ty, kernels.HORIZON_TIMES,
        obs_x, obs_y, obs_r, pred_x, pred_y, pred_r,
    )
    costs = kernels.cost_batch(tx, tspeed, accel, change, collides, ttc)

    # -- per-entry selection: first minimum, rows in candidate order -------
    width = int(counts.max())
    padded = np.full((n, width), np.inf)
    padded[np.arange(width) < counts[:, None]] = costs
    local = padded.argmin(axis=1)
    best = (np.cumsum(counts) - counts + local).tolist()
    steers = steer0[best].tolist()
    for entry, column, steer in zip(entries, local.tolist(), steers):
        command = ControlCommand(
            steer_rad=steer,
            accel_mps2=accels[column % n_accels],
            timestamp_s=entry.request.now_s,
            source="proactive",
        )
        entry.command = entry.planner.model.clamp(command)


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
