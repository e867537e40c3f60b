"""Exact-arithmetic vectorized kernels for the batched multi-drive stepper.

The batched stepper (:mod:`repro.runtime.batched`) advances N concurrent
drives per tick by evaluating every drive's MPC candidate rollout in one
structure-of-arrays pass.  The speed comes from eliminating Python
bytecode, dataclass construction, and method dispatch across the
``drives x lanes x accels x horizon`` loop nest — **not** from changing
arithmetic: every kernel in this module replicates the scalar planner's
floating-point operations bit for bit, in the same order, so a batched
drive produces the identical :func:`~repro.testing.invariants.drive_fingerprint`.

Callers pass only what varies between vehicles: lane geometry as one
:class:`LaneBatch` (row ``i`` is lane ``i``, built by :func:`lane_batch`),
the :class:`~repro.vehicle.dynamics.BicycleModel`, and the pure-pursuit
lookahead.  The planner's horizon and cost weights are read from the
:class:`~repro.planning.mpc.MpcPlanner` class constants, and the ego
radius and safety margin from :mod:`repro.planning.collision`.

Three exactness rules, established empirically on this platform and
enforced by ``tests/runtime/test_kernels.py``:

* ``np.sin`` / ``np.cos`` / ``np.sqrt`` / ``np.fmod`` match their
  ``math`` counterparts bit for bit — safe to vectorize directly.
* ``np.hypot`` / ``np.arctan2`` / ``np.tan`` do **not** (they round
  differently from CPython's ``math`` in a fraction of cases).  Where
  the result feeds *values* into the trajectory (pure-pursuit geometry,
  the bicycle-model heading update), we evaluate ``math.hypot`` /
  ``math.atan2`` / ``math.tan`` element-wise via :func:`exact_hypot` /
  :func:`exact_atan2` / :func:`exact_tan`.
* Where a ``hypot`` feeds only a *comparison* (nearest-segment selection
  in lane progress, clearance-vs-margin in collision checking), we use
  fast ``np.hypot`` and re-evaluate exactly only the elements that land
  inside a guard band around the decision boundary (``np.hypot`` is
  within 1 ulp of ``math.hypot``, so a decision can only flip inside
  that band).  The band is ~1e3 ulps wide — conservatively larger than
  the rounding difference, still hit essentially never.

Order-sensitive reductions (the 15-term speed-error sum, sequential
segment walks) loop the small axis sequentially and vectorize across the
batch axis, so summation order per drive is identical to the scalar
path's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..planning.collision import EGO_RADIUS_M, SAFETY_MARGIN_M
from ..planning.mpc import MpcPlanner
from ..vehicle.dynamics import BicycleModel

#: The planner's horizon grid: ``MpcPlanner._rollout``'s step count and
#: its point times ``(k + 1) * dt``, the exact floats the scalar
#: trajectory carries.
HORIZON_STEPS = int(round(MpcPlanner.horizon_s / MpcPlanner.dt_s))
HORIZON_TIMES = tuple((k + 1) * MpcPlanner.dt_s for k in range(HORIZON_STEPS))

#: Relative half-width of the exactness guard band around comparison
#: boundaries.  ``np.hypot`` differs from ``math.hypot`` by at most
#: 1 ulp (~2.2e-16 relative); 1e-12 is ~4500x wider.
_BAND_REL = 1e-12


# -- exact element-wise transcendentals ----------------------------------------


def exact_hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot`` element-wise: bit-identical to the scalar path.

    ``np.hypot`` rounds differently from CPython's ``math.hypot`` in
    ~0.6% of cases, which would silently fork a batched trajectory from
    its scalar reference.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        shape = np.broadcast_shapes(a.shape, b.shape)
        a = np.broadcast_to(a, shape)
        b = np.broadcast_to(b, shape)
    shape = a.shape
    out = np.fromiter(
        map(math.hypot, a.ravel().tolist(), b.ravel().tolist()),
        dtype=np.float64,
        count=a.size,
    )
    return out.reshape(shape)


def exact_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` element-wise (``np.arctan2`` is not bit-equal)."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.shape != x.shape:
        shape = np.broadcast_shapes(y.shape, x.shape)
        y = np.broadcast_to(y, shape)
        x = np.broadcast_to(x, shape)
    shape = y.shape
    out = np.fromiter(
        map(math.atan2, y.ravel().tolist(), x.ravel().tolist()),
        dtype=np.float64,
        count=y.size,
    )
    return out.reshape(shape)


def exact_tan(a: np.ndarray) -> np.ndarray:
    """``math.tan`` element-wise (``np.tan`` is not bit-equal)."""
    a = np.asarray(a, dtype=np.float64)
    out = np.fromiter(
        map(math.tan, a.ravel().tolist()), dtype=np.float64, count=a.size
    )
    return out.reshape(a.shape)


# -- lane geometry in structure-of-arrays form ---------------------------------


@dataclass(frozen=True)
class LaneBatch:
    """Lane geometry as padded structure-of-arrays: row ``i`` is lane ``i``.

    Shapes are ``[B, S]`` (``B`` lanes, ``S`` padded segments) for the
    per-segment arrays and ``[B]`` for the endpoints.  All values are
    computed once with scalar ``math`` arithmetic (:func:`lane_batch`),
    so they are bit-identical to what the scalar planner recomputes
    every tick.  Zero-length padding segments are exact no-ops for both
    the progress walk (skipped, ``cum + 0.0``) and the point walk
    (``seg_len > 0`` guard fails, ``remaining - 0.0``).
    """

    #: Segment start points, deltas, lengths.
    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray
    #: ``seg_len ** 2`` per segment (the scalar's projection denominator);
    #: 1.0 where there is no segment, so masked rows never divide by 0.
    length_sq: np.ndarray
    #: Left-fold prefix sums of ``length`` (the scalar's ``cumulative``).
    cum: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    end_x: np.ndarray
    end_y: np.ndarray
    #: The source segment per row (scalar fallback for guard-band ties).
    segments: Tuple["object", ...]

    @property
    def width(self) -> int:
        return self.ax.shape[0]


def lane_batch(segments: Sequence) -> LaneBatch:
    """One :class:`LaneBatch` row per :class:`~repro.scene.lanes.LaneSegment`.

    Per-segment constants use the exact arithmetic of the scalar walks:
    ``math.hypot`` lengths, ``** 2`` squares, sequential ``+=`` prefix
    sums.  Rows are padded to the longest centerline.
    """
    if not segments:
        raise ValueError("need at least one lane")
    size = max(len(segment.centerline) - 1 for segment in segments)
    shape = (len(segments), size)
    ax = np.zeros(shape)
    ay = np.zeros(shape)
    dx = np.zeros(shape)
    dy = np.zeros(shape)
    length = np.zeros(shape)
    length_sq = np.ones(shape)
    cum = np.zeros(shape)
    for i, segment in enumerate(segments):
        pts = segment.centerline
        cumulative = 0.0
        for j in range(len(pts) - 1):
            (x0, y0), (x1, y1) = pts[j], pts[j + 1]
            ax[i, j], ay[i, j] = x0, y0
            dx[i, j], dy[i, j] = x1 - x0, y1 - y0
            seg_len = math.hypot(x1 - x0, y1 - y0)
            length[i, j] = seg_len
            length_sq[i, j] = seg_len ** 2 if seg_len > 0 else 1.0
            cum[i, j] = cumulative
            cumulative += seg_len
    return LaneBatch(
        ax=ax,
        ay=ay,
        dx=dx,
        dy=dy,
        length=length,
        length_sq=length_sq,
        cum=cum,
        start_x=np.array([s.centerline[0][0] for s in segments]),
        start_y=np.array([s.centerline[0][1] for s in segments]),
        end_x=np.array([s.centerline[-1][0] for s in segments]),
        end_y=np.array([s.centerline[-1][1] for s in segments]),
        segments=tuple(segments),
    )


# -- batched pure pursuit ------------------------------------------------------


def _scalar_lane_progress(segment, x: float, y: float) -> float:
    """The scalar planner's ``_lane_progress``, verbatim (guard-band
    fallback for near-tie nearest-segment selections)."""
    best_s, best_d = 0.0, float("inf")
    cumulative = 0.0
    for a, b in zip(segment.centerline, segment.centerline[1:]):
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        if seg_len == 0:
            continue
        t = max(
            0.0,
            min(
                1.0,
                ((x - a[0]) * (b[0] - a[0]) + (y - a[1]) * (b[1] - a[1]))
                / seg_len ** 2,
            ),
        )
        cx, cy = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        d = math.hypot(x - cx, y - cy)
        if d < best_d:
            best_d, best_s = d, cumulative + t * seg_len
        cumulative += seg_len
    return best_s


def lane_progress_batch(
    lanes: LaneBatch, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Vectorized ``MpcPlanner._lane_progress`` across ``B`` candidates.

    The projection parameter ``t`` and the winning arc-length
    ``cum + t * seg_len`` are exact element-wise arithmetic.  Only the
    nearest-segment *selection* distance uses fast ``np.hypot``;
    candidates whose best-vs-runner-up gap falls inside the guard band
    are re-evaluated with the scalar walk, so the selection can never
    diverge from the reference.
    """
    n_seg = lanes.ax.shape[1]
    # Single-segment lanes: the one real segment always wins the
    # selection (any finite d beats inf), so no distance is needed.
    proj = (x[:, None] - lanes.ax) * lanes.dx + (
        y[:, None] - lanes.ay
    ) * lanes.dy
    t = np.maximum(0.0, np.minimum(1.0, proj / lanes.length_sq))
    s_candidates = lanes.cum + t * lanes.length
    mask = lanes.length > 0
    if n_seg == 1:
        return np.where(mask[:, 0], s_candidates[:, 0], 0.0)
    cx = lanes.ax + t * lanes.dx
    cy = lanes.ay + t * lanes.dy
    d = np.hypot(x[:, None] - cx, y[:, None] - cy)
    d = np.where(mask, d, np.inf)
    best_s = np.zeros_like(x)
    best_d = np.full_like(x, np.inf)
    gap = np.full_like(x, np.inf)
    for j in range(n_seg):
        better = d[:, j] < best_d
        gap = np.where(better, best_d - d[:, j], np.minimum(gap, d[:, j] - best_d))
        best_d = np.where(better, d[:, j], best_d)
        best_s = np.where(better, s_candidates[:, j], best_s)
    # Guard band: a 1-ulp hypot difference can only flip a selection
    # whose winning margin is ~1 ulp; re-run those with scalar math.
    scale = np.maximum(1.0, best_d)
    near = np.isfinite(gap) & (gap <= _BAND_REL * scale)
    if np.any(near):
        for i in np.nonzero(near)[0]:
            best_s[i] = _scalar_lane_progress(
                lanes.segments[i], float(x[i]), float(y[i])
            )
    return best_s


def point_at_batch(lanes: LaneBatch, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``LaneSegment.point_at`` (the sequential clamped walk).

    Replicates the scalar early-return structure: the first segment with
    ``remaining <= seg_len and seg_len > 0`` wins; otherwise ``remaining``
    decreases by the segment length (a bitwise no-op for padding rows).
    """
    n_seg = lanes.ax.shape[1]
    px = lanes.end_x.copy()
    py = lanes.end_y.copy()
    at_start = s <= 0
    done = at_start.copy()
    px = np.where(at_start, lanes.start_x, px)
    py = np.where(at_start, lanes.start_y, py)
    remaining = s.copy()
    for j in range(n_seg):
        seg_len = lanes.length[:, j]
        hit = (~done) & (remaining <= seg_len) & (seg_len > 0)
        if np.any(hit):
            t = remaining / np.where(seg_len > 0, seg_len, 1.0)
            px = np.where(hit, lanes.ax[:, j] + t * lanes.dx[:, j], px)
            py = np.where(hit, lanes.ay[:, j] + t * lanes.dy[:, j], py)
            done |= hit
        remaining = np.where(done, remaining, remaining - seg_len)
    return px, py


def pure_pursuit_steer_batch(
    lanes: LaneBatch,
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    wheelbase_m: float,
    lookahead_m: float,
) -> np.ndarray:
    """Vectorized ``MpcPlanner._pure_pursuit_steer`` — exact trig.

    Every transcendental that feeds the steer *value* goes through the
    exact element-wise ``math`` calls; ``np.sin`` / ``np.cos`` are
    bit-equal to ``math.sin`` / ``math.cos`` and stay vectorized.
    """
    s = lane_progress_batch(lanes, x, y)
    tx, ty = point_at_batch(lanes, s + lookahead_m)
    dx = tx - x
    dy = ty - y
    alpha = exact_atan2(dy, dx) - heading
    alpha = exact_atan2(np.sin(alpha), np.cos(alpha))
    lookahead = np.maximum(exact_hypot(dx, dy), 1e-6)
    return exact_atan2((2.0 * wheelbase_m) * np.sin(alpha), lookahead)


# -- batched bicycle model -----------------------------------------------------


def bicycle_step_batch(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    steer: np.ndarray,
    accel_clamped: np.ndarray,
    model: BicycleModel,
    dt_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``model.step`` (accel pre-clamped, steer raw).

    Operation order matches the scalar update exactly: speed integrate,
    clamp to ``[0, max_speed]``, trapezoidal average, heading update via
    ``(avg / wb * tan(steer)) * dt``, position via ``(avg * cos(h)) * dt``,
    angle wrap through ``fmod``.
    """
    max_steer_rad = model.max_steer_rad
    steer_c = np.maximum(-max_steer_rad, np.minimum(max_steer_rad, steer))
    new_speed = speed + accel_clamped * dt_s
    new_speed = np.maximum(0.0, np.minimum(model.max_speed_mps, new_speed))
    avg_speed = 0.5 * (speed + new_speed)
    new_heading = heading + (
        avg_speed / model.wheelbase_m * exact_tan(steer_c) * dt_s
    )
    new_x = x + avg_speed * np.cos(heading) * dt_s
    new_y = y + avg_speed * np.sin(heading) * dt_s
    wrapped = np.fmod(new_heading + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped)
    return new_x, new_y, wrapped - math.pi, new_speed


def rollout_batch(
    lanes: LaneBatch,
    x0: np.ndarray,
    y0: np.ndarray,
    heading0: np.ndarray,
    speed0: np.ndarray,
    accel: np.ndarray,
    model: BicycleModel,
    lookahead_m: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``MpcPlanner._rollout`` across ``B`` candidates.

    Returns ``(tx, ty, tspeed, steer0)``: the per-candidate trajectory
    arrays, shape ``[B, HORIZON_STEPS]``, plus the first-step
    pure-pursuit steer (bit-equal to the scalar planner's command steer
    for the winning candidate's lane, since both are evaluated at the
    pre-rollout state).
    """
    b = x0.shape[0]
    steps = HORIZON_STEPS
    tx = np.empty((b, steps))
    ty = np.empty((b, steps))
    tspeed = np.empty((b, steps))
    accel_c = np.maximum(
        -model.max_decel_mps2, np.minimum(model.max_accel_mps2, accel)
    )
    x, y, heading, speed = x0, y0, heading0, speed0
    steer0: Optional[np.ndarray] = None
    for k in range(steps):
        steer = pure_pursuit_steer_batch(
            lanes, x, y, heading, model.wheelbase_m, lookahead_m=lookahead_m
        )
        if k == 0:
            steer0 = steer
        x, y, heading, speed = bicycle_step_batch(
            x, y, heading, speed, steer, accel_c, model, MpcPlanner.dt_s
        )
        tx[:, k] = x
        ty[:, k] = y
        tspeed[:, k] = speed
    assert steer0 is not None
    return tx, ty, tspeed, steer0


# -- batched collision check ---------------------------------------------------


def collision_batch(
    tx: np.ndarray,
    ty: np.ndarray,
    times: Sequence[float],
    obs_x: np.ndarray,
    obs_y: np.ndarray,
    obs_r: np.ndarray,
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    pred_r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``check_trajectory`` verdicts across ``B`` candidates.

    Inputs: trajectories ``tx/ty [B, T]`` with point times ``times``
    (the exact ``(k+1)*dt`` floats); static obstacles ``obs_* [B, O]``;
    horizon-aligned predictions ``pred_* [B, T, P]`` (entry ``[_, k, :]``
    holds the predictions whose timestamps match point ``k`` — the
    caller asserts the alignment).  Pad with far-away dummies
    (:data:`PAD_XY`), which can never violate the margin.

    Returns ``(collides, first_collision_time)`` with the time 0.0 for
    non-colliding candidates (the scalar cost's ``ttc or 0.0``).  The
    verdict is the *first* violating (point, obstacle-then-prediction)
    pair in scalar visit order; clearances near the margin are
    re-evaluated with ``math.hypot`` so the verdict cannot flip on a
    1-ulp ``np.hypot`` difference.
    """
    b, t = tx.shape
    n_obs = obs_x.shape[1]
    n_pred = pred_x.shape[2]
    per_point = n_obs + n_pred
    if per_point == 0:
        zeros = np.zeros(b)
        return np.zeros(b, dtype=bool), zeros
    clear_obs = (
        np.hypot(tx[:, :, None] - obs_x[:, None, :], ty[:, :, None] - obs_y[:, None, :])
        - obs_r[:, None, :]
        - EGO_RADIUS_M
    )
    clear_pred = (
        np.hypot(tx[:, :, None] - pred_x, ty[:, :, None] - pred_y)
        - pred_r
        - EGO_RADIUS_M
    )
    clearance = np.concatenate([clear_obs, clear_pred], axis=2)
    # Guard band: re-evaluate near-margin pairs with the scalar hypot.
    near = np.abs(clearance - SAFETY_MARGIN_M) <= _BAND_REL * np.maximum(
        1.0, np.abs(clearance)
    )
    if np.any(near):
        for bi, ki, pi in zip(*np.nonzero(near)):
            if pi < n_obs:
                ex = float(obs_x[bi, pi])
                ey = float(obs_y[bi, pi])
                er = float(obs_r[bi, pi])
            else:
                ex = float(pred_x[bi, ki, pi - n_obs])
                ey = float(pred_y[bi, ki, pi - n_obs])
                er = float(pred_r[bi, ki, pi - n_obs])
            clearance[bi, ki, pi] = (
                math.hypot(float(tx[bi, ki]) - ex, float(ty[bi, ki]) - ey)
                - er
                - EGO_RADIUS_M
            )
    flat = clearance.reshape(b, t * per_point)
    violates = flat < SAFETY_MARGIN_M
    collides = violates.any(axis=1)
    first = np.argmax(violates, axis=1)
    point_idx = first // per_point
    times_arr = np.asarray(times, dtype=np.float64)
    ttc = np.where(collides, times_arr[point_idx], 0.0)
    return collides, ttc


#: Far-away padding coordinates for ragged obstacle / prediction batches.
PAD_XY = 1e9


# -- batched candidate cost ----------------------------------------------------


def cost_batch(
    tx: np.ndarray,
    tspeed: np.ndarray,
    accel: np.ndarray,
    is_lane_change: np.ndarray,
    collides: np.ndarray,
    ttc: np.ndarray,
) -> np.ndarray:
    """Vectorized ``MpcPlanner._cost`` across ``B`` candidates.

    The speed-error reduction loops the horizon axis sequentially
    (Python ``sum`` order); everything else is element-wise in the
    scalar expression order.
    """
    mpc = MpcPlanner
    steps = tspeed.shape[1]
    progress = tx[:, -1] - tx[:, 0]
    speed_error = np.zeros(tx.shape[0])
    for k in range(steps):
        speed_error = speed_error + (tspeed[:, k] - mpc.target_speed_mps) ** 2
    speed_error = speed_error / steps
    colliding_cost = (
        mpc.collision_cost
        - 100.0 * ttc
        + 10.0 * (accel + BicycleModel.max_decel_mps2)
    )
    nominal_cost = (
        -mpc.progress_weight * progress
        + mpc.comfort_weight * np.abs(accel)
        + mpc.speed_error_weight * speed_error
        + np.where(is_lane_change, mpc.lane_change_penalty, 0.0)
    )
    return np.where(collides, colliding_cost, nominal_cost)
