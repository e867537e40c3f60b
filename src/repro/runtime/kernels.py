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
from typing import Callable, Optional, Sequence, Tuple

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


def _exact1(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """*fn* (a ``math`` function) over a 1-D float array, element-wise."""
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64, count=a.size)


def _exact2(
    fn: Callable[[float, float], float], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """*fn* over two 1-D float arrays of one length, element-wise."""
    return np.fromiter(
        map(fn, a.tolist(), b.tolist()), dtype=np.float64, count=a.size
    )


def _broadcast2(
    fn: Callable[[float, float], float], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """:func:`_exact2` over arrays of any broadcastable shapes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        shape = np.broadcast_shapes(a.shape, b.shape)
        a = np.broadcast_to(a, shape)
        b = np.broadcast_to(b, shape)
    return _exact2(fn, a.ravel(), b.ravel()).reshape(a.shape)


def exact_hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot`` element-wise: bit-identical to the scalar path.

    ``np.hypot`` rounds differently from CPython's ``math.hypot`` in
    ~0.6% of cases, which would silently fork a batched trajectory from
    its scalar reference.
    """
    return _broadcast2(math.hypot, a, b)


def exact_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` element-wise (``np.arctan2`` is not bit-equal)."""
    return _broadcast2(math.atan2, y, x)


def exact_tan(a: np.ndarray) -> np.ndarray:
    """``math.tan`` element-wise (``np.tan`` is not bit-equal)."""
    a = np.asarray(a, dtype=np.float64)
    return _exact1(math.tan, a.ravel()).reshape(a.shape)


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
    #: The source segment per row (scalar fallback for guard-band ties):
    #: a tuple, or an object array in a packed table.
    segments: Sequence["object"]

    @property
    def width(self) -> int:
        return self.ax.shape[0]

    def take(self, rows: np.ndarray) -> "LaneBatch":
        """The lanes in rows *rows*, in that order: one fancy index per
        array."""
        return LaneBatch(
            ax=self.ax[rows],
            ay=self.ay[rows],
            dx=self.dx[rows],
            dy=self.dy[rows],
            length=self.length[rows],
            length_sq=self.length_sq[rows],
            cum=self.cum[rows],
            start_x=self.start_x[rows],
            start_y=self.start_y[rows],
            end_x=self.end_x[rows],
            end_y=self.end_y[rows],
            segments=np.asarray(self.segments, dtype=object)[rows],
        )


def pack_lanes(batches: Sequence[LaneBatch]) -> LaneBatch:
    """*batches* stacked into one table, each padded to the widest with
    zero-length segments (``length_sq`` 1.0), which both lane walks
    pass over exactly."""
    size = max(batch.ax.shape[1] for batch in batches)

    def stack(attr: str, fill: float = 0.0) -> np.ndarray:
        parts = []
        for batch in batches:
            block = getattr(batch, attr)
            if block.shape[1] < size:
                padded = np.full((block.shape[0], size), fill)
                padded[:, : block.shape[1]] = block
                block = padded
            parts.append(block)
        return np.concatenate(parts)

    segments = [segment for batch in batches for segment in batch.segments]
    table = np.empty(len(segments), dtype=object)
    for i, segment in enumerate(segments):
        table[i] = segment
    return LaneBatch(
        ax=stack("ax"),
        ay=stack("ay"),
        dx=stack("dx"),
        dy=stack("dy"),
        length=stack("length"),
        length_sq=stack("length_sq", fill=1.0),
        cum=stack("cum"),
        start_x=np.concatenate([batch.start_x for batch in batches]),
        start_y=np.concatenate([batch.start_y for batch in batches]),
        end_x=np.concatenate([batch.end_x for batch in batches]),
        end_y=np.concatenate([batch.end_y for batch in batches]),
        segments=table,
    )


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


class _LaneWalk:
    """A :class:`LaneBatch`'s per-rollout invariants: the columns, masks
    and divisors every horizon step of the lane walks reads and none
    changes, taken once per rollout instead of once per step."""

    def __init__(self, lanes: LaneBatch) -> None:
        self.lanes = lanes
        self.n_seg = lanes.ax.shape[1]
        length = lanes.length
        self.mask = length > 0
        #: Per segment column: its length, whether it is a real
        #: segment, the length as a safe divisor, start and delta.
        self.columns = tuple(
            (
                length[:, j],
                self.mask[:, j],
                np.where(self.mask[:, j], length[:, j], 1.0),
                lanes.ax[:, j],
                lanes.ay[:, j],
                lanes.dx[:, j],
                lanes.dy[:, j],
            )
            for j in range(self.n_seg)
        )

    def progress(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized ``MpcPlanner._lane_progress`` across ``B`` rows.

        The projection parameter ``t`` and the winning arc-length
        ``cum + t * seg_len`` are exact element-wise arithmetic.  Only the
        nearest-segment *selection* distance uses fast ``np.hypot``;
        rows whose best-vs-runner-up gap falls inside the guard band
        are re-evaluated with the scalar walk, so the selection can never
        diverge from the reference.
        """
        lanes = self.lanes
        if self.n_seg == 1:
            # Single-segment lanes: the one real segment always wins the
            # selection (any finite d beats inf), so no distance is
            # needed; the same element operations on the one column.
            length, real, _safe, ax, ay, dx, dy = self.columns[0]
            proj = (x - ax) * dx + (y - ay) * dy
            t = np.maximum(0.0, np.minimum(1.0, proj / lanes.length_sq[:, 0]))
            return np.where(real, lanes.cum[:, 0] + t * length, 0.0)
        proj = (x[:, None] - lanes.ax) * lanes.dx + (
            y[:, None] - lanes.ay
        ) * lanes.dy
        t = np.maximum(0.0, np.minimum(1.0, proj / lanes.length_sq))
        s_candidates = lanes.cum + t * lanes.length
        cx = lanes.ax + t * lanes.dx
        cy = lanes.ay + t * lanes.dy
        d = np.hypot(x[:, None] - cx, y[:, None] - cy)
        d = np.where(self.mask, d, np.inf)
        best_s = np.zeros_like(x)
        best_d = np.full_like(x, np.inf)
        gap = np.full_like(x, np.inf)
        for j in range(self.n_seg):
            better = d[:, j] < best_d
            gap = np.where(
                better, best_d - d[:, j], np.minimum(gap, d[:, j] - best_d)
            )
            best_d = np.where(better, d[:, j], best_d)
            best_s = np.where(better, s_candidates[:, j], best_s)
        # Guard band: a 1-ulp hypot difference can only flip a selection
        # whose winning margin is ~1 ulp; re-run those with scalar math.
        scale = np.maximum(1.0, best_d)
        near = np.isfinite(gap) & (gap <= _BAND_REL * scale)
        if near.any():
            for i in np.nonzero(near)[0]:
                best_s[i] = _scalar_lane_progress(
                    lanes.segments[i], float(x[i]), float(y[i])
                )
        return best_s

    def point_at(self, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``LaneSegment.point_at`` (the sequential clamped walk).

        Replicates the scalar early-return structure: the first segment
        with ``remaining <= seg_len and seg_len > 0`` wins; otherwise
        ``remaining`` decreases by the segment length (a bitwise no-op
        for padding rows).
        """
        lanes = self.lanes
        at_start = s <= 0
        px = np.where(at_start, lanes.start_x, lanes.end_x)
        py = np.where(at_start, lanes.start_y, lanes.end_y)
        done = at_start
        remaining = s
        last = self.n_seg - 1
        for j, (length, real, safe, ax, ay, dx, dy) in enumerate(
            self.columns
        ):
            hit = ~done & (remaining <= length) & real
            if hit.any():
                t = remaining / safe
                px = np.where(hit, ax + t * dx, px)
                py = np.where(hit, ay + t * dy, py)
                done = done | hit
            if j < last:
                remaining = np.where(done, remaining, remaining - length)
        return px, py

    def steer(
        self,
        x: np.ndarray,
        y: np.ndarray,
        heading: np.ndarray,
        two_wheelbase_m: float,
        lookahead_m: float,
    ) -> np.ndarray:
        """Vectorized ``MpcPlanner._pure_pursuit_steer`` — exact trig.

        Every transcendental that feeds the steer *value* goes through
        the exact element-wise ``math`` calls; ``np.sin`` / ``np.cos`` are
        bit-equal to ``math.sin`` / ``math.cos`` and stay vectorized.
        """
        tx, ty = self.point_at(self.progress(x, y) + lookahead_m)
        dx = tx - x
        dy = ty - y
        alpha = _exact2(math.atan2, dy, dx) - heading
        alpha = _exact2(math.atan2, np.sin(alpha), np.cos(alpha))
        lookahead = np.maximum(_exact2(math.hypot, dx, dy), 1e-6)
        return _exact2(math.atan2, two_wheelbase_m * np.sin(alpha), lookahead)


def lane_progress_batch(
    lanes: LaneBatch, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Vectorized ``MpcPlanner._lane_progress`` across ``B`` candidates
    (:meth:`_LaneWalk.progress`)."""
    return _LaneWalk(lanes).progress(x, y)


def point_at_batch(lanes: LaneBatch, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``LaneSegment.point_at`` (:meth:`_LaneWalk.point_at`)."""
    return _LaneWalk(lanes).point_at(s)


def pure_pursuit_steer_batch(
    lanes: LaneBatch,
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    wheelbase_m: float,
    lookahead_m: float,
) -> np.ndarray:
    """Vectorized ``MpcPlanner._pure_pursuit_steer``
    (:meth:`_LaneWalk.steer`)."""
    return _LaneWalk(lanes).steer(x, y, heading, 2.0 * wheelbase_m, lookahead_m)


# -- batched bicycle model -----------------------------------------------------


def _bicycle_step(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    steer: np.ndarray,
    accel_dt: np.ndarray,
    model: BicycleModel,
    dt_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bicycle_step_batch` given the clamped accel times ``dt_s``."""
    max_steer_rad = model.max_steer_rad
    steer_c = np.maximum(-max_steer_rad, np.minimum(max_steer_rad, steer))
    new_speed = speed + accel_dt
    new_speed = np.maximum(0.0, np.minimum(model.max_speed_mps, new_speed))
    avg_speed = 0.5 * (speed + new_speed)
    new_heading = heading + (
        avg_speed / model.wheelbase_m * _exact1(math.tan, steer_c) * dt_s
    )
    new_x = x + avg_speed * np.cos(heading) * dt_s
    new_y = y + avg_speed * np.sin(heading) * dt_s
    wrapped = np.fmod(new_heading + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped)
    return new_x, new_y, wrapped - math.pi, new_speed


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
    """Vectorized ``model.step`` on 1-D arrays (accel pre-clamped, steer raw).

    Operation order matches the scalar update exactly: speed integrate,
    clamp to ``[0, max_speed]``, trapezoidal average, heading update via
    ``(avg / wb * tan(steer)) * dt``, position via ``(avg * cos(h)) * dt``,
    angle wrap through ``fmod``.
    """
    return _bicycle_step(
        x, y, heading, speed, steer, accel_clamped * dt_s, model, dt_s
    )


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
    pre-rollout state).  What no step changes (the lane walk's columns,
    the clamped accel times ``dt``, twice the wheelbase) is computed
    once, before the steps.
    """
    b = x0.shape[0]
    steps = HORIZON_STEPS
    dt_s = MpcPlanner.dt_s
    tx = np.empty((b, steps))
    ty = np.empty((b, steps))
    tspeed = np.empty((b, steps))
    walk = _LaneWalk(lanes)
    two_wheelbase_m = 2.0 * model.wheelbase_m
    accel_dt = (
        np.maximum(-model.max_decel_mps2, np.minimum(model.max_accel_mps2, accel))
        * dt_s
    )
    x, y, heading, speed = x0, y0, heading0, speed0
    steer0: Optional[np.ndarray] = None
    for k in range(steps):
        steer = walk.steer(x, y, heading, two_wheelbase_m, lookahead_m)
        if k == 0:
            steer0 = steer
        x, y, heading, speed = _bicycle_step(
            x, y, heading, speed, steer, accel_dt, model, dt_s
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
    if near.any():
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
