"""Reference-equality tests for the vectorized hot-path kernels.

Every kernel in :mod:`repro.runtime.kernels` claims bit-identity with a
named scalar reference (``MpcPlanner._lane_progress``, ``_rollout``,
``BicycleModel.step``, ``check_trajectory``, ``_cost``).  These tests
state that claim directly: randomized inputs, ``==`` on floats, no
tolerances anywhere.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.planning.collision import TrajectoryPoint, check_trajectory
from repro.planning.mpc import MpcPlanner
from repro.planning.prediction import PredictedState
from repro.runtime import kernels
from repro.scene.lanes import LaneSegment, straight_corridor
from repro.scene.world import Obstacle
from repro.vehicle.dynamics import BicycleModel, VehicleState


def _random_segment(rng: np.random.Generator, n_points: int) -> LaneSegment:
    xs = np.cumsum(rng.uniform(0.5, 8.0, size=n_points))
    ys = rng.normal(0.0, 2.0, size=n_points)
    centerline = tuple(
        (float(x), float(y)) for x, y in zip(xs, ys)
    )
    return LaneSegment(
        segment_id=f"seg{n_points}", centerline=centerline, width_m=2.5
    )


def _planner() -> MpcPlanner:
    lane_map = straight_corridor(length_m=200.0, n_lanes=2)
    return MpcPlanner(lane_map=lane_map, model=BicycleModel())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


# -- exact ufunc replacements --------------------------------------------------


def test_exact_ufuncs_match_math(rng):
    a = rng.normal(0.0, 10.0, size=257)
    b = rng.normal(0.0, 10.0, size=257)
    hy = kernels.exact_hypot(a, b)
    at = kernels.exact_atan2(a, b)
    ta = kernels.exact_tan(a)
    for i in range(a.size):
        assert hy[i] == math.hypot(a[i], b[i])
        assert at[i] == math.atan2(a[i], b[i])
        assert ta[i] == math.tan(a[i])


def test_exact_ufuncs_broadcast():
    a = np.array([[1.0], [2.0]])
    b = np.array([3.0, 4.0, 5.0])
    out = kernels.exact_hypot(a, b)
    assert out.shape == (2, 3)
    assert out[1, 2] == math.hypot(2.0, 5.0)


# -- lane progress / point_at --------------------------------------------------


def test_lane_progress_matches_scalar(rng):
    planner = _planner()
    segments = [_random_segment(rng, n) for n in (2, 3, 5, 9)]
    lanes = kernels.lane_batch(segments)
    x = rng.uniform(-5.0, 60.0, size=len(segments))
    y = rng.uniform(-10.0, 10.0, size=len(segments))
    got = kernels.lane_progress_batch(lanes, x, y)
    for i, seg in enumerate(segments):
        assert got[i] == planner._lane_progress(seg, x[i], y[i])


def test_point_at_matches_scalar(rng):
    segments = [_random_segment(rng, n) for n in (2, 4, 7)]
    lanes = kernels.lane_batch(segments)
    for s_query in (-1.0, 0.0, 0.3, 5.0, 17.0, 1e4):
        s = np.full(len(segments), s_query)
        px, py = kernels.point_at_batch(lanes, s)
        for i, seg in enumerate(segments):
            ref = seg.point_at(s_query)
            assert (px[i], py[i]) == ref


# -- pure pursuit / bicycle step -----------------------------------------------


def test_pure_pursuit_steer_matches_scalar(rng):
    planner = _planner()
    segments = [_random_segment(rng, n) for n in (2, 3, 6)]
    lanes = kernels.lane_batch(segments)
    x = rng.uniform(0.0, 30.0, size=3)
    y = rng.uniform(-3.0, 3.0, size=3)
    heading = rng.uniform(-math.pi, math.pi, size=3)
    steer = kernels.pure_pursuit_steer_batch(
        lanes, x, y, heading, planner.model.wheelbase_m, planner.lookahead_m
    )
    for i, seg in enumerate(segments):
        state = VehicleState(
            x_m=x[i], y_m=y[i], heading_rad=heading[i], speed_mps=3.0
        )
        assert steer[i] == planner._pure_pursuit_steer(state, seg)


def test_bicycle_step_matches_scalar(rng):
    from repro.vehicle.dynamics import ControlCommand

    model = BicycleModel()
    n = 64
    x = rng.uniform(-10, 10, n)
    y = rng.uniform(-10, 10, n)
    heading = rng.uniform(-4.0, 4.0, n)
    speed = rng.uniform(0.0, model.max_speed_mps, n)
    steer = rng.uniform(-1.0, 1.0, n)
    accel = rng.uniform(-model.max_decel_mps2, model.max_accel_mps2, n)
    nx, ny, nh, nv = kernels.bicycle_step_batch(
        x, y, heading, speed, steer, accel, model, dt_s=0.1
    )
    for i in range(n):
        state = VehicleState(
            x_m=x[i], y_m=y[i], heading_rad=heading[i], speed_mps=speed[i]
        )
        # accel is inside limits, so clamp only touches steer — matching
        # the kernel's pre-clamped-accel contract.
        ref = model.step(
            state,
            ControlCommand(steer_rad=float(steer[i]), accel_mps2=float(accel[i])),
            0.1,
        )
        assert (nx[i], ny[i], nh[i], nv[i]) == (
            ref.x_m, ref.y_m, ref.heading_rad, ref.speed_mps
        )


# -- rollout -------------------------------------------------------------------


def test_rollout_matches_scalar(rng):
    planner = _planner()
    lane = planner.lane_map.segment("lane0")
    accels = np.array([-3.0, -1.0, 0.0, 1.0, 2.0])
    state = VehicleState(x_m=3.0, y_m=0.2, heading_rad=0.05, speed_mps=4.0)
    lanes = kernels.lane_batch([lane] * len(accels))
    b = len(accels)
    tx, ty, tspeed, steer0 = kernels.rollout_batch(
        lanes,
        np.full(b, state.x_m),
        np.full(b, state.y_m),
        np.full(b, state.heading_rad),
        np.full(b, state.speed_mps),
        accels,
        planner.model,
        planner.lookahead_m,
    )
    for i, accel in enumerate(accels):
        ref = planner._rollout(state, lane, float(accel))
        assert steer0[i] == planner._pure_pursuit_steer(state, lane)
        for k, point in enumerate(ref):
            assert (tx[i, k], ty[i, k], tspeed[i, k]) == (
                point.x_m, point.y_m, point.speed_mps
            )


# -- collision -----------------------------------------------------------------


def test_collision_matches_check_trajectory(rng):
    steps, dt = 10, 0.3
    times = [(k + 1) * dt for k in range(steps)]
    n_cases = 40
    for case in range(n_cases):
        tx = np.cumsum(rng.uniform(0.2, 1.5, steps))
        ty = rng.normal(0.0, 0.5, steps)
        trajectory = [
            TrajectoryPoint(time_s=times[k], x_m=tx[k], y_m=ty[k],
                            speed_mps=3.0)
            for k in range(steps)
        ]
        obstacles = [
            Obstacle(
                float(rng.uniform(0, 12)), float(rng.normal(0, 1)),
                radius_m=0.4, obstacle_id=j,
            )
            for j in range(2)
        ]
        predictions = [
            PredictedState(
                object_id=j,
                time_s=times[k],
                x_m=float(rng.uniform(0, 12)),
                y_m=float(rng.normal(0, 1)),
                radius_m=0.5,
            )
            for k in range(steps)
            for j in range(2)
        ]
        report = check_trajectory(trajectory, predictions, obstacles)
        p = 2
        pred_x = np.array(
            [[predictions[k * p + j].x_m for j in range(p)] for k in range(steps)]
        )[None]
        pred_y = np.array(
            [[predictions[k * p + j].y_m for j in range(p)] for k in range(steps)]
        )[None]
        pred_r = np.array(
            [[predictions[k * p + j].radius_m for j in range(p)] for k in range(steps)]
        )[None]
        collides, ttc = kernels.collision_batch(
            tx[None], ty[None], times,
            np.array([[o.x_m for o in obstacles]]),
            np.array([[o.y_m for o in obstacles]]),
            np.array([[o.radius_m for o in obstacles]]),
            pred_x, pred_y, pred_r,
        )
        assert bool(collides[0]) == report.collides
        expected_ttc = report.first_collision_time_s or 0.0
        assert float(ttc[0]) == expected_ttc


def test_collision_padding_is_inert():
    times = [0.3]
    tx = np.array([[1.0]])
    ty = np.array([[0.0]])
    collides, ttc = kernels.collision_batch(
        tx, ty, times,
        np.array([[kernels.PAD_XY]]), np.array([[kernels.PAD_XY]]),
        np.array([[0.0]]),
        np.full((1, 1, 1), kernels.PAD_XY),
        np.full((1, 1, 1), kernels.PAD_XY),
        np.zeros((1, 1, 1)),
    )
    assert not collides[0] and ttc[0] == 0.0


# -- cost ----------------------------------------------------------------------


def test_cost_matches_scalar(rng):
    planner = _planner()
    steps = 12
    n = 30
    for case in range(n):
        tspeed = rng.uniform(0.0, 8.0, steps)
        tx = np.cumsum(rng.uniform(0.1, 1.0, steps))
        trajectory = [
            TrajectoryPoint(
                time_s=(k + 1) * planner.dt_s, x_m=tx[k], y_m=0.0,
                speed_mps=tspeed[k],
            )
            for k in range(steps)
        ]
        accel = float(rng.uniform(-4.0, 2.0))
        is_change = bool(rng.integers(0, 2))
        collides = bool(rng.integers(0, 2))
        ttc = float(rng.uniform(0.0, 3.0)) if collides else 0.0

        class _Report:
            pass

        report = _Report()
        report.collides = collides
        report.first_collision_time_s = ttc if collides else None
        ref = planner._cost(trajectory, is_change, accel, report)
        got = kernels.cost_batch(
            tx[None], tspeed[None],
            np.array([accel]), np.array([is_change]),
            np.array([collides]), np.array([ttc]),
        )
        assert float(got[0]) == ref

