"""Equivalence tests for the batched multi-drive stepper.

The contract under test: :func:`repro.runtime.batched.plan_requests`
returns exactly ``planner.plan(...).command`` for every request, and
:func:`drive_batch` produces a :func:`drive_fingerprint` bit-identical
to ``sov.drive`` for every vehicle in the batch — including batches
mixing scenes, durations, and fault schedules.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.planning.collision import TIME_TOLERANCE_S
from repro.planning.mpc import MpcPlanner
from repro.planning.prediction import TrackedObject, predict_constant_velocity
from repro.runtime import kernels
from repro.runtime.batched import (
    _prediction_block_count,
    drive_batch,
    plan_requests,
)
from repro.runtime.sov import PlanRequest
from repro.scene.corridors import make_corridor_sov
from repro.scene.lanes import straight_corridor
from repro.scene.providers import resolve_scene
from repro.scene.world import Obstacle
from repro.testing.invariants import drive_fingerprint
from repro.vehicle.dynamics import BicycleModel, VehicleState


def _request(state, predictions=(), obstacles=(), now_s=0.0) -> PlanRequest:
    from repro.runtime.shedding import TickShed

    return PlanRequest(
        now_s=now_s,
        state=state,
        predictions=list(predictions),
        obstacles=list(obstacles),
        shed=TickShed(),
        tick=0,
        frame=None,
    )


def _sov_on(lane_map, model=None, lookahead_m=4.0):
    """A minimal sov-shaped holder for plan_requests (planner only)."""

    class _Holder:
        pass

    holder = _Holder()
    holder.planner = MpcPlanner(
        lane_map=lane_map,
        model=model or BicycleModel(),
        lookahead_m=lookahead_m,
    )
    return holder


def _objects():
    return [
        TrackedObject(object_id=1, x_m=20.0, y_m=0.5, vx_mps=-1.0,
                      vy_mps=0.0, radius_m=0.5),
        TrackedObject(object_id=2, x_m=35.0, y_m=-0.5, vx_mps=0.0,
                      vy_mps=0.2, radius_m=0.4),
    ]


def test_plan_requests_matches_scalar_plan():
    rng = np.random.default_rng(7)
    lane_map = straight_corridor(length_m=150.0, n_lanes=3)
    sov = _sov_on(lane_map)
    items = []
    for _ in range(24):
        state = VehicleState(
            x_m=float(rng.uniform(0.0, 100.0)),
            y_m=float(rng.uniform(-1.0, 6.0)),
            heading_rad=float(rng.uniform(-0.4, 0.4)),
            speed_mps=float(rng.uniform(0.0, 6.0)),
        )
        obstacles = [
            Obstacle(
                float(rng.uniform(0.0, 120.0)),
                float(rng.uniform(-1.0, 6.0)),
                radius_m=0.4,
                obstacle_id=j,
            )
            for j in range(int(rng.integers(0, 3)))
        ]
        items.append((sov, _request(state, obstacles=obstacles)))
    batched = plan_requests(items)
    for (holder, request), command in zip(items, batched):
        ref = holder.planner.plan(
            request.state,
            predictions=request.predictions,
            static_obstacles=request.obstacles,
            now_s=request.now_s,
        ).command
        assert command == ref


def test_plan_requests_with_predictions_matches_scalar():
    lane_map = straight_corridor(length_m=150.0, n_lanes=2)
    sov = _sov_on(lane_map)
    planner = sov.planner
    predictions = predict_constant_velocity(
        _objects(), horizon_s=planner.horizon_s, dt_s=planner.dt_s
    )
    state = VehicleState(x_m=5.0, speed_mps=4.0)
    request = _request(state, predictions=predictions)
    [command] = plan_requests([(sov, request)])
    ref = planner.plan(
        state, predictions=predictions, static_obstacles=[], now_s=0.0
    ).command
    assert command == ref


def test_plan_requests_mixed_models_and_lookaheads_match_scalar():
    """Fast-path planners that differ in model or lookahead share one
    round; each request still gets its own planner's command."""
    rng = np.random.default_rng(11)
    lane_map = straight_corridor(length_m=150.0, n_lanes=3)
    holders = [
        _sov_on(lane_map, model, lookahead_m)
        for model in (BicycleModel(), BicycleModel(wheelbase_m=3.2))
        for lookahead_m in (4.0, 6.0)
    ]
    predictions = predict_constant_velocity(
        _objects(), horizon_s=MpcPlanner.horizon_s, dt_s=MpcPlanner.dt_s
    )
    items = []
    for i in range(24):
        state = VehicleState(
            x_m=float(rng.uniform(0.0, 100.0)),
            y_m=float(rng.uniform(-1.0, 6.0)),
            heading_rad=float(rng.uniform(-0.4, 0.4)),
            speed_mps=float(rng.uniform(0.0, 6.0)),
        )
        preds = predictions if i % 3 == 0 else []
        items.append((holders[i % 4], _request(state, predictions=preds)))
    batched = plan_requests(items)
    for (holder, request), command in zip(items, batched):
        ref = holder.planner.plan(
            request.state,
            predictions=request.predictions,
            static_obstacles=request.obstacles,
            now_s=request.now_s,
        ).command
        assert command == ref


def test_prediction_grid_is_the_stepper_grid():
    # Distinct grid instants never share a check_trajectory time window,
    # so pairing prediction block k with trajectory point k is exact.
    assert MpcPlanner.dt_s > 1.5 * TIME_TOLERANCE_S
    objects = _objects()
    predictions = predict_constant_velocity(
        objects, horizon_s=MpcPlanner.horizon_s, dt_s=MpcPlanner.dt_s
    )
    times = [p.time_s for p in predictions[:: len(objects)]]
    assert times == list(kernels.HORIZON_TIMES)
    assert _prediction_block_count(predictions) == len(objects)


def test_plan_requests_off_map_emergency():
    lane_map = straight_corridor(length_m=50.0, n_lanes=1)
    sov = _sov_on(lane_map)
    state = VehicleState(x_m=-500.0, y_m=200.0, speed_mps=3.0)
    request = _request(state, now_s=4.5)
    [command] = plan_requests([(sov, request)])
    ref = sov.planner.plan(state, now_s=4.5).command
    assert command == ref
    assert command.accel_mps2 == -sov.planner.model.max_decel_mps2


def test_plan_requests_misaligned_predictions_fall_back():
    from repro.planning.prediction import PredictedState

    lane_map = straight_corridor(length_m=80.0, n_lanes=1)
    sov = _sov_on(lane_map)
    state = VehicleState(x_m=5.0, speed_mps=3.0)
    # Predictions on an alien time grid: the batched path must detect
    # the misalignment and route through the scalar planner.
    predictions = [
        PredictedState(object_id=1, time_s=0.123, x_m=10.0, y_m=0.0,
                       radius_m=0.5)
    ]
    request = _request(state, predictions=predictions)
    [command] = plan_requests([(sov, request)])
    ref = sov.planner.plan(
        state, predictions=predictions, now_s=0.0
    ).command
    assert command == ref


def test_plan_requests_non_mpc_planner_falls_back():
    class _StubPlan:
        def __init__(self, command):
            self.command = command

    class StubPlanner:
        def plan(self, state, predictions=(), static_obstacles=(), now_s=0.0):
            from repro.vehicle.dynamics import ControlCommand

            return _StubPlan(
                ControlCommand(
                    steer_rad=0.25, accel_mps2=-1.0, timestamp_s=now_s,
                    source="proactive",
                )
            )

    class _Holder:
        pass

    holder = _Holder()
    holder.planner = StubPlanner()
    request = _request(VehicleState(x_m=1.0))
    [command] = plan_requests([(holder, request)])
    assert command.steer_rad == 0.25 and command.accel_mps2 == -1.0


def test_drive_batch_matches_serial_mixed_batch():
    """Drives of different scenes and durations in one lockstep batch."""
    coords = [("slalom", 0), ("narrow_gap", 1), ("oncoming_agent", 2)]

    def build(name, seed):
        scenario = resolve_scene(name, seed)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        return sov, scenario.duration_s

    serial = []
    for name, seed in coords:
        sov, duration = build(name, seed)
        serial.append(drive_fingerprint(sov.drive(duration)))
    built = [build(name, seed) for name, seed in coords]
    batched = drive_batch(
        [sov for sov, _d in built], [d for _sov, d in built]
    )
    for ref, result in zip(serial, batched):
        assert drive_fingerprint(result) == ref


def test_drive_batch_validates_inputs():
    scenario = resolve_scene("slalom", 0)
    sov = make_corridor_sov(scenario, safety_net=True)
    with pytest.raises(ValueError):
        drive_batch([sov], [])
    with pytest.raises(ValueError):
        drive_batch([], [])
