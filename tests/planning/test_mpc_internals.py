"""Deeper tests of the MPC planner's internals."""

import math

import pytest

from repro.planning.mpc import MpcPlanner
from repro.scene.lanes import LaneMap, LaneSegment, campus_loop, straight_corridor
from repro.vehicle.dynamics import VehicleState


@pytest.fixture
def planner() -> MpcPlanner:
    return MpcPlanner(lane_map=straight_corridor(length_m=100.0, n_lanes=3))


class TestLaneProgress:
    def test_progress_on_straight_lane(self, planner):
        lane = planner.lane_map.segment("lane0")
        assert planner._lane_progress(lane, 30.0, 0.2) == pytest.approx(30.0, abs=0.01)

    def test_progress_clamps_before_start(self, planner):
        lane = planner.lane_map.segment("lane0")
        assert planner._lane_progress(lane, -5.0, 0.0) == 0.0

    def test_progress_on_polyline(self):
        lane = LaneSegment("bent", centerline=((0, 0), (10, 0), (10, 10)))
        planner = MpcPlanner(lane_map=straight_corridor())
        assert planner._lane_progress(lane, 10.0, 4.0) == pytest.approx(14.0, abs=0.01)

    def test_progress_on_arc(self):
        lane_map = campus_loop(radius_m=40.0)
        planner = MpcPlanner(lane_map=lane_map)
        arc = lane_map.segment("arc0")
        # A point a quarter of the way along arc0 (which spans 90 degrees).
        theta = math.pi / 16
        s = planner._lane_progress(
            arc, 40.0 * math.cos(theta), 40.0 * math.sin(theta)
        )
        expected = 40.0 * theta
        assert s == pytest.approx(expected, rel=0.05)


class TestAdjacency:
    def test_middle_lane_has_two_neighbors(self, planner):
        assert set(planner._adjacent_lanes("lane1")) == {"lane0", "lane2"}

    def test_edge_lane_has_one_neighbor(self, planner):
        assert planner._adjacent_lanes("lane0") == ["lane1"]

    def test_successor_edges_are_not_lane_changes(self):
        lane_map = campus_loop()
        planner = MpcPlanner(lane_map=lane_map)
        # Arc successors are continuations, not lane changes.
        assert planner._adjacent_lanes("arc0") == []


class TestSteering:
    def test_steer_zero_on_centerline(self, planner):
        lane = planner.lane_map.segment("lane0")
        state = VehicleState(x_m=10.0, y_m=0.0, heading_rad=0.0, speed_mps=5.0)
        assert planner._pure_pursuit_steer(state, lane) == pytest.approx(0.0, abs=1e-9)

    def test_steer_left_when_right_of_lane(self, planner):
        lane = planner.lane_map.segment("lane0")
        state = VehicleState(x_m=10.0, y_m=-1.0, heading_rad=0.0, speed_mps=5.0)
        assert planner._pure_pursuit_steer(state, lane) > 0.0

    def test_steer_right_when_left_of_lane(self, planner):
        lane = planner.lane_map.segment("lane0")
        state = VehicleState(x_m=10.0, y_m=1.0, heading_rad=0.0, speed_mps=5.0)
        assert planner._pure_pursuit_steer(state, lane) < 0.0


class TestEmergency:
    def test_emergency_plan_brakes_hard(self, planner):
        state = VehicleState(x_m=10.0, y_m=50.0, speed_mps=5.0)  # off-map
        plan = planner.plan(state)
        assert plan.command.accel_mps2 == -planner.model.max_decel_mps2
        assert plan.chosen.lane_id == "<off-map>"

    def test_rollout_timestamps(self, planner):
        lane = planner.lane_map.segment("lane0")
        state = VehicleState(x_m=10.0, y_m=0.0, speed_mps=5.0)
        trajectory = planner._rollout(state, lane, accel=0.0)
        assert len(trajectory) == int(planner.horizon_s / planner.dt_s)
        assert trajectory[0].time_s == pytest.approx(planner.dt_s)
        assert trajectory[-1].time_s == pytest.approx(planner.horizon_s)
