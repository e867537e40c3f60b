"""Tests for the CAN bus model and the closed-loop SoV."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import calibration
from repro.runtime.canbus import CanBus
from repro.runtime.sov import SovConfig, SystemsOnAVehicle, obstacle_ahead_scenario
from repro.scene.world import Agent, Obstacle, World
from repro.scene.lanes import straight_corridor
from repro.vehicle.dynamics import VehicleState


class TestCanBus:
    def test_nominal_latency_is_1ms(self):
        # Fig. 2: "Tdata = CAN Bus Latency (~1 ms)".
        assert CanBus().nominal_latency_s() == pytest.approx(
            calibration.CAN_BUS_LATENCY_S, abs=1e-5
        )

    def test_single_message_latency(self):
        bus = CanBus()
        message = bus.send("cmd", now_s=1.0)
        assert message.latency_s == pytest.approx(0.001, abs=1e-5)

    def test_serialization_under_contention(self):
        # Two frames sent at the same instant: the second waits.
        bus = CanBus()
        first = bus.send("a", now_s=0.0)
        second = bus.send("b", now_s=0.0)
        assert second.deliver_at_s > first.deliver_at_s

    def test_deliver_due_ordering(self):
        bus = CanBus()
        bus.send("a", 0.0)
        bus.send("b", 0.0)
        assert bus.deliver_due(0.0005) == []
        delivered = bus.deliver_due(0.01)
        assert [m.payload for m in delivered] == ["a", "b"]
        assert bus.pending == 0

    def test_contention_preserves_send_order(self):
        # A burst of frames sent in the same instant serializes strictly
        # in send order, each one frame-time after the previous.
        bus = CanBus()
        messages = [bus.send(i, now_s=0.0) for i in range(8)]
        deliveries = [m.deliver_at_s for m in messages]
        assert deliveries == sorted(deliveries)
        gaps = [b - a for a, b in zip(deliveries, deliveries[1:])]
        assert all(g == pytest.approx(bus.frame_time_s) for g in gaps)
        assert [m.payload for m in bus.deliver_due(1.0)] == list(range(8))

    def test_late_sender_waits_for_the_wire(self):
        # A frame sent while an earlier frame still occupies the wire
        # starts serializing only when the bus frees up.
        bus = CanBus()
        first = bus.send("early", now_s=0.0)
        second = bus.send("late", now_s=bus.frame_time_s / 2)
        assert second.deliver_at_s == pytest.approx(
            first.deliver_at_s + bus.frame_time_s
        )

    @given(
        send_times=st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_order_is_monotone_in_deliver_at(self, send_times):
        # Property: whatever the (sorted) send schedule, deliver_due pops
        # messages in non-decreasing deliver_at_s order, and delivery
        # never precedes the send instant by less than the nominal latency.
        bus = CanBus()
        for i, t in enumerate(sorted(send_times)):
            bus.send(i, now_s=t)
        delivered = bus.deliver_due(1e9)
        assert len(delivered) == len(send_times)
        deliveries = [m.deliver_at_s for m in delivered]
        assert deliveries == sorted(deliveries)
        assert all(
            m.latency_s >= bus.nominal_latency_s() - 1e-12 for m in delivered
        )


class TestClosedLoopEq1:
    """Closed-loop validation of the Eq. 1 avoidance boundaries.

    Distances are obstacle-center distances; the obstacle radius is 0.4 m,
    so the *detected surface* is 0.4 m closer — the quantity Eq. 1 bounds.
    """

    def test_mean_latency_avoids_5m_surface(self):
        # Surface at 5.5 m > the 5 m requirement for Tcomp = 164 ms.
        sov = obstacle_ahead_scenario(
            5.9, computing_latency_s=0.164, reactive_enabled=False
        )
        result = sov.drive(4.0)
        assert result.stopped and not result.collided

    def test_mean_latency_hits_4_5m_surface(self):
        # Surface at 4.5 m < 5 m: the proactive path alone cannot avoid it.
        sov = obstacle_ahead_scenario(
            4.9, computing_latency_s=0.164, reactive_enabled=False
        )
        result = sov.drive(4.0)
        assert result.collided

    def test_reactive_path_extends_coverage(self):
        # Sec. IV: the reactive path avoids objects >= 4.1 m away —
        # objects the proactive path (>= 5 m) cannot.
        sov = obstacle_ahead_scenario(
            4.8, computing_latency_s=0.164, reactive_enabled=True
        )
        result = sov.drive(4.0)
        assert result.stopped and not result.collided
        assert result.ops.reactive_overrides > 0

    def test_braking_distance_is_the_floor(self):
        # Surface at 3.5 m < the 3.92 m braking distance: physics says no.
        sov = obstacle_ahead_scenario(
            3.9, computing_latency_s=0.030, reactive_enabled=True
        )
        result = sov.drive(4.0)
        assert result.collided

    def test_worst_case_latency_needs_8_3m(self):
        sov_far = obstacle_ahead_scenario(
            8.8, computing_latency_s=0.740, reactive_enabled=False
        )
        assert not sov_far.drive(5.0).collided
        sov_near = obstacle_ahead_scenario(
            7.0, computing_latency_s=0.740, reactive_enabled=False
        )
        assert sov_near.drive(5.0).collided


class TestClosedLoopBehavior:
    def test_clear_road_cruise(self):
        sov = SystemsOnAVehicle(
            world=World(),
            lane_map=straight_corridor(length_m=300.0, n_lanes=1),
            initial_state=VehicleState(speed_mps=5.6),
            config=SovConfig(seed=1),
        )
        result = sov.drive(3.0)
        assert not result.collided
        assert result.ops.distance_m > 14.0  # kept moving near 5.6 m/s
        assert result.ops.reactive_overrides == 0
        assert result.ops.proactive_fraction == 1.0

    def test_sampled_latency_statistics_recorded(self):
        sov = SystemsOnAVehicle(
            world=World(),
            lane_map=straight_corridor(length_m=300.0, n_lanes=1),
            initial_state=VehicleState(speed_mps=5.6),
            config=SovConfig(seed=2),
        )
        result = sov.drive(3.0)
        assert result.latency.count >= 29
        assert 0.145 < result.latency.mean_s < 0.20

    def test_lane_change_around_obstacle(self):
        # With two lanes the vehicle swerves instead of stopping.
        world = World(obstacles=[Obstacle(25.0, 0.0, 0.6)])
        sov = SystemsOnAVehicle(
            world=world,
            lane_map=straight_corridor(length_m=300.0, n_lanes=2),
            initial_state=VehicleState(speed_mps=5.6),
            config=SovConfig(seed=3),
        )
        result = sov.drive(8.0)
        assert not result.collided
        assert result.final_state.x_m > 30.0  # passed the obstacle

    def test_crossing_pedestrian_is_not_hit(self):
        # A pedestrian crossing the lane ahead: brake or pass safely.
        world = World(agents=[Agent(1, 25.0, -6.0, 0.0, 1.2)])
        sov = SystemsOnAVehicle(
            world=world,
            lane_map=straight_corridor(length_m=300.0, n_lanes=1),
            initial_state=VehicleState(speed_mps=5.6),
            config=SovConfig(seed=4),
        )
        result = sov.drive(8.0)
        assert not result.collided

    def test_energy_accounting(self):
        sov = SystemsOnAVehicle(
            world=World(),
            lane_map=straight_corridor(length_m=300.0, n_lanes=1),
            initial_state=VehicleState(speed_mps=5.6),
        )
        result = sov.drive(2.0)
        expected = (600.0 + 175.0) * 2.0
        assert result.ops.energy_j == pytest.approx(expected, rel=0.01)
        assert sov.battery.state_of_charge < 1.0

    def test_invalid_duration(self):
        sov = obstacle_ahead_scenario(10.0)
        with pytest.raises(ValueError):
            sov.drive(0.0)

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            obstacle_ahead_scenario(0.0)

    def test_proactive_fraction_high_in_normal_operation(self):
        # Sec. V-C: vehicles stay on the proactive path >90% of the time.
        world = World(obstacles=[Obstacle(60.0, 0.0, 0.5)])
        sov = SystemsOnAVehicle(
            world=world,
            lane_map=straight_corridor(length_m=300.0, n_lanes=2),
            initial_state=VehicleState(speed_mps=5.6),
            config=SovConfig(seed=5),
        )
        result = sov.drive(6.0)
        assert result.ops.proactive_fraction > 0.9
