"""Tests for the kinematic bicycle model and Eq. 1 cross-validation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import calibration
from repro.core.latency_model import LatencyModel
from repro.vehicle.dynamics import (
    BicycleModel,
    ControlCommand,
    VehicleState,
    _wrap_angle,
    simulate_straight_line_stop,
)


@pytest.fixture
def model() -> BicycleModel:
    return BicycleModel()


class TestStep:
    def test_straight_cruise_advances_x(self, model):
        s = VehicleState(speed_mps=5.0)
        s2 = model.step(s, ControlCommand(), 1.0)
        assert s2.x_m == pytest.approx(5.0)
        assert s2.y_m == pytest.approx(0.0)
        assert s2.time_s == pytest.approx(1.0)

    def test_accel_is_clamped(self, model):
        s = VehicleState(speed_mps=0.0)
        s2 = model.step(s, ControlCommand(accel_mps2=100.0), 1.0)
        assert s2.speed_mps == pytest.approx(model.max_accel_mps2)

    def test_speed_capped_at_20mph(self, model):
        s = VehicleState(speed_mps=model.max_speed_mps)
        s2 = model.step(s, ControlCommand(accel_mps2=2.0), 10.0)
        assert s2.speed_mps == pytest.approx(model.max_speed_mps)

    def test_never_reverses(self, model):
        s = VehicleState(speed_mps=0.5)
        s2 = model.step(s, ControlCommand(accel_mps2=-4.0), 5.0)
        assert s2.speed_mps == 0.0

    def test_steering_turns_heading(self, model):
        s = VehicleState(speed_mps=5.0)
        left = model.step(s, ControlCommand(steer_rad=0.3), 0.1)
        right = model.step(s, ControlCommand(steer_rad=-0.3), 0.1)
        assert left.heading_rad > 0 > right.heading_rad

    def test_steer_clamped(self, model):
        s = VehicleState(speed_mps=5.0)
        extreme = model.step(s, ControlCommand(steer_rad=10.0), 0.1)
        max_allowed = model.step(
            s, ControlCommand(steer_rad=model.max_steer_rad), 0.1
        )
        assert extreme.heading_rad == pytest.approx(max_allowed.heading_rad)

    def test_negative_dt_rejected(self, model):
        with pytest.raises(ValueError):
            model.step(VehicleState(), ControlCommand(), -0.1)

    def test_zero_dt_is_identity_pose(self, model):
        s = VehicleState(x_m=1.0, y_m=2.0, speed_mps=3.0)
        s2 = model.step(s, ControlCommand(), 0.0)
        assert (s2.x_m, s2.y_m, s2.speed_mps) == (1.0, 2.0, 3.0)


#: The default pod, and one whose steer and accel limits are zero (the
#: signed-zero edge: clamping -0.0 to a 0.0 limit gives +0.0).
_MODELS = (BicycleModel(), BicycleModel(max_steer_rad=0.0, max_accel_mps2=0.0))


def _edges(*limits):
    values = [0.0, -0.0, math.inf, -math.inf]
    for limit in limits:
        for v in (limit, -limit):
            values += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    return values


#: Commands at, beside and beyond every limit of both models, and between.
_COMMAND_VALUES = st.one_of(
    st.sampled_from(_edges(0.5, 4.0, 2.0, 0.0)),
    st.floats(-20.0, 20.0),
)


def _bits(*values):
    return tuple(float(v).hex() for v in values)


class TestClampExactness:
    """``step`` clamps steer and accel as two floats, with ``clamp``'s own
    expressions; ``clamp`` hands back a command already inside the limits."""

    def test_command_inside_the_limits_is_returned_as_is(self, model):
        command = ControlCommand(
            steer_rad=0.2, accel_mps2=-1.0, timestamp_s=3.0, source="reactive"
        )
        assert model.clamp(command) is command

    def test_command_on_or_past_a_limit_is_clamped(self, model):
        command = ControlCommand(steer_rad=9.0, accel_mps2=model.max_accel_mps2)
        clamped = model.clamp(command)
        assert clamped is not command
        assert (clamped.steer_rad, clamped.accel_mps2) == (
            model.max_steer_rad,
            model.max_accel_mps2,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(_MODELS),
        steer=_COMMAND_VALUES,
        accel=_COMMAND_VALUES,
        speed=st.floats(0.0, 9.0),
        heading=st.floats(-math.pi, math.pi),
        dt=st.sampled_from([0.0, 0.005, 0.1]),
    )
    def test_step_of_a_command_equals_step_of_its_clamp_bit_for_bit(
        self, model, steer, accel, speed, heading, dt
    ):
        command = ControlCommand(steer_rad=steer, accel_mps2=accel)
        clamped = model.clamp(command)
        steer_limit, decel, accel_limit = (
            model.max_steer_rad, model.max_decel_mps2, model.max_accel_mps2
        )
        assert _bits(clamped.steer_rad, clamped.accel_mps2) == _bits(
            max(-steer_limit, min(steer_limit, steer)),
            max(-decel, min(accel_limit, accel)),
        )
        state = VehicleState(
            x_m=1.5, y_m=-2.0, heading_rad=heading, speed_mps=speed, time_s=4.0
        )
        assert _bits(*dataclasses.astuple(model.step(state, command, dt))) == (
            _bits(*dataclasses.astuple(model.step(state, clamped, dt)))
        )


class TestBraking:
    def test_braking_distance_matches_closed_form(self, model):
        states = model.brake_to_stop(VehicleState(speed_mps=5.6), dt_s=0.001)
        distance = states[-1].x_m
        assert distance == pytest.approx(model.stopping_distance_m(5.6), abs=0.02)

    def test_braking_reaches_zero_speed(self, model):
        final = model.brake_to_stop(VehicleState(speed_mps=8.0))[-1]
        assert final.speed_mps == 0.0

    def test_closed_form_at_paper_speed(self, model):
        # 5.6^2 / (2*4) = 3.92 m — the paper's "4 m braking distance".
        assert model.stopping_distance_m(5.6) == pytest.approx(3.92)

    def test_negative_speed_rejected(self, model):
        with pytest.raises(ValueError):
            model.stopping_distance_m(-1.0)


class TestEq1CrossValidation:
    """The numeric simulation must agree with the analytical Eq. 1 model."""

    @pytest.mark.parametrize("tcomp", [0.030, 0.149, 0.164, 0.740])
    def test_simulated_stop_matches_analytical(self, tcomp):
        analytical = LatencyModel().stopping_distance_m(tcomp)
        simulated = simulate_straight_line_stop(5.6, tcomp)
        assert simulated == pytest.approx(analytical, abs=0.05)

    def test_mean_latency_stops_within_5m(self):
        d = simulate_straight_line_stop(5.6, calibration.MEAN_COMPUTING_LATENCY_S)
        assert d <= calibration.PAPER_AVOIDANCE_RANGE_MEAN_M + 0.05

    @settings(max_examples=25, deadline=None)
    @given(v=st.floats(0.5, 8.9), tcomp=st.floats(0.0, 1.0))
    def test_agreement_property(self, v, tcomp):
        analytical = LatencyModel(speed_mps=v).stopping_distance_m(tcomp)
        simulated = simulate_straight_line_stop(v, tcomp, dt_s=0.002)
        assert simulated == pytest.approx(analytical, abs=0.08)


class TestAngleWrap:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi)],
    )
    def test_known_values(self, angle, expected):
        assert _wrap_angle(angle) == pytest.approx(expected)

    @given(angle=st.floats(-100.0, 100.0))
    def test_range_property(self, angle):
        wrapped = _wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        # Same direction modulo 2*pi.
        assert math.isclose(
            math.cos(wrapped), math.cos(angle), abs_tol=1e-9
        ) and math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)


class TestValidation:
    def test_bad_wheelbase(self):
        with pytest.raises(ValueError):
            BicycleModel(wheelbase_m=0.0)

    def test_bad_limits(self):
        with pytest.raises(ValueError):
            BicycleModel(max_speed_mps=0.0)

    def test_bad_command_source(self):
        with pytest.raises(ValueError):
            ControlCommand(source="psychic")

    def test_state_distance(self):
        s = VehicleState(x_m=3.0, y_m=4.0)
        assert s.distance_to((0.0, 0.0)) == pytest.approx(5.0)
        assert s.position == (3.0, 4.0)
