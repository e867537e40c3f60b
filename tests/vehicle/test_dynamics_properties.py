"""The float-level bicycle update is the step the loop and planner share.

``BicycleModel.update`` keeps a value strictly inside its limits
instead of calling ``max``/``min`` on it; these properties check it
against the clamping expressions written out in full, and check that
``BicycleModel.step`` is that update on a :class:`VehicleState`,
bit for bit, across clamped and unclamped commands and speeds at 0 and
at the cap.
"""

import math

from hypothesis import given, strategies as st

from repro.vehicle.dynamics import (
    BicycleModel,
    ControlCommand,
    VehicleState,
    _wrap_angle,
)

MODEL = BicycleModel()

finite = dict(allow_nan=False, allow_infinity=False)
positions = st.floats(-1e4, 1e4, **finite)
headings = st.floats(-10.0, 10.0, **finite)
speeds = st.one_of(
    st.floats(0.0, MODEL.max_speed_mps, **finite),
    st.sampled_from([0.0, MODEL.max_speed_mps]),
)
#: Inside, on and beyond the limits of both commands.
steers = st.one_of(
    st.floats(-2.0, 2.0, **finite),
    st.sampled_from([-MODEL.max_steer_rad, 0.0, -0.0, MODEL.max_steer_rad]),
)
accels = st.one_of(
    st.floats(-20.0, 20.0, **finite),
    st.sampled_from([-MODEL.max_decel_mps2, 0.0, MODEL.max_accel_mps2]),
)
dts = st.sampled_from([0.005, 0.1, 0.2, 1.0])


def _reference(x, y, heading, speed, steer_rad, accel_mps2, dt):
    """The update with every clamp taken through ``max``/``min``."""
    steer = max(-MODEL.max_steer_rad, min(MODEL.max_steer_rad, steer_rad))
    accel = max(-MODEL.max_decel_mps2, min(MODEL.max_accel_mps2, accel_mps2))
    new_speed = speed + accel * dt
    new_speed = max(0.0, min(MODEL.max_speed_mps, new_speed))
    avg_speed = 0.5 * (speed + new_speed)
    new_heading = heading + (
        avg_speed / MODEL.wheelbase_m * math.tan(steer) * dt
    )
    new_x = x + avg_speed * math.cos(heading) * dt
    new_y = y + avg_speed * math.sin(heading) * dt
    return new_x, new_y, _wrap_angle(new_heading), new_speed


@given(
    x=positions, y=positions, heading=headings, speed=speeds,
    steer=steers, accel=accels, dt=dts,
)
def test_update_equals_the_full_clamps(x, y, heading, speed, steer, accel, dt):
    got = MODEL.update(x, y, heading, speed, steer, accel, dt)
    assert repr(got) == repr(_reference(x, y, heading, speed, steer, accel, dt))


@given(
    x=positions, y=positions, heading=headings, speed=speeds,
    time_s=st.floats(0.0, 1e3, **finite),
    steer=steers, accel=accels, dt=dts,
)
def test_step_is_the_update(x, y, heading, speed, time_s, steer, accel, dt):
    state = VehicleState(
        x_m=x, y_m=y, heading_rad=heading, speed_mps=speed, time_s=time_s
    )
    command = ControlCommand(steer_rad=steer, accel_mps2=accel)
    stepped = MODEL.step(state, command, dt)
    updated = MODEL.update(x, y, heading, speed, steer, accel, dt)
    assert repr(
        (stepped.x_m, stepped.y_m, stepped.heading_rad, stepped.speed_mps)
    ) == repr(updated)
    assert stepped.time_s == time_s + dt
