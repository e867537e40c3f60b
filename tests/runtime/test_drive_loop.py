"""The drive loop's sub-steps: command delivery order and ``finish_period``."""

from __future__ import annotations

import types

import pytest

from repro.runtime.sov import DriveLoop, obstacle_ahead_scenario
from repro.testing.invariants import drive_fingerprint
from repro.vehicle.dynamics import ControlCommand

#: When the stub actuator applies every command, whatever its path.
_APPLY_AT_S = 0.05


@pytest.mark.parametrize("reactive_first", [False, True])
def test_commands_due_together_reach_the_ecu_in_queue_order(reactive_first):
    # An obstacle 3 m ahead makes the reactive path brake on its first
    # tick; the stub actuator gives CAN and reactive commands one
    # apply time, so only the queue order can separate them.
    sov = obstacle_ahead_scenario(3.0)
    sov.actuator = types.SimpleNamespace(
        ready_at=lambda _arrival_s: _APPLY_AT_S
    )
    first = ControlCommand(steer_rad=0.01, accel_mps2=0.5)
    second = ControlCommand(steer_rad=0.02, accel_mps2=0.25)
    loop = DriveLoop(sov, 0.2)
    if reactive_first:
        loop.finish_step()  # the reactive tick at t=0 queues its brake
        sov._send_command(first, 0.0)
        sov._send_command(second, 0.0)
        sources = ["reactive", "proactive", "proactive"]
    else:
        sov._send_command(first, 0.0)
        loop.finish_step()
        sov._send_command(second, 0.0)
        sources = ["proactive", "reactive", "proactive"]
    while not loop.done:
        loop.finish_step()
    # Later reactive ticks queue more brakes due at the same instant;
    # they arrive after these three.
    log = sov.ecu.command_log[:3]
    assert [c.source for c in log] == sources
    assert [c for c in log if c.source == "proactive"] == [first, second]


def _drive(duration_s, per_sub_step):
    """Drive with one ``finish_step`` per call, as a caller stepping the
    loop by hand does, or with ``finish_period`` after each tick; return
    ``(now, steps left)`` at every control tick, and the result."""
    sov = obstacle_ahead_scenario(12.0)
    loop = DriveLoop(sov, duration_s)
    ticks = []
    while not loop.done:
        before = (loop.now, loop._steps_left)
        next_control = loop._next_control
        request = loop.begin_step()
        if loop._next_control != next_control:
            ticks.append(before)
        if request is not None:
            plan = sov.planner.plan(
                request.state,
                predictions=request.predictions,
                static_obstacles=request.obstacles,
                now_s=request.now_s,
            )
            sov._proactive_post(request, plan.command)
        loop.finish_step()
        if not per_sub_step:
            loop.finish_period()
    return ticks, (loop.now, loop._steps_left), loop.finalize()


@pytest.mark.parametrize("duration_s", [0.005, 0.1, 0.123, 0.5, 1.2345, 2.05])
def test_finish_period_steps_as_plain_sub_steps(duration_s):
    ticks, end, result = _drive(duration_s, per_sub_step=True)
    period_ticks, period_end, period_result = _drive(
        duration_s, per_sub_step=False
    )
    assert period_ticks == ticks
    assert period_end == end
    assert end[1] == 0
    assert drive_fingerprint(period_result) == drive_fingerprint(result)
