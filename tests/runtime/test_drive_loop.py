"""The drive loop's sub-steps: command delivery order and ``finish_period``.

``finish_period`` runs a control period's sub-steps in locals and writes
the vehicle, operations log, battery and world back before each
reactive tick, at its end and before an error propagates; these tests
check that everything outside the loop reads as after one
``finish_step`` call per sub-step.
"""

from __future__ import annotations

import types

import pytest

from repro.runtime.sov import DriveLoop, obstacle_ahead_scenario
from repro.scene.corridors import generate_corridor, make_corridor_sov
from repro.testing.invariants import drive_fingerprint
from repro.vehicle.battery import BatteryDepletedError
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


def _run(loop, per_sub_step):
    """Step *loop* to its end with one ``finish_step`` per sub-step, as
    a caller stepping the loop by hand does, or with ``finish_period``
    after each tick; return ``(now, steps left)`` at every control tick."""
    sov = loop.sov
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
    return ticks


def _drive(duration_s, per_sub_step):
    """:func:`_run` on a fresh obstacle-ahead drive: the ticks, the end
    ``(now, steps left)`` and the result."""
    loop = DriveLoop(obstacle_ahead_scenario(12.0), duration_s)
    ticks = _run(loop, per_sub_step)
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


def _outside_view(loop):
    """Everything about a drive the sub-step loop writes back."""
    sov = loop.sov
    ops = sov.ops
    return (
        loop.now,
        loop._steps_left,
        loop._min_clearance,
        sov.state,
        [(a.x_m, a.y_m, a.vx_mps, a.vy_mps) for a in sov.world.agents],
        sov.world.time_s,
        ops.distance_m,
        ops.energy_j,
        ops.collisions,
        sov.battery.charge_j,
    )


def _corridor_loop(name, duration_s):
    return DriveLoop(make_corridor_sov(generate_corridor(name, 0)), duration_s)


@pytest.mark.parametrize("corridor", ["pedestrian_platoon", "oncoming_agent"])
def test_reactive_ticks_see_the_same_drive_either_way(corridor, monkeypatch):
    seen = {}
    for per_sub_step in (True, False):
        loop = _corridor_loop(corridor, 3.05)
        sov = loop.sov
        assert sov.world.agents and sov.config.reactive_enabled
        views = seen[per_sub_step] = []
        reactive_tick = sov._reactive_tick

        def spy(now_s, loop=loop, views=views, reactive_tick=reactive_tick):
            views.append((now_s, _outside_view(loop)))
            reactive_tick(now_s)

        monkeypatch.setattr(sov, "_reactive_tick", spy)
        _run(loop, per_sub_step)
        views.append(("end", _outside_view(loop)))
    assert len(seen[True]) > 60
    assert seen[False] == seen[True]


def test_battery_runs_out_at_the_same_sub_step_either_way():
    outcomes = []
    for per_sub_step in (True, False):
        loop = _corridor_loop("pedestrian_platoon", 3.0)
        # Enough for 103.5 sub-steps: the 104th raises, in the fourth
        # sub-step of the sixth control period.
        loop.sov.battery.charge_j = 103.5 * loop._step_energy_j
        with pytest.raises(BatteryDepletedError) as info:
            _run(loop, per_sub_step)
        outcomes.append((str(info.value), _outside_view(loop)))
    assert outcomes[0] == outcomes[1]
    message, (_now, steps_left, *_rest) = outcomes[0]
    assert "remain" in message
    assert steps_left == 600 - 103
