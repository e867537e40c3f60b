"""Property-based tests for the world geometry and corridor generators."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.scene.corridors import (
    SPAWN_CLEAR_RADIUS_M,
    corridor_names,
    generate_corridor,
)
from repro.scene.world import Obstacle, World

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
radii = st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False)


class TestObstacleDistanceProperties:
    @given(ox=coords, oy=coords, r=radii, px=coords, py=coords)
    def test_sign_encodes_containment(self, ox, oy, r, px, py):
        # distance_to is negative exactly when the point is inside.
        o = Obstacle(x_m=ox, y_m=oy, radius_m=r)
        center_dist = math.hypot(ox - px, oy - py)
        d = o.distance_to(px, py)
        assert d == pytest.approx(center_dist - r)
        if center_dist < r:
            assert d < 0
        elif center_dist > r:
            assert d > 0

    @given(ox=coords, oy=coords, r=radii)
    def test_center_is_most_negative(self, ox, oy, r):
        o = Obstacle(x_m=ox, y_m=oy, radius_m=r)
        assert o.distance_to(ox, oy) == pytest.approx(-r)


class TestFovBoundary:
    def _world_with_bearing(self, bearing_rad, distance=10.0):
        return World(
            obstacles=[
                Obstacle(
                    x_m=distance * math.cos(bearing_rad),
                    y_m=distance * math.sin(bearing_rad),
                    radius_m=0.5,
                )
            ]
        )

    def test_exactly_on_the_half_angle_is_visible(self):
        fov = math.pi / 2
        w = self._world_with_bearing(fov / 2)
        assert w.nearest_obstruction(0.0, 0.0, 0.0, fov_rad=fov) is not None

    def test_just_past_the_half_angle_is_not(self):
        fov = math.pi / 2
        w = self._world_with_bearing(fov / 2 + 1e-6)
        assert w.nearest_obstruction(0.0, 0.0, 0.0, fov_rad=fov) is None

    @given(bearing=st.floats(-math.pi, math.pi), heading=st.floats(-math.pi, math.pi))
    def test_visibility_matches_the_angular_test(self, bearing, heading):
        fov = math.pi / 2
        w = self._world_with_bearing(bearing)
        hit = w.nearest_obstruction(0.0, 0.0, heading, fov_rad=fov)
        delta = math.fmod(bearing - heading + math.pi, 2.0 * math.pi)
        if delta <= 0:
            delta += 2.0 * math.pi
        delta -= math.pi
        if abs(delta) < fov / 2 - 1e-9:
            assert hit is not None
        elif abs(delta) > fov / 2 + 1e-9:
            assert hit is None

    @given(d1=st.floats(2.0, 40.0), d2=st.floats(2.0, 40.0))
    def test_nearest_is_minimal(self, d1, d2):
        w = World(
            obstacles=[
                Obstacle(d1, 0.0, radius_m=0.5, obstacle_id=1),
                Obstacle(d2, 0.0, radius_m=0.5, obstacle_id=2),
            ]
        )
        distance, _entity = w.nearest_obstruction(0.0, 0.0, 0.0)
        assert distance == pytest.approx(min(d1, d2) - 0.5)


class TestSpawnClearance:
    @pytest.mark.parametrize("name", corridor_names())
    @pytest.mark.parametrize("seed", range(8))
    def test_no_obstacle_near_the_start_pose(self, name, seed):
        # The generator itself raises on violation; assert the property
        # directly anyway so a relaxed check cannot slip through.
        scenario = generate_corridor(name, seed)
        for obstacle in scenario.world.obstacles:
            assert obstacle.distance_to(0.0, 0.0) >= SPAWN_CLEAR_RADIUS_M

    @pytest.mark.parametrize("name", corridor_names())
    def test_agents_spawn_off_the_immediate_pose(self, name):
        # Moving agents may approach later, but never start on top of
        # the ego.
        scenario = generate_corridor(name, seed=0)
        for agent in scenario.world.agents:
            assert math.hypot(agent.x_m, agent.y_m) > agent.radius_m


# -- advancing by k sub-steps in one call ------------------------------------

speeds = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
sub_steps = st.integers(1, 25)
sub_step_dts = st.sampled_from([0.005, 0.02, 0.1, 0.0])


def _agent_floats(world):
    return [
        (a.agent_id, a.x_m, a.y_m, a.vx_mps, a.vy_mps, a.radius_m, a.kind)
        for a in world.agents
    ]


def _one_call_equals_k_calls(make_world, dt, steps):
    once, stepped = make_world(), make_world()
    once.advance(dt, steps=steps)
    for _ in range(steps):
        stepped.advance(dt)
    assert _agent_floats(once) == _agent_floats(stepped)
    assert once.time_s == stepped.time_s


@given(
    agents=st.lists(st.tuples(coords, coords, speeds, speeds), max_size=4),
    start=st.floats(0.0, 100.0),
    dt=sub_step_dts,
    steps=sub_steps,
)
def test_world_advance_by_steps_is_bit_identical(agents, start, dt, steps):
    from repro.scene.world import Agent

    def make_world():
        return World(
            agents=[
                Agent(agent_id=i, x_m=x, y_m=y, vx_mps=vx, vy_mps=vy)
                for i, (x, y, vx, vy) in enumerate(agents)
            ],
            time_s=start,
        )

    _one_call_equals_k_calls(make_world, dt, steps)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 10_000),
    warm=st.integers(0, 400),
    dt=sub_step_dts,
    steps=sub_steps,
)
def test_scripted_world_advance_by_steps_is_bit_identical(
    seed, index, warm, dt, steps
):
    """Scripted agents cross phase boundaries inside the k sub-steps."""
    from repro.scene.procgen import DEFAULT_SPACE

    def make_world():
        world = DEFAULT_SPACE.sample(seed, index).world
        for _ in range(warm):
            world.advance(0.005)
        return world

    _one_call_equals_k_calls(make_world, dt, steps)
