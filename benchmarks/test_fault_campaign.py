"""Fault-campaign benchmarks: the safety-net ablation and determinism."""

from repro.experiments import run_experiment
from repro.experiments.fault_campaign import (
    EXPECTED_UNSAFE,
    default_scenarios,
    run_campaign,
    run_drill,
)


def test_fault_campaign_experiment(benchmark, record_table):
    result = benchmark.pedantic(
        run_experiment, args=("fault_campaign",), iterations=1, rounds=1
    )
    record_table(result)
    # The paper's safety claim: with the reactive path and the degradation
    # supervisor in place, every injected failure is survived...
    assert result.row("collisions_with_safety_net").measured == 0.0
    # ...and the unprotected baseline demonstrably is not safe.
    assert result.row("collisions_without_safety_net").measured >= len(
        EXPECTED_UNSAFE
    )
    assert result.row("reactive_interventions").measured > 0
    assert 0.0 < result.row("worst_module_availability").measured <= 1.0
    assert result.row("module_restarts").measured > 0
    assert result.row("mean_time_to_repair").measured > 0


def test_safety_net_prevents_every_collision():
    for drill in run_campaign(safety_net=True):
        assert not drill.collided, drill.scenario


def test_unprotected_baseline_collides_where_expected():
    outcomes = {
        drill.scenario: drill.collided
        for drill in run_campaign(safety_net=False)
    }
    for name in EXPECTED_UNSAFE:
        assert outcomes[name], f"{name} should collide without the net"
    # Scenarios that leave vision intact and the command path up stay safe
    # even unprotected — the ablation is targeted, not a foregone crash.
    assert not all(outcomes.values())


def test_campaign_is_deterministic_per_seed():
    # Same scenario + same seed => bit-identical drive metrics.
    for scenario in default_scenarios():
        a = run_drill(scenario, safety_net=True, seed=7)
        b = run_drill(scenario, safety_net=True, seed=7)
        assert a.collided == b.collided
        assert a.stopped == b.stopped
        assert a.final_mode == b.final_mode
        assert a.final_state.x_m == b.final_state.x_m
        assert a.final_state.speed_mps == b.final_state.speed_mps
        assert a.min_obstacle_clearance_m == b.min_obstacle_clearance_m
        assert a.ops.reactive_overrides == b.ops.reactive_overrides
        assert a.ops.reactive_holds == b.ops.reactive_holds
        assert a.ops.proactive_skips == b.ops.proactive_skips
        assert a.ops.fallback_commands == b.ops.fallback_commands
        assert a.ops.can_frames_dropped == b.ops.can_frames_dropped
        assert a.ops.faults_injected == b.ops.faults_injected
        assert a.ops.mode_ticks == b.ops.mode_ticks
        assert a.latency.mean_s == b.latency.mean_s
        if a.health is not None:
            assert b.health is not None
            assert a.health.total_restarts == b.health.total_restarts
            assert a.health.total_downtime_s == b.health.total_downtime_s


def test_different_seeds_still_satisfy_safety_invariant():
    # The zero-collision guarantee is not a single-seed accident.
    for seed in (1, 2, 3):
        for drill in run_campaign(safety_net=True, seed=seed):
            assert not drill.collided, (drill.scenario, seed)
