"""Tests for the chaos campaign engine (sampler, envelope, replay)."""

import pytest

from repro.fleetops.cells import ChaosCell, parse_cell_id, run_cell
from repro.robustness.chaos import (
    REACTIVE_KILLING,
    VISION_BLINDING,
    ChaosConfig,
    FaultSpace,
    aggregate_envelope,
    drive_seed,
    run_chaos_campaign,
    run_chaos_drive,
    scenario_for_drive,
)


def sampled_kind_sets(space, n=300, seed=0):
    """The vocabulary-kind combination of each of *n* sampled scenarios."""
    sets = []
    for index in range(n):
        scenario = scenario_for_drive(space, seed, index)
        # The description records the sampled vocabulary kinds.
        sets.append(set(scenario.description.split(": ")[1].split(" + ")))
    return sets


class TestFaultSpace:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultSpace(intensity=0.0)
        with pytest.raises(ValueError):
            FaultSpace(kind_weights=())
        with pytest.raises(ValueError):
            FaultSpace(kind_weights=(("not_a_kind", 1.0),))
        with pytest.raises(ValueError):
            FaultSpace(co_occurrence_prob=1.5)

    def test_with_intensity_rescales(self):
        space = FaultSpace().with_intensity(2.0)
        assert space.intensity == 2.0
        assert FaultSpace().intensity == 1.0

    def test_sampler_is_deterministic(self):
        space = FaultSpace()
        assert scenario_for_drive(space, 3, 9) == scenario_for_drive(
            space, 3, 9
        )
        assert scenario_for_drive(space, 3, 9) != scenario_for_drive(
            space, 3, 10
        )

    def test_windows_respect_the_onset_range(self):
        space = FaultSpace(onset_window_s=(0.5, 2.0))
        for index in range(100):
            scenario = scenario_for_drive(space, 0, index)
            for fault in scenario.faults:
                assert 0.5 <= fault.window.start_s <= 2.0

    def test_durations_scale_with_intensity(self):
        lo, hi = FaultSpace().duration_range_s
        for intensity in (1.0, 2.0):
            space = FaultSpace().with_intensity(intensity)
            for index in range(50):
                scenario = scenario_for_drive(space, 0, index)
                for fault in scenario.faults:
                    assert (
                        lo * intensity
                        <= fault.window.duration_s
                        <= hi * intensity
                    )

    def test_double_blind_pairs_gated_below_threshold(self):
        # At nominal intensity no scenario may blind vision while also
        # killing the radar — that pair is unsurvivable by design.
        for kinds in sampled_kind_sets(FaultSpace(), n=400):
            assert not (kinds & VISION_BLINDING and kinds & REACTIVE_KILLING)

    def test_double_blind_pairs_admitted_past_threshold(self):
        space = FaultSpace().with_intensity(3.0)
        assert any(
            kinds & VISION_BLINDING and kinds & REACTIVE_KILLING
            for kinds in sampled_kind_sets(space, n=400)
        )

    def test_scenarios_carry_at_most_a_pair(self):
        for kinds in sampled_kind_sets(FaultSpace(), n=200):
            assert 1 <= len(kinds) <= 2


class TestCampaign:
    def test_config_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            ChaosConfig(n_drives=0)

    def test_drive_seeds_are_stable_and_distinct(self):
        seeds = [drive_seed(0, k) for k in range(50)]
        assert seeds == [drive_seed(0, k) for k in range(50)]
        assert len(set(seeds)) == 50

    def test_envelope_accounting_is_consistent(self):
        result = run_chaos_campaign(ChaosConfig(n_drives=6, seed=1))
        envelope = result.envelope
        assert envelope.n_drives == 6
        assert envelope.collisions == sum(r.collided for r in result.records)
        assert envelope.collision_rate == envelope.collisions / 6
        assert envelope.failing_indices == tuple(
            r.index for r in result.records if r.collided
        )
        for record in result.records:
            assert sum(record.mode_residency.values()) == pytest.approx(1.0)
        total = sum(envelope.mode_residency_mean.values())
        assert total == pytest.approx(1.0)

    def test_envelope_as_dict_is_flat_and_numeric(self):
        result = run_chaos_campaign(ChaosConfig(n_drives=4, seed=2))
        flat = result.envelope.as_dict()
        assert flat["n_drives"] == 4.0
        assert all(isinstance(v, float) for v in flat.values())

    def test_aggregate_rejects_empty_records(self):
        with pytest.raises(ValueError):
            aggregate_envelope(ChaosConfig(n_drives=1), [])


class TestReplay:
    def test_same_drive_reruns_bit_identically(self):
        config = ChaosConfig(n_drives=5, seed=4)
        rec_a, res_a = run_chaos_drive(config, 3)
        rec_b, res_b = run_chaos_drive(config, 3)
        assert rec_a == rec_b
        assert res_a.final_state.x_m == res_b.final_state.x_m
        assert res_a.ops.mode_ticks == res_b.ops.mode_ticks

    def test_replay_matches_the_campaign_record(self):
        config = ChaosConfig(n_drives=4, seed=8)
        campaign = run_chaos_campaign(config)
        record = campaign.records[2]
        cell_id = ChaosCell(config, 2).cell_id
        assert cell_id == "chaos:drill-lane:8:2:net"
        replayed = run_cell(parse_cell_id(cell_id)).record
        assert replayed.scenario_name == record.scenario_name
        assert replayed.fault_kinds == record.fault_kinds
        assert replayed.collided == record.collided
        assert replayed.final_mode == record.final_mode
        assert replayed.min_clearance_m == record.min_clearance_m
        assert replayed.mode_residency == record.mode_residency

    def test_replay_can_drop_the_safety_net(self):
        on, off = (
            run_cell(parse_cell_id(f"chaos:drill-lane:0:0:{arm}")).record
            for arm in ("net", "raw")
        )
        # The sampled scenario is a function of (seed, index) only.
        assert on.scenario_name == off.scenario_name
        assert on.fault_kinds == off.fault_kinds
        # With the supervisor disabled the mode never leaves NOMINAL.
        assert off.final_mode == "NOMINAL"
        assert off.mode_residency["NOMINAL"] == pytest.approx(1.0)


class TestCorridorCampaigns:
    """Chaos campaigns routed down the multi-obstacle corridor suite."""

    def test_unknown_corridor_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="corridor"):
            ChaosConfig(n_drives=1, corridor="no_such_corridor")

    def test_campaign_drives_the_corridor_world(self):
        from repro.scene.corridors import generate_corridor

        config = ChaosConfig(n_drives=1, seed=0, corridor="slalom")
        _record, result = run_chaos_drive(config, 0)
        corridor = generate_corridor("slalom", drive_seed(0, 0))
        # The drive ran long enough for the corridor, not the drill lane.
        assert result.ops.control_ticks == pytest.approx(
            corridor.duration_s * 10.0, abs=2
        )

    def test_sampled_faults_compose_with_builtin_schedules(self):
        # A degraded corridor keeps its own faults and adds the sampled
        # ones on top: the drive record's kind set covers both sources.
        from repro.scene.corridors import generate_corridor

        config = ChaosConfig(
            n_drives=1, seed=0, corridor="narrow_gap_gps_denied"
        )
        sampled = scenario_for_drive(config.space, 0, 0)
        corridor = generate_corridor("narrow_gap_gps_denied", drive_seed(0, 0))
        record, _result = run_chaos_drive(config, 0)
        builtin_kinds = {f.kind for f in corridor.fault_scenario.faults}
        sampled_kinds = {f.kind for f in sampled.faults}
        assert builtin_kinds | sampled_kinds <= set(record.fault_kinds)

    @pytest.mark.parametrize(
        "corridor",
        [
            "slalom",
            "narrow_gap",
            "occluded_crossing",
            "oncoming_agent",
            "pedestrian_platoon",
            "cluttered_stop",
            "slalom_flaky_camera",
            "narrow_gap_gps_denied",
            "cluttered_stop_lossy_can",
            "occluded_crossing_stalled",
        ],
    )
    def test_replay_is_bit_identical_on_every_corridor(self, corridor):
        config = ChaosConfig(n_drives=2, seed=7, corridor=corridor)
        cell_id = ChaosCell(config, 1).cell_id
        assert cell_id == f"chaos:{corridor}:7:1:net"
        spec = parse_cell_id(cell_id)
        assert run_cell(spec).identity() == run_cell(spec).identity()

    def test_parametrized_corridors_cover_the_whole_registry(self):
        from repro.scene.corridors import corridor_names

        params = {
            "slalom",
            "narrow_gap",
            "occluded_crossing",
            "oncoming_agent",
            "pedestrian_platoon",
            "cluttered_stop",
            "slalom_flaky_camera",
            "narrow_gap_gps_denied",
            "cluttered_stop_lossy_can",
            "occluded_crossing_stalled",
        }
        assert params == set(corridor_names())

    def test_protected_corridor_campaign_stays_collision_free(self):
        result = run_chaos_campaign(
            ChaosConfig(n_drives=6, seed=1, safety_net=True, corridor="slalom")
        )
        assert result.envelope.collision_rate == 0.0
        for record in result.records:
            assert sum(record.mode_residency.values()) == pytest.approx(1.0)


class TestSceneProviderRouting:
    """Chaos campaigns routed through the named scene-provider registry."""

    def test_qualified_procgen_scene_is_accepted(self):
        config = ChaosConfig(n_drives=1, corridor="procgen:crossroads")
        assert config.corridor == "procgen:crossroads"

    def test_unknown_provider_scene_lists_the_vocabulary(self):
        with pytest.raises(ValueError, match="procgen:crossroads"):
            ChaosConfig(n_drives=1, corridor="procgen:roundabout")

    def test_chaos_drive_over_a_generated_scene_is_deterministic(self):
        from repro.testing.invariants import drive_fingerprint

        config = ChaosConfig(
            n_drives=1, seed=3, safety_net=True, corridor="procgen:crossroads"
        )
        record_a, result_a = run_chaos_drive(config, 0)
        record_b, result_b = run_chaos_drive(config, 0)
        assert drive_fingerprint(result_a) == drive_fingerprint(result_b)
        assert record_a.fault_kinds == record_b.fault_kinds

    def test_generated_scene_resolves_per_drive_seed(self):
        from repro.scene.providers import resolve_scene

        scene = resolve_scene("procgen:straight", drive_seed(3, 0))
        other = resolve_scene("procgen:straight", drive_seed(3, 1))
        assert scene.topology == other.topology == "straight"
        assert scene.generator_seed != other.generator_seed
