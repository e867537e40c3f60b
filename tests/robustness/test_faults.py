"""Tests for the fault vocabulary and the runtime fault harness."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.robustness.faults import (
    EMPTY_SCENARIO,
    CameraFrameDropFault,
    CanBusFault,
    FaultHarness,
    FaultScenario,
    FaultWindow,
    GpsDenialFault,
    LatencySpikeFault,
    PerceptionCrashFault,
    PerceptionStallFault,
    SensorDropoutFault,
    SensorFreezeFault,
    SensorStuckValueFault,
    SteeringBiasFault,
)
from repro.runtime.canbus import CanBus
from repro.runtime.sensor_hub import FpgaSensorHub
from repro.scene.trajectory import StraightTrajectory


class TestFaultWindow:
    def test_half_open_interval(self):
        window = FaultWindow(1.0, 2.0)
        assert not window.active(0.999)
        assert window.active(1.0)
        assert window.active(1.999)
        assert not window.active(2.0)

    def test_open_ended_by_default(self):
        assert FaultWindow(0.5).active(1e9)
        assert FaultWindow(0.5).end_s == math.inf

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            FaultWindow(-0.1)
        with pytest.raises(ValueError):
            FaultWindow(2.0, 1.0)
        with pytest.raises(ValueError):
            FaultWindow(1.0, 1.0)

    def test_duration(self):
        assert FaultWindow(1.0, 3.5).duration_s == pytest.approx(2.5)


class TestFaultValidation:
    def test_unknown_sensor_rejected(self):
        for cls in (SensorDropoutFault, SensorFreezeFault):
            with pytest.raises(ValueError):
                cls("lidar", FaultWindow(0.0))
        with pytest.raises(ValueError):
            SensorStuckValueFault("sonarx", 1.0, FaultWindow(0.0))

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            CameraFrameDropFault(1.5, FaultWindow(0.0))
        with pytest.raises(ValueError):
            CanBusFault(FaultWindow(0.0), loss_prob=-0.1)
        with pytest.raises(ValueError):
            LatencySpikeFault(0.1, 2.0, FaultWindow(0.0))

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            CanBusFault(FaultWindow(0.0), extra_delay_s=-1e-3)
        with pytest.raises(ValueError):
            PerceptionStallFault(-0.1, FaultWindow(0.0))
        with pytest.raises(ValueError):
            LatencySpikeFault(-0.1, 0.5, FaultWindow(0.0))


#: Window edges and query times on one grid, so queries land exactly on
#: starts and ends.
_TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_WINDOWS = st.tuples(_TIMES, _TIMES).filter(lambda w: w[0] < w[1]).map(
    lambda w: FaultWindow(*w)
) | _TIMES.map(FaultWindow)
_BUILDERS = (
    lambda w: SensorDropoutFault("radar", w),
    lambda w: CanBusFault(w, loss_prob=0.5),
    lambda w: PerceptionStallFault(0.3, w),
    lambda w: SteeringBiasFault(-0.05, w),
    lambda w: GpsDenialFault(w),
)
#: Every kind the schedules draw, and one they never hold.
_KINDS = (
    "sensor_dropout",
    "can_bus",
    "perception_stall",
    "steering_bias",
    "gps_denial",
    "latency_spike",
)
_SCHEDULES = st.lists(
    st.tuples(st.sampled_from(_BUILDERS), _WINDOWS).map(lambda p: p[0](p[1])),
    max_size=8,
)


class TestFaultScenario:
    def test_queries_by_kind_and_time(self):
        scenario = FaultScenario(
            name="mix",
            faults=(
                SensorDropoutFault("radar", FaultWindow(1.0, 2.0)),
                GpsDenialFault(FaultWindow(3.0, 4.0)),
            ),
        )
        assert scenario.kinds == ["gps_denial", "sensor_dropout"]
        assert len(scenario.of_kind("sensor_dropout")) == 1
        assert scenario.active("sensor_dropout", 1.5)
        assert not scenario.active("sensor_dropout", 2.5)
        assert not scenario.active("gps_denial", 1.5)

    def test_absent_kind_and_closed_window_are_inactive(self):
        scenario = FaultScenario(
            name="bias",
            faults=(SteeringBiasFault(0.1, FaultWindow(1.0, 2.0)),),
        )
        # A kind the schedule does not hold, at any time.
        for now_s in (0.0, 1.5, 5.0):
            assert scenario.active("gps_denial", now_s) == []
        # A held kind whose window is closed: before, at its end, after.
        for now_s in (0.5, 2.0, 3.0):
            assert scenario.active("steering_bias", now_s) == []
        assert scenario.active("steering_bias", 1.0) == [scenario.faults[0]]
        harness = FaultHarness(scenario)
        assert harness.active_kinds(2.5) == ()
        assert harness.steering_bias_rad(2.5) == 0.0
        assert harness.injections == {}

    def test_requires_a_name(self):
        with pytest.raises(ValueError):
            FaultScenario(name="")

    @settings(max_examples=200, deadline=None)
    @given(schedule=_SCHEDULES, times=st.lists(_TIMES, max_size=12))
    def test_index_answers_as_the_schedule_filter(self, schedule, times):
        scenario = FaultScenario(name="drawn", faults=tuple(schedule))
        for kind in _KINDS:
            assert scenario.of_kind(kind) == [
                f for f in scenario.faults if f.kind == kind
            ]
            for now_s in times:
                assert scenario.active(kind, now_s) == [
                    f
                    for f in scenario.faults
                    if f.kind == kind and f.window.active(now_s)
                ]

    def test_index_survives_pickle_and_subset(self):
        # Pool workers receive their cells, fault schedules included,
        # pickled.
        scenario = FaultScenario(
            name="mix",
            faults=(
                CanBusFault(FaultWindow(0.5, 1.5), loss_prob=0.5),
                SteeringBiasFault(0.1, FaultWindow(1.0, 2.0)),
                CanBusFault(FaultWindow(1.0, 3.0), extra_delay_s=0.004),
            ),
        )
        copy = pickle.loads(pickle.dumps(scenario))
        assert copy == scenario
        assert copy.active("can_bus", 1.2) == list(scenario.faults[::2])
        assert copy.of_kind("steering_bias") == [scenario.faults[1]]
        subset = scenario.subset([2])
        assert subset.active("can_bus", 1.2) == [scenario.faults[2]]
        assert subset.of_kind("steering_bias") == []

    def test_empty_scenario_injects_nothing(self):
        harness = FaultHarness(EMPTY_SCENARIO)
        assert harness.radar_reading(7.0, 1.0) == 7.0
        assert not harness.vision_blinded(1.0)
        assert not harness.gps_denied(1.0)
        assert harness.perception_overhead_s(1.0) == 0.0
        assert harness.can_fault(1.0) is None
        assert harness.total_injections == 0


class TestHarnessSensorFaults:
    def test_radar_dropout_returns_none(self):
        harness = FaultHarness(
            FaultScenario(
                "s", (SensorDropoutFault("radar", FaultWindow(1.0, 2.0)),)
            )
        )
        assert harness.radar_reading(5.0, 0.5) == 5.0
        assert harness.radar_reading(5.0, 1.5) is None
        assert harness.radar_reading(5.0, 2.5) == 5.0
        assert harness.injections["sensor_dropout"] == 1

    def test_radar_freeze_repeats_last_prefault_reading(self):
        harness = FaultHarness(
            FaultScenario(
                "s", (SensorFreezeFault("radar", FaultWindow(1.0, 2.0)),)
            )
        )
        assert harness.radar_reading(9.0, 0.5) == 9.0
        # Frozen: the true range shrinks but the reading stays stale.
        assert harness.radar_reading(6.0, 1.2) == 9.0
        assert harness.radar_reading(4.0, 1.8) == 9.0
        assert harness.radar_reading(4.0, 2.2) == 4.0

    def test_radar_stuck_value_wins_over_truth(self):
        harness = FaultHarness(
            FaultScenario(
                "s",
                (SensorStuckValueFault("radar", 99.0, FaultWindow(0.0)),),
            )
        )
        assert harness.radar_reading(2.0, 0.1) == 99.0

    def test_camera_dropout_blinds_vision_not_radar(self):
        harness = FaultHarness(
            FaultScenario(
                "s", (SensorDropoutFault("camera", FaultWindow(0.0)),)
            )
        )
        assert harness.vision_blinded(0.1)
        assert harness.radar_reading(5.0, 0.1) == 5.0
        assert harness.sensor_faulted("camera", 0.1)
        assert not harness.sensor_faulted("radar", 0.1)

    def test_gps_dropout_equivalent_to_denial(self):
        dropout = FaultHarness(
            FaultScenario("a", (SensorDropoutFault("gps", FaultWindow(0.0)),))
        )
        denial = FaultHarness(
            FaultScenario("b", (GpsDenialFault(FaultWindow(0.0)),))
        )
        assert dropout.gps_denied(0.1) and denial.gps_denied(0.1)


class TestHarnessPerceptionFaults:
    def test_crash_window(self):
        harness = FaultHarness(
            FaultScenario("s", (PerceptionCrashFault(FaultWindow(1.0, 2.0)),))
        )
        assert not harness.perception_crashed(0.5)
        assert harness.perception_crashed(1.5)
        assert not harness.perception_crashed(2.5)

    def test_stalls_sum(self):
        harness = FaultHarness(
            FaultScenario(
                "s",
                (
                    PerceptionStallFault(0.2, FaultWindow(0.0, 5.0)),
                    PerceptionStallFault(0.3, FaultWindow(0.0, 5.0)),
                ),
            )
        )
        assert harness.perception_overhead_s(1.0) == pytest.approx(0.5)

    def test_latency_spikes_hit_at_the_configured_rate(self):
        harness = FaultHarness(
            FaultScenario(
                "s", (LatencySpikeFault(0.1, 0.5, FaultWindow(0.0)),)
            ),
            seed=3,
        )
        draws = [harness.perception_overhead_s(0.1) for _ in range(400)]
        hit_rate = sum(d > 0 for d in draws) / len(draws)
        assert 0.4 < hit_rate < 0.6
        assert all(d in (0.0, pytest.approx(0.1)) for d in draws)


class TestHarnessDeterminism:
    def test_same_seed_same_stream(self):
        scenario = FaultScenario(
            "s", (LatencySpikeFault(0.1, 0.5, FaultWindow(0.0)),)
        )
        a = FaultHarness(scenario, seed=11)
        b = FaultHarness(scenario, seed=11)
        assert [a.perception_overhead_s(0.1) for _ in range(50)] == [
            b.perception_overhead_s(0.1) for _ in range(50)
        ]

    def test_different_scenario_names_decorrelate_streams(self):
        fault = LatencySpikeFault(0.1, 0.5, FaultWindow(0.0))
        a = FaultHarness(FaultScenario("alpha", (fault,)), seed=11)
        b = FaultHarness(FaultScenario("beta", (fault,)), seed=11)
        assert [a.perception_overhead_s(0.1) for _ in range(50)] != [
            b.perception_overhead_s(0.1) for _ in range(50)
        ]


class TestCanBusFaultInjection:
    def test_total_loss_drops_every_frame(self):
        bus = CanBus()
        bus.set_fault(
            CanBusFault(FaultWindow(0.0), loss_prob=1.0),
            rng=np.random.default_rng(0),
        )
        for i in range(5):
            message = bus.send(i, now_s=i * 0.01)
            assert message.dropped
        assert bus.deliver_due(1e9) == []
        assert bus.frames_dropped == 5
        assert bus.loss_rate == 1.0

    def test_dropped_frames_still_occupy_the_wire(self):
        bus = CanBus()
        bus.set_fault(
            CanBusFault(FaultWindow(0.0), loss_prob=1.0),
            rng=np.random.default_rng(0),
        )
        bus.send("lost", now_s=0.0)
        bus.set_fault(None)
        survivor = bus.send("kept", now_s=0.0)
        # The corrupted frame serialized first, so the survivor queues
        # behind it instead of starting at t=0.
        assert survivor.deliver_at_s == pytest.approx(
            2 * bus.frame_time_s + bus.fixed_overhead_s
        )

    def test_extra_delay_shifts_delivery(self):
        bus = CanBus()
        nominal = bus.nominal_latency_s()
        bus.set_fault(
            CanBusFault(FaultWindow(0.0), extra_delay_s=0.004),
            rng=np.random.default_rng(0),
        )
        message = bus.send("slow", now_s=0.0)
        assert not message.dropped
        assert message.latency_s == pytest.approx(nominal + 0.004)

    def test_fault_without_rng_rejected(self):
        bus = CanBus()
        with pytest.raises(ValueError):
            bus.set_fault(CanBusFault(FaultWindow(0.0), loss_prob=0.5))

    def test_partial_loss_rate_tracks_probability(self):
        bus = CanBus()
        bus.set_fault(
            CanBusFault(FaultWindow(0.0), loss_prob=0.3),
            rng=np.random.default_rng(7),
        )
        for i in range(500):
            bus.send(i, now_s=i * 0.01)
        assert 0.2 < bus.loss_rate < 0.4


class TestSensorHubFrameDrops:
    def test_frame_drops_leave_index_gaps(self):
        hub = FpgaSensorHub.build(
            StraightTrajectory(speed_mps=5.0), camera_rate_hz=10.0
        )
        baseline = hub.capture(2.0)
        harness = FaultHarness(
            FaultScenario(
                "drops", (CameraFrameDropFault(0.5, FaultWindow(0.0)),)
            ),
            seed=5,
        )
        hub2 = FpgaSensorHub.build(
            StraightTrajectory(speed_mps=5.0), camera_rate_hz=10.0
        )
        dropped = hub2.capture(2.0, fault_harness=harness)
        assert len(dropped.frames) < len(baseline.frames)
        kept = [frame.index for frame in dropped.frames]
        # Indices follow the trigger schedule, so losses appear as gaps.
        assert kept == sorted(kept)
        assert len(set(kept)) == len(kept)
        assert max(kept) >= len(kept)
        assert harness.injections["camera_frame_drop"] > 0

    def test_no_harness_means_no_drops(self):
        hub = FpgaSensorHub.build(
            StraightTrajectory(speed_mps=5.0), camera_rate_hz=10.0
        )
        sequence = hub.capture(2.0)
        assert [f.index for f in sequence.frames] == list(
            range(len(sequence.frames))
        )
