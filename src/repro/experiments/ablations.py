"""Ablation studies for the design choices the paper (and DESIGN.md) make.

Each ablation removes or varies one ingredient of a design and measures
what it costs — the "why this piece exists" evidence:

* ``ablate_sync`` — the two principles of the hardware synchronizer
  (common trigger, near-sensor timestamps) removed one at a time.
* ``ablate_rpr`` — the RPR engine's parameters (FIFO size, Tx rate,
  per-file vs per-burst handshakes).
* ``ablate_cache`` — cache geometry vs point-cloud traffic (why bigger
  caches don't fix irregular kernels).
* ``ablate_em_resolution`` — EM planner cost vs lateral resolution (why
  lane-granularity planning is cheap).
* ``ablate_reactive`` — the reactive path's latency budget vs coverage.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple


from ..core import calibration
from ..core.latency_model import LatencyModel
from ..hw.cache import CacheConfig, CacheSimulator
from ..hw.rpr import RprEngine, RprEngineConfig, conventional_dma_reconfiguration
from ..lidar.kernels import run_kernel
from ..lidar.pointcloud import simulate_lidar_scan
from ..planning.em_planner import EmPlanner
from ..scene.world import Obstacle
from ..sensors.base import SensorClock
from ..sync.delays import camera_pipeline, imu_pipeline
from ..sync.hardware_sync import HardwareSynchronizer
from ..sync.matching import SyncReport, TimedRecord, associate_nearest
from ..sync.software_sync import SoftwareSyncSimulation
from .base import ExperimentResult, Row, register


# ---------------------------------------------------------------------------
# Sensor-sync ablation
# ---------------------------------------------------------------------------


def _sync_variant(
    common_trigger: bool, near_sensor_timestamps: bool, seed: int = 0
) -> SyncReport:
    """One synchronization design point over a 10 s window.

    * common trigger off: camera and IMU free-run with offset clocks;
    * near-sensor timestamps off: samples are stamped at application
      arrival after the variable pipeline.
    """
    duration = 10.0
    cam_pipe = camera_pipeline(seed=seed)
    imu_pipe = imu_pipeline(seed=seed + 1)
    if common_trigger:
        sync = HardwareSynchronizer(seed=seed)
        sync.init_timer_from_gps(0.0)
        imu_times, cam_times = sync.trigger_schedule(duration)
    else:
        cam_clock = SensorClock(offset_s=0.02)
        imu_clock = SensorClock(offset_s=-0.01)
        cam_times = [
            cam_clock.true_from_local(k / 30.0)
            for k in range(int(duration * 30) + 1)
        ]
        imu_times = [
            imu_clock.true_from_local(k / 240.0)
            for k in range(int(duration * 240) + 1)
        ]
        cam_times = [t for t in cam_times if 0 <= t <= duration]
        imu_times = [t for t in imu_times if 0 <= t <= duration]
    cam_records = []
    for i, trig in enumerate(cam_times):
        if near_sensor_timestamps:
            stamp = trig  # interface timestamp + constant-delay compensation
        else:
            stamp = cam_pipe.arrival_time_s(trig)
        cam_records.append(TimedRecord("camera", trig, stamp, i))
    imu_records = []
    for j, trig in enumerate(imu_times):
        if near_sensor_timestamps:
            stamp = trig
        else:
            stamp = imu_pipe.arrival_time_s(trig)
        imu_records.append(TimedRecord("imu", trig, stamp, j))
    return SyncReport.from_pairs(associate_nearest(cam_records, imu_records))


@register("ablate_sync")
def ablate_sync() -> ExperimentResult:
    """Remove each synchronizer principle and measure pairing error."""
    full = _sync_variant(common_trigger=True, near_sensor_timestamps=True)
    trigger_only = _sync_variant(True, False)
    timestamps_only = _sync_variant(False, True)
    neither = _sync_variant(False, False)
    rows = [
        Row("full_design_mean_error", None, full.mean_abs_offset_s, "s",
            "common trigger + near-sensor timestamps"),
        Row("trigger_only_mean_error", None, trigger_only.mean_abs_offset_s,
            "s", "app-layer timestamps reintroduce pipeline jitter"),
        Row("timestamps_only_mean_error", None,
            timestamps_only.mean_abs_offset_s, "s",
            "free-running clocks reintroduce trigger skew"),
        Row("neither_mean_error", None, neither.mean_abs_offset_s, "s",
            "the software-only baseline"),
    ]
    return ExperimentResult(
        "ablate_sync", "Hardware synchronizer principle ablation", rows
    )


# ---------------------------------------------------------------------------
# RPR engine ablation
# ---------------------------------------------------------------------------


@register("ablate_rpr")
def ablate_rpr() -> ExperimentResult:
    """FIFO size, Tx rate, and handshake policy vs throughput."""
    size = 256 * 1024  # keep simulation cheap; steady-state dominates
    rows = []
    for fifo in (32, 128, 512):
        engine = RprEngine(RprEngineConfig(fifo_bytes=fifo))
        rows.append(
            Row(
                f"fifo_{fifo}B_throughput",
                None,
                engine.reconfigure(size).throughput_bps / (1024 * 1024),
                "MB/s",
                "128 B is already sufficient (paper: 'an 128-byte FIFO is"
                " sufficient')",
            )
        )
    for tx in (2, 4, 8):
        engine = RprEngine(RprEngineConfig(tx_bytes_per_cycle=tx))
        rows.append(
            Row(
                f"tx_{tx}Bpc_throughput",
                None,
                engine.reconfigure(size).throughput_bps / (1024 * 1024),
                "MB/s",
                "below the 4 B/cycle ICAP rate the Tx starves the FIFO",
            )
        )
    dma = conventional_dma_reconfiguration(size)
    rows.append(
        Row(
            "per_burst_handshake_throughput",
            None,
            dma.throughput_bps / (1024 * 1024),
            "MB/s",
            "the design the paper replaces",
        )
    )
    return ExperimentResult("ablate_rpr", "RPR engine parameter ablation", rows)


# ---------------------------------------------------------------------------
# Cache geometry ablation
# ---------------------------------------------------------------------------


@register("ablate_cache")
def ablate_cache() -> ExperimentResult:
    """Cache size vs normalized traffic for the localization kernel.

    Irregular kd-tree access only stops thrashing when the cache holds the
    entire cloud — the cliff that makes "just add cache" uneconomical for
    full-size LiDAR clouds.
    """
    scan = simulate_lidar_scan(n_beams=8, n_azimuth=120, seed=1).downsampled(0.7)
    trace = run_kernel("localization", scan).trace.byte_addresses(16)
    cloud_bytes = len(scan) * 16
    rows = []
    for fraction in (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0):
        size = max(1024, int(cloud_bytes * fraction // 256) * 256)
        config = CacheConfig(size_bytes=size, line_bytes=64, associativity=4)
        stats = CacheSimulator(config).run_trace(trace)
        rows.append(
            Row(
                f"cache_{fraction:.4g}x_cloud",
                None,
                stats.normalized_traffic,
                "x optimal",
            )
        )
    return ExperimentResult(
        "ablate_cache", "Cache size vs point-cloud traffic", rows
    )


# ---------------------------------------------------------------------------
# EM planner resolution ablation
# ---------------------------------------------------------------------------


#: Timed ``plan`` calls per resolution; a row is their median, so one
#: slow call cannot invert the ordering.
_EM_TIMED_CALLS = 3


@register("ablate_em_resolution")
def ablate_em_resolution() -> ExperimentResult:
    """Planner cost vs lateral resolution.

    The paper's 33x planner gap is a *granularity* gap: lane-level
    planning needs ~1 m decisions; Apollo-style planners sample
    centimeters.  Cost grows roughly quadratically in lateral resolution.
    ``plan`` is pure, so each row is the median of repeated calls.
    """
    obstacle = Obstacle(20.0, 0.0, 0.8)
    rows = []
    for lateral_step in (1.0, 0.5, 0.25, 0.2):
        planner = EmPlanner(lateral_step_m=lateral_step)
        elapsed = []
        for _ in range(_EM_TIMED_CALLS):
            start = time.perf_counter()
            planner.plan(obstacles=[obstacle])
            elapsed.append(time.perf_counter() - start)
        rows.append(
            Row(
                f"lateral_{lateral_step}m_latency",
                None,
                statistics.median(elapsed),
                "s",
            )
        )
    return ExperimentResult(
        "ablate_em_resolution", "EM planner cost vs lateral resolution", rows
    )


# ---------------------------------------------------------------------------
# Reactive-path latency ablation
# ---------------------------------------------------------------------------


@register("ablate_reactive")
def ablate_reactive() -> ExperimentResult:
    """Reactive-path latency vs avoidance coverage.

    The paper's 30 ms reactive path reaches 4.1 m, 0.18 m above the 3.92 m
    braking floor.  Sweeping the path latency shows how quickly the safety
    margin erodes — why bypassing the computing system matters.
    """
    model = LatencyModel()
    floor = model.braking_distance_m
    rows = []
    for latency_ms in (10, 30, 60, 100, 149):
        reach = model.min_avoidable_distance_m(latency_ms / 1000.0)
        rows.append(
            Row(
                f"latency_{latency_ms}ms_reach",
                4.1 if latency_ms == 30 else None,
                reach,
                "m",
                f"margin over braking floor: {reach - floor:.2f} m",
            )
        )
    return ExperimentResult(
        "ablate_reactive", "Reactive-path latency vs coverage", rows
    )
