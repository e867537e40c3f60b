"""Pipelined execution of the SoV dataflow (paper Sec. IV).

"Sensing, perception, and planning are serialized; they are all on the
critical path of the end-to-end latency.  We pipeline the three modules to
improve the throughput, which is dictated by the slowest stage."

The scheduler replays many frames through the three-stage pipeline using
the standard pipeline recurrence: a frame starts in a stage when both the
frame's previous stage and the stage's previous frame have finished.  It
reports per-frame end-to-end latency (which pipelining does *not* reduce)
and sustained throughput (which it does).

Fault-aware scheduling: ``run`` optionally takes a degradation-mode
schedule; frames processed in a degraded mode shed tasks (KCF tracking,
detection cadence, or the whole pipeline) under the default
:class:`~repro.runtime.shedding.LoadShedder` policy, exactly as the
closed-loop SoV does, so the executor can quantify what shedding buys:
a shed frame is never slower than its un-shed twin because the latency
samples are identical and shedding only zeroes terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import calibration
from ..robustness.degradation import DegradationMode
from .dataflow import SovDataflow, paper_dataflow
from .shedding import LoadShedder
from .telemetry import LatencyStats


@dataclass(frozen=True)
class FrameTiming:
    """Per-stage timing of one frame through the pipeline."""

    frame_index: int
    arrival_s: float
    stage_start_s: Tuple[float, ...]
    stage_finish_s: Tuple[float, ...]

    @property
    def completion_s(self) -> float:
        return self.stage_finish_s[-1]

    @property
    def latency_s(self) -> float:
        """End-to-end latency including any pipeline queueing."""
        return self.completion_s - self.arrival_s

    @property
    def service_latency_s(self) -> float:
        """Pure processing latency (no queueing): sum of stage services."""
        return sum(
            f - s for s, f in zip(self.stage_start_s, self.stage_finish_s)
        )


@dataclass
class PipelineReport:
    """Result of a pipelined run."""

    timings: List[FrameTiming]
    stats: LatencyStats
    throughput_hz: float
    bottleneck_stage: str
    #: Shed-task counts per degradation mode (empty without a schedule).
    sheds_by_mode: Dict[str, int] = field(default_factory=dict)
    #: Frames processed with the proactive pipeline bypassed entirely.
    frames_bypassed: int = 0

    def meets_throughput_requirement(
        self, required_hz: float = calibration.THROUGHPUT_REQUIREMENT_HZ
    ) -> bool:
        return self.throughput_hz >= required_hz


class PipelinedExecutor:
    """Replays frames through sensing -> perception -> planning."""

    def __init__(
        self,
        dataflow: Optional[SovDataflow] = None,
        frame_rate_hz: float = 10.0,
        seed: int = 0,
    ) -> None:
        if frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        self.dataflow = dataflow or paper_dataflow()
        self.frame_rate_hz = frame_rate_hz
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        n_frames: int,
        mode_schedule: Optional[Callable[[int], DegradationMode]] = None,
        tracer=None,
    ) -> PipelineReport:
        """Replay *n_frames* through the pipeline.

        *mode_schedule* maps a frame index to the degradation mode the
        vehicle held when that frame arrived; frames in degraded modes
        shed work per the default :class:`LoadShedder` policy
        (fault-aware scheduling).  With no schedule every frame runs
        NOMINAL and the behaviour — including the RNG stream — is
        identical to the unscheduled executor.

        A :class:`~repro.observability.tracing.Tracer` passed as *tracer*
        records one span per (frame, stage) on ``pipe:<stage>`` tracks —
        the Fig. 6 pipeline occupancy picture, viewable in Perfetto.
        Stage occupancy is sequential per stage by the pipeline
        recurrence, so each track is overlap-free by construction.
        """
        if n_frames <= 0:
            raise ValueError("need at least one frame")
        shedder = LoadShedder()
        stages = SovDataflow.STAGES
        stats = LatencyStats()
        timings: List[FrameTiming] = []
        frames_bypassed = 0
        prev_finish = {stage: 0.0 for stage in stages}
        stage_busy = {stage: 0.0 for stage in stages}
        for k in range(n_frames):
            arrival = k / self.frame_rate_hz
            mode = (
                mode_schedule(k) if mode_schedule else DegradationMode.NOMINAL
            )
            shed = shedder.plan(mode, k)
            shedder.account(mode, shed)
            frames_bypassed += int(shed.bypass_pipeline)
            latencies, _total = self.dataflow.sample_iteration(
                self._rng, skip=shed.skip_tasks or None
            )
            services = {
                stage: self.dataflow.stage_latency(stage, latencies)
                for stage in stages
            }
            starts, finishes = [], []
            ready = arrival
            for stage in stages:
                start = max(ready, prev_finish[stage])
                finish = start + services[stage]
                prev_finish[stage] = finish
                stage_busy[stage] += services[stage]
                starts.append(start)
                finishes.append(finish)
                ready = finish
            timing = FrameTiming(
                frame_index=k,
                arrival_s=arrival,
                stage_start_s=tuple(starts),
                stage_finish_s=tuple(finishes),
            )
            timings.append(timing)
            stats.record(timing.service_latency_s, services)
            if tracer is not None:
                frame_trace = tracer.begin_frame(k, arrival)
                for stage, start, finish in zip(stages, starts, finishes):
                    tracer.record(
                        stage,
                        f"pipe:{stage}",
                        start,
                        finish,
                        frame=k,
                        mode=mode.name,
                    )
                frame_trace.total_latency_s = timing.latency_s
        makespan = timings[-1].completion_s - timings[0].arrival_s
        throughput = (n_frames - 1) / makespan if makespan > 0 else float("inf")
        bottleneck = max(stage_busy, key=lambda s: stage_busy[s])
        return PipelineReport(
            timings=timings,
            stats=stats,
            throughput_hz=throughput,
            bottleneck_stage=bottleneck,
            sheds_by_mode=dict(shedder.sheds_by_mode),
            frames_bypassed=frames_bypassed,
        )

    def serialized_throughput_hz(self, n_frames: int = 200) -> float:
        """Throughput if the three stages were NOT pipelined.

        One frame must fully complete before the next starts; the rate is
        1 / mean end-to-end latency — the baseline pipelining beats.
        """
        rng = np.random.default_rng(12345)
        totals = [
            self.dataflow.sample_iteration(rng)[1] for _ in range(n_frames)
        ]
        return 1.0 / float(np.mean(totals))
