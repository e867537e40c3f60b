"""Accelerator-level parallelism (ALP) execution model (paper Sec. VII).

"While the most common form of ALP today is found on a single chip ...
ALP in autonomous vehicles usually exists across multiple chips.  For
instance, in our current computing platform localization is accelerated
on an FPGA while depth estimation and object detection are accelerated by
a GPU."

This module executes the Fig. 5 dataflow on an explicit *device* model:
each task is assigned to a device; exclusive devices (CPU cores, fixed
FPGA blocks) serialize their tasks, shared devices (the GPU) co-run theirs
under the Fig. 8 contention model.  The report exposes what the stage-level
scheduler cannot: per-device utilization and the average number of
simultaneously-busy accelerators — the ALP the paper says future work
should exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..hw.contention import gpu_contention_model
from .dataflow import paper_dataflow


@dataclass(frozen=True)
class Device:
    """One execution venue."""

    name: str
    shared: bool = False  # shared devices co-run tasks under contention


def paper_devices() -> Dict[str, Device]:
    """The deployed platform's venues (Fig. 7).

    The Zynq's sensing pipeline (ISP + interfaces) and the localization
    accelerator are spatially separate fabric blocks, hence independent
    devices; the GPU is one shared device; planning and tracking live on
    CPU cores.
    """
    return {
        "fpga_sensing": Device("fpga_sensing"),
        "fpga_localization": Device("fpga_localization"),
        "gpu": Device("gpu", shared=True),
        "cpu": Device("cpu"),
    }


def paper_assignment() -> Dict[str, str]:
    """Task -> device, per Sec. V-B2."""
    return {
        "sensing": "fpga_sensing",
        "localization": "fpga_localization",
        "depth": "gpu",
        "detection": "gpu",
        "tracking": "cpu",
        "planning": "cpu",
    }


def single_device_assignment(device: str = "cpu") -> Dict[str, str]:
    """Everything on one venue — the no-ALP baseline."""
    return {task: device for task in paper_assignment()}


@dataclass(frozen=True)
class TaskExecution:
    """One task instance's schedule."""

    frame: int
    task: str
    device: str
    start_s: float
    finish_s: float


@dataclass
class AlpReport:
    """Result of an ALP execution run."""

    executions: List[TaskExecution]
    frame_latencies_s: List[float]
    throughput_hz: float
    device_utilization: Dict[str, float]
    alp_parallelism: float

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.frame_latencies_s))

    @property
    def bottleneck_device(self) -> str:
        return max(self.device_utilization, key=lambda d: self.device_utilization[d])


class AlpExecutor:
    """List-scheduler over devices with dataflow dependencies."""

    def __init__(
        self,
        assignment: Optional[Mapping[str, str]] = None,
        frame_rate_hz: float = 10.0,
        seed: int = 0,
    ) -> None:
        if frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        self.dataflow = paper_dataflow()
        self.devices = paper_devices()
        self.assignment = dict(assignment or paper_assignment())
        unknown_tasks = set(self.assignment) - set(self.dataflow.task_names)
        if unknown_tasks:
            raise ValueError(f"assignment names unknown tasks {unknown_tasks}")
        missing = set(self.dataflow.task_names) - set(self.assignment)
        if missing:
            raise ValueError(f"assignment misses tasks {missing}")
        for device in self.assignment.values():
            if device not in self.devices:
                raise ValueError(f"unknown device {device!r}")
        self.contention = gpu_contention_model()
        self.frame_rate_hz = frame_rate_hz
        self._rng = np.random.default_rng(seed)

    def _contended_latency(
        self, task: str, base_s: float, co_resident: List[str]
    ) -> float:
        return self.contention.shared_latency_s(task, base_s, co_resident)

    def run(self, n_frames: int) -> AlpReport:
        if n_frames <= 0:
            raise ValueError("need at least one frame")
        order = self.dataflow._topo
        device_free = {name: 0.0 for name in self.devices}
        executions: List[TaskExecution] = []
        frame_latencies: List[float] = []
        for k in range(n_frames):
            arrival = k / self.frame_rate_hz
            latencies, _ = self.dataflow.sample_iteration(self._rng)
            # Contention: tasks sharing a shared device slow each other.
            shared_groups: Dict[str, List[str]] = {}
            for task, device in self.assignment.items():
                if self.devices[device].shared:
                    shared_groups.setdefault(device, []).append(task)
            finish: Dict[str, float] = {}
            frame_execs: List[TaskExecution] = []
            # Shared devices co-run tasks *within* a frame but pipeline
            # across frames: this frame's group waits for the previous
            # frame's occupancy, captured before any updates below.
            free_at_frame_start = dict(device_free)
            for task in order:
                device_name = self.assignment[task]
                device = self.devices[device_name]
                duration = latencies[task]
                if device.shared:
                    co = [
                        t
                        for t in shared_groups.get(device_name, [])
                        if t != task
                    ]
                    duration = self._contended_latency(task, duration, co)
                deps_done = max(
                    (finish[d] for d in self.dataflow.dependencies(task)),
                    default=arrival,
                )
                if device.shared:
                    start = max(
                        deps_done, free_at_frame_start[device_name], arrival
                    )
                else:
                    start = max(deps_done, device_free[device_name], arrival)
                end = start + duration
                finish[task] = end
                if not device.shared:
                    device_free[device_name] = end
                frame_execs.append(
                    TaskExecution(k, task, device_name, start, end)
                )
            # Shared devices free when their last co-runner finishes.
            for device_name, tasks in shared_groups.items():
                device_free[device_name] = max(
                    e.finish_s
                    for e in frame_execs
                    if e.device == device_name
                )
            executions.extend(frame_execs)
            frame_latencies.append(max(finish.values()) - arrival)
        makespan = max(e.finish_s for e in executions)
        utilization = self._utilization(executions, makespan)
        parallelism = self._parallelism(executions, makespan)
        throughput = (
            (n_frames - 1)
            / (executions[-1].finish_s - frame_latencies[0])
            if n_frames > 1
            else float("inf")
        )
        return AlpReport(
            executions=executions,
            frame_latencies_s=frame_latencies,
            throughput_hz=throughput,
            device_utilization=utilization,
            alp_parallelism=parallelism,
        )

    @staticmethod
    def _utilization(
        executions: List[TaskExecution], makespan: float
    ) -> Dict[str, float]:
        """Busy-time union per device over the makespan."""
        by_device: Dict[str, List[Tuple[float, float]]] = {}
        for execution in executions:
            by_device.setdefault(execution.device, []).append(
                (execution.start_s, execution.finish_s)
            )
        utilization = {}
        for device, intervals in by_device.items():
            intervals.sort()
            busy = 0.0
            current_start, current_end = intervals[0]
            for start, end in intervals[1:]:
                if start > current_end:
                    busy += current_end - current_start
                    current_start, current_end = start, end
                else:
                    current_end = max(current_end, end)
            busy += current_end - current_start
            utilization[device] = busy / makespan if makespan > 0 else 0.0
        return utilization

    @staticmethod
    def _parallelism(
        executions: List[TaskExecution], makespan: float
    ) -> float:
        """Average number of simultaneously busy devices.

        Computed as total busy device-time (union per device) divided by
        the makespan — the effective ALP the platform achieves.
        """
        if makespan <= 0:
            return 0.0
        utilization = AlpExecutor._utilization(executions, makespan)
        return float(sum(utilization.values()))
