"""Computing-platform performance and power models (paper Fig. 6).

The paper compares four platforms — a Coffee Lake CPU, a GTX-1060-class
GPU, a Jetson TX2 mobile SoC, and a Zynq embedded FPGA — on three
perception tasks.  We model each platform by its calibrated per-task
latency/power profile plus structural properties (data-copy overheads of
mobile SoCs, sensor-interface availability, and so on) the paper uses to
argue the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core import calibration
from ..core.calibration import TaskPlatformProfile, task_profile

PLATFORMS = ("cpu", "gpu", "tx2", "fpga")
PERCEPTION_TASKS = ("depth", "detection", "localization")


@dataclass(frozen=True)
class Platform:
    """One computing platform with structural attributes.

    ``copy_overhead_s``/``copy_overhead_w`` model the mobile-SoC data-copy
    problem (Sec. V-A): "the CPU has to explicitly copy images from sensor
    interface to DSP through the entire memory hierarchy ... an extra 1 W
    power overhead and up to 3 ms performance overhead."
    """

    name: str
    unit_cost_usd: float
    idle_power_w: float
    has_sensor_interface: bool = False
    has_hw_sync_support: bool = False
    automotive_grade: bool = False
    copy_overhead_s: float = 0.0
    copy_overhead_w: float = 0.0

    def task_latency_s(self, task: str) -> float:
        """Latency of *task*, including any structural copy overhead."""
        return task_profile(task, self.name).latency_s + self.copy_overhead_s

    def task_energy_j(self, task: str) -> float:
        profile = task_profile(task, self.name)
        energy = profile.energy_j
        if self.copy_overhead_s > 0:
            energy += self.copy_overhead_s * (profile.power_w + self.copy_overhead_w)
        return energy


def cpu_platform() -> Platform:
    """Intel Coffee Lake CPU (3.0 GHz, 9 MB LLC)."""
    return Platform(name="cpu", unit_cost_usd=400.0, idle_power_w=15.0)


def gpu_platform() -> Platform:
    """Nvidia GTX 1060 discrete GPU (with its host)."""
    return Platform(name="gpu", unit_cost_usd=300.0, idle_power_w=10.0)


def tx2_platform() -> Platform:
    """Nvidia TX2 mobile SoC — $600 (Sec. V-A), with the mobile-SoC
    data-copy overheads and no precise sensor synchronization."""
    return Platform(
        name="tx2",
        unit_cost_usd=600.0,
        idle_power_w=5.0,
        has_sensor_interface=True,
        has_hw_sync_support=False,
        copy_overhead_s=0.003,
        copy_overhead_w=1.0,
    )


def fpga_platform() -> Platform:
    """Automotive-grade Zynq UltraScale+ embedded FPGA (Sec. III-C,
    Sec. V-B1): rich sensor interfaces, hardware sync, MIPI/ISP blocks."""
    return Platform(
        name="fpga",
        unit_cost_usd=800.0,
        idle_power_w=2.0,
        has_sensor_interface=True,
        has_hw_sync_support=True,
        automotive_grade=True,
    )


def automotive_asic_platform() -> Platform:
    """An Nvidia-PX2-class automotive platform: fast but >$10,000 and no
    sensor-sync support (Sec. V-A)."""
    return Platform(
        name="gpu",  # borrows GPU-class task profiles
        unit_cost_usd=10_000.0,
        idle_power_w=20.0,
        has_sensor_interface=False,
        has_hw_sync_support=False,
        automotive_grade=True,
    )


def all_platforms() -> Dict[str, Platform]:
    return {
        "cpu": cpu_platform(),
        "gpu": gpu_platform(),
        "tx2": tx2_platform(),
        "fpga": fpga_platform(),
    }


@dataclass(frozen=True)
class ComparisonRow:
    """One Fig. 6 bar: task x platform."""

    task: str
    platform: str
    latency_s: float
    energy_j: float


def fig6_comparison() -> List[ComparisonRow]:
    """All Fig. 6 bars (3 tasks x 4 platforms)."""
    rows = []
    platforms = all_platforms()
    for task in PERCEPTION_TASKS:
        for name, platform in platforms.items():
            rows.append(
                ComparisonRow(
                    task=task,
                    platform=name,
                    latency_s=platform.task_latency_s(task),
                    energy_j=platform.task_energy_j(task),
                )
            )
    return rows


@dataclass(frozen=True)
class SuitabilityVerdict:
    """Why a platform is or is not usable as the SoV sensor hub."""

    platform: str
    suitable: bool
    reasons: Tuple[str, ...]


def evaluate_sensor_hub(platform: Platform) -> SuitabilityVerdict:
    """Apply the paper's Sec. V-A / V-B1 criteria for the sensor hub role."""
    reasons = []
    if not platform.has_sensor_interface:
        reasons.append("no mature sensor interfaces (MIPI/CSI, ISP)")
    if not platform.has_hw_sync_support:
        reasons.append("no precise hardware sensor-synchronization support")
    if not platform.automotive_grade:
        reasons.append("not automotive-grade (safety requirement, Sec. III-C)")
    if platform.copy_overhead_s > 0:
        reasons.append(
            "redundant CPU-coordinated data copies between compute units"
        )
    return SuitabilityVerdict(
        platform=platform.name, suitable=not reasons, reasons=tuple(reasons)
    )
