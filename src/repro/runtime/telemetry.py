"""Latency and operations telemetry (paper Sec. V-C).

Collects per-iteration latency samples and produces the Fig. 10a summary:
best case, mean, 99th percentile, per-stage breakdowns, plus operational
counters (proactive-path fraction) used by the closed-loop SoV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


@dataclass
class LatencyStats:
    """Streaming latency statistics with per-stage breakdowns."""

    totals_s: List[float] = field(default_factory=list)
    stages_s: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, total_s: float, stages: Optional[Mapping[str, float]] = None) -> None:
        if total_s < 0:
            raise ValueError("latency must be non-negative")
        self.totals_s.append(total_s)
        for stage, value in (stages or {}).items():
            self.stages_s.setdefault(stage, []).append(value)

    @property
    def count(self) -> int:
        return len(self.totals_s)

    @property
    def best_s(self) -> float:
        self._require_data()
        return float(np.min(self.totals_s))

    @property
    def mean_s(self) -> float:
        self._require_data()
        return float(np.mean(self.totals_s))

    @property
    def worst_s(self) -> float:
        self._require_data()
        return float(np.max(self.totals_s))

    def percentile_s(self, q: float) -> float:
        self._require_data()
        return float(np.percentile(self.totals_s, q))

    def stage_mean_s(self, stage: str) -> float:
        values = self.stages_s.get(stage)
        if not values:
            raise KeyError(f"no samples for stage {stage!r}")
        return float(np.mean(values))

    def stage_fraction(self, stage: str) -> float:
        """Share of the mean total attributable to one stage."""
        return self.stage_mean_s(stage) / self.mean_s

    def summary(self) -> Dict[str, float]:
        """The Fig. 10a row set."""
        self._require_data()
        out = {
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "p99_s": self.percentile_s(99.0),
            "worst_s": self.worst_s,
        }
        for stage in self.stages_s:
            out[f"{stage}_mean_s"] = self.stage_mean_s(stage)
        return out

    def _require_data(self) -> None:
        if not self.totals_s:
            raise ValueError("no latency samples recorded")


@dataclass
class OperationsLog:
    """Operational counters for one drive."""

    control_ticks: int = 0
    reactive_overrides: int = 0
    #: Standing brake-hold refreshes on an already-stopped vehicle (not
    #: counted as interventions; see ReactivePath.evaluate).
    reactive_holds: int = 0
    distance_m: float = 0.0
    energy_j: float = 0.0
    collisions: int = 0
    #: Control ticks where the proactive pipeline produced no command
    #: (module crashed / awaiting restart).
    proactive_skips: int = 0
    #: Commands the degradation supervisor issued in place of the planner.
    fallback_commands: int = 0
    #: CAN frames corrupted by fault injection (sent but never delivered).
    can_frames_dropped: int = 0
    #: Fault-injection events observed, keyed by fault kind.
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Control ticks spent in each degradation mode.
    mode_ticks: Dict[str, int] = field(default_factory=dict)
    #: Dataflow tasks shed by the load-shedding policy, keyed by the
    #: degradation mode that shed them (fault-aware scheduling).
    sheds_by_mode: Dict[str, int] = field(default_factory=dict)
    #: The same shed events keyed by task name.
    sheds_by_task: Dict[str, int] = field(default_factory=dict)
    #: Safety-critical CAN frames sent at high arbitration priority.
    can_priority_sends: int = 0
    #: Closest radar/sonar forward range the reactive path ever saw
    #: (post-fault reading; inf when nothing entered the forward cone).
    #: The invariant harness checks reactive engagement against this.
    min_forward_range_m: float = float("inf")

    def record_sheds(self, mode: str, tasks: Sequence[str]) -> None:
        """Account one tick's shed tasks against *mode*."""
        if not tasks:
            return
        self.sheds_by_mode[mode] = self.sheds_by_mode.get(mode, 0) + len(tasks)
        for task in tasks:
            self.sheds_by_task[task] = self.sheds_by_task.get(task, 0) + 1

    @property
    def total_sheds(self) -> int:
        return sum(self.sheds_by_mode.values())

    @property
    def proactive_fraction(self) -> float:
        """Fraction of control ticks on the proactive path (Sec. V-C:
        "our deployed vehicles stay in the proactive paths for over 90%
        of the time").

        A tick counts as reactive when the reactive path intervened
        (``reactive_overrides``) *or* kept refreshing a standing brake
        hold (``reactive_holds``) — a held vehicle is not driving
        proactively, even though holds are not interventions.  Both
        counters tick at the 20 Hz reactive rate against 10 Hz control
        ticks, so the ratio can exceed 1 during long reactive stretches;
        the result is clamped to [0, 1] (it used to go negative and to
        credit held ticks to the proactive path).
        """
        if self.control_ticks == 0:
            return 1.0
        reactive = self.reactive_overrides + self.reactive_holds
        return max(0.0, 1.0 - reactive / self.control_ticks)
