"""Per-module heartbeat/watchdog health monitoring (AutonomROS-style).

Each software module on the vehicle (sensing, perception, planning, the
radar front-end) reports a heartbeat whenever it completes an iteration.
A watchdog declares a module DOWN when its heartbeat is older than the
module's timeout, then models a supervised restart: the module comes back
after a sampled mean-time-to-repair (MTTR), exponentially distributed so
repeated restarts of a persistently crashing module produce a realistic
spread.  Repeated restarts back off exponentially — a module that keeps
crashing is restarted ever more cautiously — and the backoff resets once
the module has stayed healthy for a sustained window, so one bad episode
does not penalize restarts forever.  Optional seeded jitter
(``restart_jitter_frac``) spreads backed-off restart times so modules
felled by one fault don't thunder back in lockstep.  The monitor accumulates per-module
downtime, restart counts, backoff state, and availability — the metrics
the fault-campaign and chaos studies report and assert on.

The restart RNG is a private stream: a drive where nothing fails consumes
no randomness here, so enabling health monitoring never perturbs the
nominal simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Module lifecycle states.
UP = "up"
DOWN = "down"


@dataclass
class ModuleHealth:
    """Watchdog state for one module."""

    name: str
    timeout_s: float
    last_beat_s: float = 0.0
    state: str = UP
    down_since_s: Optional[float] = None
    restart_at_s: Optional[float] = None
    restarts: int = 0
    downtime_s: float = 0.0
    #: Restarts since the last sustained-healthy window: each one raises
    #: the next repair's backoff multiplier; reset by sustained health.
    consecutive_restarts: int = 0
    #: When the module last came (or started) UP; None while DOWN.
    up_since_s: Optional[float] = 0.0

    def availability(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime_s / elapsed_s)

    @property
    def mean_time_to_repair_s(self) -> Optional[float]:
        if self.restarts == 0:
            return None
        return self.downtime_s / self.restarts

    def backoff_multiplier(self, factor: float, cap: float) -> float:
        """The MTTR multiplier the *next* repair of this module pays."""
        return min(factor ** self.consecutive_restarts, cap)


@dataclass(frozen=True)
class HealthReport:
    """Aggregated health metrics for one drive."""

    elapsed_s: float
    modules: Dict[str, ModuleHealth]

    @property
    def total_restarts(self) -> int:
        return sum(m.restarts for m in self.modules.values())

    @property
    def total_downtime_s(self) -> float:
        return sum(m.downtime_s for m in self.modules.values())

    def availability(self, name: str) -> float:
        return self.modules[name].availability(self.elapsed_s)

    @property
    def restarts_by_module(self) -> Dict[str, int]:
        """Restart counts per module — the chaos campaign asserts these."""
        return {name: m.restarts for name, m in self.modules.items()}

    @property
    def backoff_by_module(self) -> Dict[str, int]:
        """Residual exponential-backoff level (consecutive restarts not
        yet forgiven by a sustained-healthy window) per module."""
        return {name: m.consecutive_restarts for name, m in self.modules.items()}

    @property
    def worst_availability(self) -> float:
        if not self.modules:
            return 1.0
        return min(m.availability(self.elapsed_s) for m in self.modules.values())

    @property
    def mean_time_to_repair_s(self) -> Optional[float]:
        """Fleet MTTR: total downtime over total restarts."""
        restarts = self.total_restarts
        if restarts == 0:
            return None
        return self.total_downtime_s / restarts

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "restarts": float(self.total_restarts),
            "downtime_s": self.total_downtime_s,
            "worst_availability": self.worst_availability,
        }
        mttr = self.mean_time_to_repair_s
        if mttr is not None:
            out["mttr_s"] = mttr
        return out


class HealthMonitor:
    """Heartbeat registry + watchdog + restart model."""

    def __init__(
        self,
        default_timeout_s: float = 0.5,
        mttr_mean_s: float = 0.8,
        seed: int = 0,
        restart_backoff_factor: float = 1.5,
        restart_backoff_cap: float = 8.0,
        sustained_healthy_s: Optional[float] = None,
        restart_jitter_frac: float = 0.0,
    ) -> None:
        if default_timeout_s <= 0:
            raise ValueError("watchdog timeout must be positive")
        if mttr_mean_s <= 0:
            raise ValueError("MTTR mean must be positive")
        if restart_backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if restart_backoff_cap < 1.0:
            raise ValueError("backoff cap must be >= 1")
        if not 0.0 <= restart_jitter_frac < 1.0:
            raise ValueError("restart jitter fraction must be in [0, 1)")
        self.default_timeout_s = default_timeout_s
        self.mttr_mean_s = mttr_mean_s
        self.restart_backoff_factor = restart_backoff_factor
        self.restart_backoff_cap = restart_backoff_cap
        #: Seeded +/- fractional jitter on each backed-off repair time,
        #: decorrelating synchronized restarts.  The default of 0.0
        #: consumes no randomness, so existing seeded campaigns (and
        #: their committed baselines) are bit-identical with the flag off.
        self.restart_jitter_frac = restart_jitter_frac
        #: How long a module must stay UP before its backoff is forgiven
        #: (default: five watchdog timeouts).
        self.sustained_healthy_s = (
            5.0 * default_timeout_s
            if sustained_healthy_s is None
            else sustained_healthy_s
        )
        self._rng = np.random.default_rng([seed, 0x4EA17])
        self._modules: Dict[str, ModuleHealth] = {}
        self._now_s = 0.0

    # -- registry --------------------------------------------------------------

    def register(self, name: str, timeout_s: Optional[float] = None) -> None:
        if name in self._modules:
            raise ValueError(f"module {name!r} already registered")
        self._modules[name] = ModuleHealth(
            name=name, timeout_s=timeout_s or self.default_timeout_s
        )

    def module(self, name: str) -> ModuleHealth:
        return self._modules[name]

    # -- heartbeats & watchdog -------------------------------------------------

    def beat(self, name: str, now_s: float) -> None:
        """A module reports a completed iteration."""
        module = self._modules[name]
        module.last_beat_s = max(module.last_beat_s, now_s)

    def check(self, now_s: float) -> None:
        """Advance the watchdog to *now_s*.

        DOWN modules whose restart deadline passed come back UP (their
        heartbeat is refreshed so they get a full timeout of grace); UP
        modules with stale heartbeats go DOWN and get a restart scheduled
        ``Exp(mttr_mean_s)`` — times the module's exponential backoff
        multiplier — in the future.  A module that has stayed UP for
        ``sustained_healthy_s`` has its backoff forgiven first.
        """
        self._now_s = max(self._now_s, now_s)
        for module in self._modules.values():
            if module.state == DOWN:
                if now_s >= module.restart_at_s:
                    module.downtime_s += module.restart_at_s - module.down_since_s
                    module.state = UP
                    module.restarts += 1
                    module.consecutive_restarts += 1
                    module.down_since_s = None
                    module.restart_at_s = None
                    module.last_beat_s = now_s
                    module.up_since_s = now_s
            if (
                module.state == UP
                and module.consecutive_restarts > 0
                and module.up_since_s is not None
                and now_s - module.up_since_s >= self.sustained_healthy_s
            ):
                # Sustained health forgives the backoff; restarts stop
                # being penalized once the module proves itself again.
                module.consecutive_restarts = 0
            if module.state == UP and now_s - module.last_beat_s > module.timeout_s:
                module.state = DOWN
                module.down_since_s = now_s
                module.up_since_s = None
                # Exponential repair time, truncated at 3x the mean so a
                # single tail draw cannot dominate availability metrics;
                # repeat offenders pay the capped exponential backoff.
                repair_s = min(
                    float(self._rng.exponential(self.mttr_mean_s)),
                    3.0 * self.mttr_mean_s,
                ) * module.backoff_multiplier(
                    self.restart_backoff_factor, self.restart_backoff_cap
                )
                if self.restart_jitter_frac > 0.0:
                    # Seeded uniform jitter in [1-j, 1+j); guarded so a
                    # jitter of 0 draws nothing and legacy streams hold.
                    repair_s *= float(
                        self._rng.uniform(
                            1.0 - self.restart_jitter_frac,
                            1.0 + self.restart_jitter_frac,
                        )
                    )
                module.restart_at_s = now_s + repair_s

    def is_up(self, name: str) -> bool:
        return self._modules[name].state == UP

    def all_up(self) -> bool:
        return all(m.state == UP for m in self._modules.values())

    def down_modules(self) -> List[str]:
        return [m.name for m in self._modules.values() if m.state == DOWN]

    # -- reporting -------------------------------------------------------------

    def report(self, elapsed_s: Optional[float] = None) -> HealthReport:
        """Snapshot the health metrics (closing out any open downtime)."""
        elapsed = self._now_s if elapsed_s is None else elapsed_s
        modules: Dict[str, ModuleHealth] = {}
        for name, module in self._modules.items():
            snap = ModuleHealth(
                name=module.name,
                timeout_s=module.timeout_s,
                last_beat_s=module.last_beat_s,
                state=module.state,
                down_since_s=module.down_since_s,
                restart_at_s=module.restart_at_s,
                restarts=module.restarts,
                downtime_s=module.downtime_s,
                consecutive_restarts=module.consecutive_restarts,
                up_since_s=module.up_since_s,
            )
            if snap.state == DOWN and snap.down_since_s is not None:
                # Count the still-open outage up to the snapshot instant.
                snap.downtime_s += max(0.0, elapsed - snap.down_since_s)
            modules[name] = snap
        return HealthReport(elapsed_s=elapsed, modules=modules)
