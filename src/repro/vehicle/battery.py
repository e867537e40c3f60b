"""Battery model (paper Sec. III-B).

A simple state-of-charge integrator over the loads of the vehicle and the
AD payload.  Used by the closed-loop SoV simulation to account energy and
by the economics example to turn watts into lost revenue hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import calibration


class BatteryDepletedError(RuntimeError):
    """Raised when a drain would take the state of charge below zero."""


@dataclass
class Battery:
    """An energy reservoir with draw-tracking.

    Defaults to the paper's 6 kW·h pack.
    """

    capacity_j: float = calibration.BATTERY_CAPACITY_J
    charge_j: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if self.charge_j < 0:
            self.charge_j = self.capacity_j
        if self.charge_j > self.capacity_j:
            raise ValueError("charge cannot exceed capacity")

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction in [0, 1]."""
        return self.charge_j / self.capacity_j

    def drain(self, power_w: float, duration_s: float) -> float:
        """Draw *power_w* for *duration_s*; returns energy consumed (J)."""
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        energy = power_w * duration_s
        self.charge_j = drained(self.charge_j, energy)
        return energy

    def runtime_at_power_s(self, power_w: float) -> float:
        """How long the current charge sustains *power_w*."""
        if power_w <= 0:
            raise ValueError("power must be positive")
        return self.charge_j / power_w

    def recharge(self) -> None:
        self.charge_j = self.capacity_j


def drained(charge_j: float, energy_j: float) -> float:
    """The charge left once *energy_j* is drawn from *charge_j*.

    Raises :class:`BatteryDepletedError` when the draw would take the
    charge below zero.  :meth:`Battery.drain` and the closed loop's
    physics sub-steps, which keep the charge in a local, both draw
    through this.
    """
    if energy_j > charge_j + 1e-9:
        raise BatteryDepletedError(
            f"requested {energy_j:.1f} J but only {charge_j:.1f} J remain"
        )
    left = charge_j - energy_j
    # A positive charge left is what ``max`` would give back.
    return left if left > 0.0 else max(0.0, left)
