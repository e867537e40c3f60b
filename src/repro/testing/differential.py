"""Differential equivalence harness: scalar engine vs batched stepper.

The batched multi-drive stepper (:mod:`repro.runtime.batched`) claims to
be an *execution strategy*, not a semantic change: every drive it
advances must be bit-identical to the same drive run through
``SystemsOnAVehicle.drive``.  This module is the machine that earns that
claim.  It takes campaign cells as
:class:`~repro.fleetops.cells.CellSpec` s, builds each cell twice
through the kind table, drives every drive of one copy with the scalar
``sov.drive`` and the other copy through
:func:`~repro.fleetops.cells.drive_group` — the lockstep group step the
cell executor runs, so cross-drive interleaving is exercised exactly as
campaigns group it — and compares:

* the full :func:`~repro.testing.invariants.drive_fingerprint` —
  trajectory endpoint, tick structure, fault history, latency totals —
  field by field, floats exact;
* degradation-mode residency, as a dict (not just the fingerprint's
  sorted view);
* the collision / stop / safe-stop flags;
* the Eq. 1 deadline-accounting table: total misses, per-stage and
  per-mode charges, ticks observed.

Every mismatch carries the cell id, the drive within the cell, and a
paste-able ``run_differential_cell(<cell id>)`` repro line, so a
divergence found in a 200-cell nightly sweep is a pinned single-cell
reproduction by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from .invariants import drive_fingerprint

#: Field names of the :func:`drive_fingerprint` tuple, index-aligned.
FINGERPRINT_FIELDS: Tuple[str, ...] = (
    "final_x_m",
    "final_y_m",
    "final_heading_rad",
    "final_speed_mps",
    "control_ticks",
    "collisions",
    "reactive_overrides",
    "reactive_holds",
    "proactive_skips",
    "fallback_commands",
    "can_frames_dropped",
    "distance_m",
    "min_forward_range_m",
    "faults_injected",
    "mode_ticks",
    "sheds_by_mode",
    "final_mode",
    "mode_residency",
    "min_obstacle_clearance_m",
    "latency_totals_s",
)


@dataclass(frozen=True)
class Mismatch:
    """One field diverging between engines on one drive of one cell."""

    cell_id: str
    field: str
    scalar: object
    batched: object
    #: Which of the cell's drives diverged (1: its determinism re-drive).
    drive: int = 0

    def repro(self) -> str:
        """The one-liner that replays this cell through both engines."""
        return (
            f"run_differential_cell({self.cell_id!r})  # drive "
            f"{self.drive} {self.field}: {self.scalar!r} != {self.batched!r}"
        )


@dataclass
class DifferentialReport:
    """The full sweep: cells compared, fields checked, divergences."""

    n_cells: int = 0
    comparisons: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format_report(self) -> str:
        lines = [
            f"differential matrix: {self.n_cells} cells, "
            f"{self.comparisons} comparisons -> "
            f"{'MATCH' if self.ok else 'DIVERGED'}"
        ]
        for m in self.mismatches:
            lines.append(f"  !! {m.repro()}")
        return "\n".join(lines)


def compare_drives(
    cell_id: str, scalar, batched, drive: int = 0
) -> List[Mismatch]:
    """Field-level comparison of two :class:`DriveResult` s.

    Returns one :class:`Mismatch` per diverging field — fingerprint
    fields by name, then the explicit mode-residency / collision-flag /
    deadline-accounting checks the equivalence contract calls out.
    """
    mismatches: List[Mismatch] = []

    def check(name: str, a, b) -> None:
        if a != b:
            mismatches.append(Mismatch(cell_id, name, a, b, drive))

    for name, a, b in zip(
        FINGERPRINT_FIELDS,
        drive_fingerprint(scalar),
        drive_fingerprint(batched),
    ):
        check(name, a, b)
    check("collided", scalar.collided, batched.collided)
    check("stopped", scalar.stopped, batched.stopped)
    check(
        "entered_safe_stop", scalar.entered_safe_stop, batched.entered_safe_stop
    )
    check(
        "mode_residency_dict",
        dict(scalar.mode_residency),
        dict(batched.mode_residency),
    )
    ta, tb = scalar.attribution, batched.attribution
    check("attribution_present", ta is not None, tb is not None)
    if ta is not None and tb is not None:
        check("deadline_total_misses", ta.total_misses, tb.total_misses)
        check("deadline_ticks_observed", ta.ticks_observed, tb.ticks_observed)
        check("deadline_by_stage", dict(ta.by_stage), dict(tb.by_stage))
        check("deadline_by_mode", dict(ta.by_mode), dict(tb.by_mode))
    return mismatches


def n_comparisons_per_cell() -> int:
    """Fields checked per compared drive (assuming attribution present
    both sides)."""
    return len(FINGERPRINT_FIELDS) + 9


def run_differential(specs: Iterable) -> DifferentialReport:
    """Drive every cell of *specs* through both engines, bit for bit.

    The batched copies run in the lockstep groups :func:`run_cells
    <repro.fleetops.cells.run_cells>` forms (drives of different scenes,
    durations and fault schedules interleave in one stepper); the scalar
    copies run one drive at a time.  Every drive of a two-drive cell is
    compared.
    """
    from ..fleetops.cells import CELL_KINDS, drive_group, lockstep_groups

    report = DifferentialReport()
    for group in lockstep_groups(specs):
        for spec, (_context, _drives, batched) in zip(
            group, drive_group(group)
        ):
            report.n_cells += 1
            _, drives = CELL_KINDS[spec.kind].build(spec.cell)
            for drive, ((sov, duration_s), result) in enumerate(
                zip(drives, batched)
            ):
                report.mismatches.extend(
                    compare_drives(
                        spec.cell_id, sov.drive(duration_s), result, drive
                    )
                )
                report.comparisons += n_comparisons_per_cell()
    return report


def run_differential_cell(cell_id: str) -> List[Mismatch]:
    """Replay one cell by id through both engines — the repro entry point.

    Takes any id :func:`~repro.fleetops.cells.parse_cell_id` accepts and
    refuses the rest with its ``ValueError``.
    """
    from ..fleetops.cells import parse_cell_id

    return run_differential([parse_cell_id(cell_id)]).mismatches
