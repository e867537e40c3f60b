"""Property-based safety-invariant harness over the corridor suite.

The paper argues safety in prose: the reactive path is "the last line of
defense" (Sec. IV), the Eq. 1 budget bounds how late the computing
system may be, and graceful degradation keeps the vehicle controlled
when modules die (Sec. III-C).  This module states those claims as
**machine-checked invariants** and evaluates every one on every
``scenario x seed`` cell of the corridor suite:

``replay_determinism``
    Re-running a cell from scratch produces a bit-identical
    :class:`~repro.runtime.sov.DriveResult` fingerprint — the property
    every campaign replay hook and pinned regression seed relies on.

``no_collision_or_safe_stop``
    Under the protected configuration (reactive path + degradation
    supervisor engaged) a drive never collides; when the corridor is
    impassable the vehicle instead comes to a controlled stop (reactive
    hold or commanded SAFE_STOP).

``deadline_accounting``
    The Eq. 1 deadline-miss attribution table is internally consistent:
    per-stage and per-mode charges each sum to the total miss count
    (every miss charged to exactly one stage), misses never exceed
    observed ticks, and the tick count matches the drive's.

``residency_sums_to_one``
    Degradation-mode residency fractions are a probability distribution:
    non-negative and summing to 1.0 (the final open segment flushed).

``reactive_engagement``
    Whenever the radar/sonar forward range ever crossed the reactive
    threshold, the reactive path engaged (a trigger or a standing brake
    hold).  Skipped when the cell's fault schedule corrupts the radar —
    a lying sensor voids the premise, not the system.

Each cell is a ``kind="invariant"`` (or ``"procgen"``) campaign cell:
:meth:`~repro.fleetops.supervisor.FleetSupervisor.run` drives it, in
lockstep with every other drive of its group, and hands the results to
:func:`_evaluate_cell`, which applies :func:`check_drive_invariant`
once per invariant.  A failing cell produces an
:class:`InvariantViolation` carrying the scenario name, seed, and cell
id, so every violation is a pinned, replayable reproduction by
construction: its :meth:`~InvariantViolation.replay_command` re-runs
the very cell, fault draw, budget and determinism check included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Radar-corrupting fault kinds: a cell whose schedule includes one of
#: these skips the reactive-engagement check (the premise is void).
_RADAR_CORRUPTING = frozenset(
    {"sensor_dropout", "sensor_freeze", "sensor_stuck"}
)

INVARIANT_NAMES: Tuple[str, ...] = (
    "replay_determinism",
    "no_collision_or_safe_stop",
    "deadline_accounting",
    "residency_sums_to_one",
    "reactive_engagement",
)

#: Generated cells check one more invariant before driving: sampling the
#: same ``(generator_seed, cell_index)`` again rebuilds the scene bit
#: for bit (:func:`repro.scene.procgen.scene_fingerprint` equality).
GENERATED_INVARIANT_NAMES: Tuple[str, ...] = (
    "scene_regeneration",
) + INVARIANT_NAMES

#: Tolerance on the residency-sum check (pure float addition error).
_RESIDENCY_TOL = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant failing on one cell — a pinned reproduction.

    ``cell_id`` is the campaign cell id the violation occurred in, which
    makes :meth:`replay_command` a paste-able serial replay with tracing
    enabled — the line every violation report prints, and the entry
    point the failure-triage shrinker consumes.
    """

    invariant: str
    scenario: str
    seed: int
    detail: str
    cell_id: str

    def replay_command(self) -> str:
        """The shell one-liner that replays this cell serially, traced."""
        tool = (
            "examples/procgen_matrix.py"
            if self.cell_id.startswith("procgen:")
            else "examples/corridor_matrix.py"
        )
        return f"python {tool} --cell-id {self.cell_id}"


@dataclass(frozen=True)
class CellOutcome:
    """One scenario x seed cell: drive summary + invariant verdicts."""

    scenario: str
    seed: int
    collided: bool
    stopped: bool
    entered_safe_stop: bool
    final_mode: str
    final_x_m: float
    min_clearance_m: float
    min_forward_range_m: float
    reactive_engagements: int
    deadline_misses: int
    checked: Tuple[str, ...]
    violations: Tuple[InvariantViolation, ...]
    #: Scene determinism fingerprint (generated cells only; see
    #: :func:`repro.scene.procgen.scene_checksum`).
    scene_checksum: Optional[int] = None
    #: Stage the Eq. 1 attribution charged the most deadline misses to
    #: ("none" when no miss was recorded) — one leg of the failure
    #: fingerprint (:func:`repro.triage.fingerprint.failure_fingerprint`).
    dominant_stage: str = "none"
    #: Degradation-mode trajectory, starting at NOMINAL, one entry per
    #: supervisor transition — the third fingerprint leg.
    mode_trajectory: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class MatrixReport:
    """The full scenario x seed sweep."""

    cells: List[CellOutcome] = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def violations(self) -> List[InvariantViolation]:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def collision_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.collided for c in self.cells) / self.n_cells

    @property
    def safe_stop_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.entered_safe_stop for c in self.cells) / self.n_cells

    @property
    def reactive_engagement_rate(self) -> float:
        """Fraction of cells where the reactive path engaged at all."""
        if not self.cells:
            return 0.0
        return (
            sum(c.reactive_engagements > 0 for c in self.cells) / self.n_cells
        )

    @property
    def deadline_misses(self) -> int:
        return sum(c.deadline_misses for c in self.cells)

    def checks_run(self) -> int:
        return sum(len(c.checked) for c in self.cells)

    def summary(self) -> Dict[str, float]:
        """Flat numeric view (experiment rows, bench snapshots)."""
        return {
            "n_cells": float(self.n_cells),
            "n_scenarios": float(len({c.scenario for c in self.cells})),
            "checks_run": float(self.checks_run()),
            "violations": float(len(self.violations)),
            "collision_rate": self.collision_rate,
            "safe_stop_rate": self.safe_stop_rate,
            "reactive_engagement_rate": self.reactive_engagement_rate,
            "deadline_misses": float(self.deadline_misses),
        }

    def format_report(self) -> str:
        lines = [
            f"invariant matrix: {self.n_cells} cells, "
            f"{self.checks_run()} checks -> "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        for cell in self.cells:
            verdict = "ok" if cell.ok else "VIOLATED"
            lines.append(
                f"  {cell.scenario:<28} seed={cell.seed} "
                f"collided={cell.collided!s:<5} "
                f"mode={cell.final_mode:<13} {verdict}"
            )
        for violation in self.violations:
            lines.append(
                f"  !! {violation.scenario} seed={violation.seed} "
                f"{violation.invariant}: {violation.detail}"
            )
            lines.append(f"     replay: {violation.replay_command()}")
        return "\n".join(lines)


def drive_fingerprint(result) -> Tuple:
    """A bit-exact fingerprint of a :class:`DriveResult`.

    Two drives with equal fingerprints took the same trajectory, tick
    structure, fault history, and mode history — the equality the
    determinism invariant (and the chaos replay hook) asserts.  Floats
    are compared exactly, never approximately.
    """
    state = result.final_state
    ops = result.ops
    return (
        state.x_m,
        state.y_m,
        state.heading_rad,
        state.speed_mps,
        ops.control_ticks,
        ops.collisions,
        ops.reactive_overrides,
        ops.reactive_holds,
        ops.proactive_skips,
        ops.fallback_commands,
        ops.can_frames_dropped,
        ops.distance_m,
        ops.min_forward_range_m,
        tuple(sorted(ops.faults_injected.items())),
        tuple(sorted(ops.mode_ticks.items())),
        tuple(sorted(ops.sheds_by_mode.items())),
        result.final_mode,
        tuple(sorted(result.mode_residency.items())),
        result.min_obstacle_clearance_m,
        tuple(result.latency.totals_s),
    )


def dominant_attribution_stage(result) -> str:
    """The stage charged the most Eq. 1 deadline misses ("none" if none).

    Ties break toward the alphabetically-first stage so the answer is
    stable across processes — it feeds the failure fingerprint.
    """
    table = getattr(result, "attribution", None)
    if table is None or not table.by_stage:
        return "none"
    return max(sorted(table.by_stage), key=lambda s: table.by_stage[s])


def degradation_trajectory(sov) -> Tuple[str, ...]:
    """The mode path the degradation supervisor walked this drive.

    Always starts at NOMINAL; one entry per supervisor transition.  A
    drive with the supervisor disabled reports just ``("NOMINAL",)``.
    """
    machine = getattr(sov, "degradation", None)
    transitions = getattr(machine, "transitions", None) or ()
    return ("NOMINAL",) + tuple(t.mode.name for t in transitions)


def _radar_corrupted(faults: Sequence) -> bool:
    """Whether a fault schedule corrupts the radar — a lying sensor
    voids the reactive-engagement premise, not the system."""
    return any(
        getattr(f, "kind", "") in _RADAR_CORRUPTING
        and getattr(f, "sensor", "") == "radar"
        for f in faults
    )


def _divergence(a: Tuple, b: Tuple) -> Optional[str]:
    """The first three differing fields of two fingerprints (None: equal)."""
    if a == b:
        return None
    diffs = [
        f"field {i}: {x!r} != {y!r}"
        for i, (x, y) in enumerate(zip(a, b))
        if x != y
    ]
    return "; ".join(diffs[:3])


def check_drive_invariant(
    invariant: str,
    result,
    blocked: bool = False,
    sov=None,
    result2=None,
    faults: Sequence = (),
) -> Tuple[str, ...]:
    """Evaluate one named drive invariant on a completed drive.

    Returns every failing detail, in check order (empty: the invariant
    holds).  The matrix harness (:func:`_evaluate_cell`) records each
    as a violation; the failure-triage oracle asks "does this candidate
    still violate the *same* invariant?" and keeps the first.

    *blocked* is the scene's impassability flag; *result2* is a second
    drive of the identical cell (required for ``replay_determinism``);
    *sov* is required for ``reactive_engagement``; *faults* is the
    cell's fault schedule (radar-corrupting kinds void the
    reactive-engagement premise).
    """
    if invariant == "replay_determinism":
        if result2 is None:
            raise ValueError("replay_determinism needs a second drive")
        diverged = _divergence(
            drive_fingerprint(result), drive_fingerprint(result2)
        )
        return () if diverged is None else (f"re-run diverged: {diverged}",)
    if invariant == "no_collision_or_safe_stop":
        if result.collided:
            return (
                f"{result.ops.collisions} collision tick(s), min clearance "
                f"{result.min_obstacle_clearance_m:.3f} m",
            )
        if blocked and not (result.stopped or result.entered_safe_stop):
            return (
                "blocked corridor but the vehicle neither stopped nor "
                "entered SAFE_STOP (final speed "
                f"{result.final_state.speed_mps:.2f} m/s)",
            )
        return ()
    if invariant == "deadline_accounting":
        table = result.attribution
        if table is None:
            return ("attribution table missing",)
        details: List[str] = []
        try:
            table.check_consistency()
        except AssertionError as exc:
            details.append(str(exc))
        if table.total_misses > table.ticks_observed:
            details.append(
                f"{table.total_misses} misses exceed "
                f"{table.ticks_observed} observed ticks"
            )
        if len(table.records) != table.total_misses:
            details.append(
                f"{len(table.records)} miss records vs total "
                f"{table.total_misses}"
            )
        if table.total_misses != sum(table.by_stage.values()):
            details.append(
                "per-stage charges do not sum to the total "
                f"({sum(table.by_stage.values())} vs {table.total_misses})"
            )
        return tuple(details)
    if invariant == "residency_sums_to_one":
        residency = result.mode_residency
        total = sum(residency.values())
        details = []
        if abs(total - 1.0) > _RESIDENCY_TOL:
            details.append(f"residency fractions sum to {total!r}")
        details.extend(
            f"residency[{mode}] = {frac!r} outside [0, 1]"
            for mode, frac in residency.items()
            if not 0.0 <= frac <= 1.0
        )
        return tuple(details)
    if invariant == "reactive_engagement":
        if sov is None:
            raise ValueError("reactive_engagement needs the sov instance")
        if _radar_corrupted(faults):
            return ()
        engagements = (
            result.ops.reactive_overrides + result.ops.reactive_holds
        )
        threshold = sov.reactive.threshold_m
        if result.ops.min_forward_range_m <= threshold and engagements == 0:
            return (
                f"forward range reached "
                f"{result.ops.min_forward_range_m:.2f} m (threshold "
                f"{threshold:.2f} m) but the reactive path never engaged",
            )
        return ()
    raise ValueError(
        f"unknown invariant {invariant!r}; known: {INVARIANT_NAMES}"
    )


def _evaluate_cell(
    label: str,
    seed: int,
    cell_id: str,
    scenario,
    sov,
    results: Sequence,
    scene_fingerprints: Optional[Tuple[Tuple, Tuple]] = None,
    scene_checksum: Optional[int] = None,
) -> CellOutcome:
    """Judge one cell's completed drives against every applicable
    invariant.

    *sov* and the first of *results* are the cell's drive; a second
    result is its from-scratch re-drive and turns the
    ``replay_determinism`` check on.  *scene_fingerprints* pairs a
    generated scene's fingerprint with its regeneration's and turns the
    ``scene_regeneration`` check on.  *cell_id* stamps violations so
    reports can print a paste-able ``--cell-id`` replay line.
    """
    result = results[0]
    result2 = results[1] if len(results) > 1 else None
    # The schedule the sov drove: the scene's own faults plus any drawn
    # on top of them.
    faults = () if sov.config.scenario is None else sov.config.scenario.faults
    checked: List[str] = []
    violations: List[InvariantViolation] = []

    def record(invariant: str, details: Sequence[str]) -> None:
        checked.append(invariant)
        violations.extend(
            InvariantViolation(
                invariant=invariant,
                scenario=label,
                seed=seed,
                detail=detail,
                cell_id=cell_id,
            )
            for detail in details
        )

    if scene_fingerprints is not None:
        diverged = _divergence(*scene_fingerprints)
        record(
            "scene_regeneration",
            [] if diverged is None else [f"regeneration diverged: {diverged}"],
        )
    for invariant in INVARIANT_NAMES:
        if invariant == "replay_determinism" and result2 is None:
            continue
        if invariant == "reactive_engagement" and _radar_corrupted(faults):
            continue
        record(
            invariant,
            check_drive_invariant(
                invariant,
                result,
                blocked=scenario.blocked,
                sov=sov,
                result2=result2,
                faults=faults,
            ),
        )
    table = result.attribution
    return CellOutcome(
        scenario=label,
        seed=seed,
        collided=result.collided,
        stopped=result.stopped,
        entered_safe_stop=result.entered_safe_stop,
        final_mode=result.final_mode,
        final_x_m=result.final_state.x_m,
        min_clearance_m=result.min_obstacle_clearance_m,
        min_forward_range_m=result.ops.min_forward_range_m,
        reactive_engagements=(
            result.ops.reactive_overrides + result.ops.reactive_holds
        ),
        deadline_misses=0 if table is None else table.total_misses,
        checked=tuple(checked),
        violations=tuple(violations),
        scene_checksum=scene_checksum,
        dominant_stage=dominant_attribution_stage(result),
        mode_trajectory=degradation_trajectory(sov),
    )


def run_invariant_matrix(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    check_determinism: bool = True,
    deadline_budget_s: Optional[float] = None,
    fleet=None,
) -> MatrixReport:
    """Sweep every ``scenario x seed`` cell (None: the whole suite).

    The cells run through one
    :meth:`~repro.fleetops.supervisor.FleetSupervisor.run`: *fleet* is
    its :class:`~repro.fleetops.supervisor.FleetConfig` (None: the
    default, one worker, in process).  Cells come back in the same
    order, bit-identical, however they ran.
    """
    from ..fleetops.cells import invariant_cells
    from ..fleetops.supervisor import FleetSupervisor

    if not seeds:
        raise ValueError("need at least one seed")
    specs = invariant_cells(
        names=names,
        seeds=seeds,
        check_determinism=check_determinism,
        deadline_budget_s=deadline_budget_s,
    )
    report = FleetSupervisor(fleet).run(specs)
    report.raise_if_incomplete("invariant matrix")
    return MatrixReport(cells=[r.record for r in report.results])
