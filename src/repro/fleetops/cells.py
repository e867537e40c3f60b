"""The campaign cell: one pure, picklable unit of fleet work, and the one
executor that drives it.

Every campaign the repo runs — chaos sweeps
(:func:`repro.robustness.chaos.run_chaos_campaign`), the corridor
invariant matrix (:func:`repro.testing.invariants.run_invariant_matrix`),
generated-scene sweeps, the fault-drill ablation
(:func:`repro.experiments.fault_campaign.run_campaign`) and the triage
harvest — decomposes into ``scenario x seed x fault`` cells.  This
module gives those cells one shared executor:

* :class:`CellSpec` names a cell completely: its kind, its position in
  campaign order, and a frozen kind-specific payload.  Specs are small,
  hashable, and picklable, so they cross process boundaries and key the
  campaign journal.
* :data:`CELL_KINDS` is the kind table.  Each entry *builds* a cell's
  drives as fresh ``(sov, duration_s)`` pairs — two for a cell that
  checks replay determinism, whose re-drive rides in the same batch —
  and *finishes* the cell's record, fingerprint and summary from their
  :class:`~repro.runtime.sov.DriveResult` s.
* :func:`run_cells` is the only place a campaign cell is driven.  It
  takes specs in lockstep groups of :data:`LOCKSTEP_GROUP` cells and
  :func:`drive_group` advances every drive of a group through one
  :func:`~repro.runtime.batched.drive_batch` call.  :func:`run_cell` is
  a group of one.  Campaigns reach both only through
  :meth:`~repro.fleetops.supervisor.FleetSupervisor.run`: its
  in-process path runs groups, and each pool worker runs a chunk of up
  to :data:`LOCKSTEP_GROUP` cells as one group per message.  The
  shrinker and ``--cell-id`` replay call :func:`run_cell` directly.
  The differential harness (:mod:`repro.testing.differential`) checks
  the group step against the scalar drive.

A cell is a *pure function of its spec*: all randomness derives from
seeds the spec carries, drives share no state, and ``drive_batch``
reproduces the scalar ``SystemsOnAVehicle.drive`` bit for bit per drive.
So a cell gives the identical result in a group of sixteen in-process,
alone in a worker four retries deep, or speculatively on two workers at
once — the whole determinism contract of the fleet engine: first result
wins and nothing is lost by discarding duplicates.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import zlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Cells per lockstep group: the N that perfbench ``lockstep`` and
#: ``BENCH_batched.json`` measure the batched stepper at.
LOCKSTEP_GROUP = 16


def _drive_shape(config) -> Tuple:
    """The chaos-config fields, beyond seed, arm and corridor, that
    shape a drive."""
    return (
        config.space,
        config.duration_s,
        config.obstacle_distance_m,
        config.initial_speed_mps,
    )


@dataclass(frozen=True)
class ChaosCell:
    """One drive of a chaos campaign: ``(campaign config, drive index)``."""

    config: "object"  # repro.robustness.chaos.ChaosConfig
    drive_index: int

    @property
    def cell_id(self) -> str:
        config = self.config
        arm = "net" if config.safety_net else "raw"
        corridor = config.corridor or "drill-lane"
        cell_id = f"chaos:{corridor}:{config.seed}:{self.drive_index}:{arm}"
        # Default-config ids keep their historical spelling.  Any other
        # drive shape gets a CRC of it, so two configs never share an id
        # (nor a journal signature); parse_cell_id refuses such ids.
        shape = _drive_shape(config)
        if shape != _drive_shape(type(config)(n_drives=1)):
            crc = zlib.crc32(repr(shape).encode("utf-8"))
            cell_id += f":x{crc:08x}"
        return cell_id


@dataclass(frozen=True)
class InvariantCell:
    """One corridor invariant-harness cell: ``(scenario name, seed)``.

    ``fault_seed`` layers the chaos campaign's fault draw for that seed
    on top of the scene's own schedule; the draw is seeded apart from
    the scene, so one scene can be driven under many draws.
    """

    name: str
    seed: int
    deadline_budget_s: Optional[float] = None
    check_determinism: bool = True
    fault_seed: Optional[int] = None

    @property
    def cell_id(self) -> str:
        # The default (no fault draw, paper-budget, determinism-checked)
        # id predates these fields; only a departure spells them, so
        # historical journal ids stay valid.  repr, not :g, so the
        # budget parses back to the same float.
        faults = "" if self.fault_seed is None else f":f{self.fault_seed}"
        budget = (
            ""
            if self.deadline_budget_s is None
            else f":b{float(self.deadline_budget_s)!r}"
        )
        suffix = "" if self.check_determinism else ":nodet"
        return f"invariant:{self.name}:{self.seed}{faults}{budget}{suffix}"


@dataclass(frozen=True)
class ProcGenCell:
    """One generated-scenario invariant cell: ``(space, seed, index)``.

    The :class:`~repro.scene.procgen.ProcGenSpace` rides inside the
    payload (frozen, picklable), so workers regenerate the scene from
    the coordinates alone — the same purity contract every cell kind
    obeys.
    """

    space: "object"  # repro.scene.procgen.ProcGenSpace
    generator_seed: int
    cell_index: int
    check_determinism: bool = True

    @property
    def cell_id(self) -> str:
        space = self.space
        suffix = "" if self.check_determinism else ":nodet"
        cell_id = (
            f"procgen:{self.generator_seed}:{self.cell_index}"
            f":i{float(space.intensity)!r}{suffix}"
        )
        # As for chaos ids: a space that is not the default one at this
        # intensity gets a CRC of itself, which parse_cell_id refuses.
        if space != type(space)(intensity=space.intensity):
            crc = zlib.crc32(repr(space).encode("utf-8"))
            cell_id += f":x{crc:08x}"
        return cell_id


@dataclass(frozen=True)
class DrillCell:
    """One fault-campaign drill: a named scenario with or without the net."""

    scenario: str
    safety_net: bool = True
    seed: int = 0

    @property
    def cell_id(self) -> str:
        arm = "net" if self.safety_net else "raw"
        return f"drill:{self.scenario}:{arm}:{self.seed}"


@dataclass(frozen=True)
class TriageCell:
    """One fully-explicit drive: the unit the failure-triage shrinker edits.

    Unlike the campaign cell kinds — which name a *draw* (a config plus
    an index into a seeded stream) — a triage cell carries the complete
    fault schedule, the agent drop-set, the drive horizon, and the scene
    coordinates explicitly, so the delta-debugging shrinker can remove
    any single element and re-run the remainder bit-identically.

    ``scene`` is ``"drill-lane"`` (the chaos single-obstacle lane), a
    registered corridor name, or ``"procgen:<topology>"`` (regenerated
    from ``space.sample(scene_seed, cell_index, topology=...)``).
    ``faults`` is the *entire* schedule — any schedule the scene carries
    built in is ignored, so the shrinker's subset is authoritative.
    ``replica`` distinguishes flake-protocol re-executions of the same
    underlying cell; replica 0 is the exact original.
    """

    scene: str = "drill-lane"
    scene_seed: int = 0
    sim_seed: int = 0
    faults: Tuple = ()
    drop_agents: Tuple[int, ...] = ()
    duration_s: Optional[float] = None
    safety_net: bool = False
    invariant: str = "no_collision_or_safe_stop"
    #: Drill-lane geometry (ignored for corridor/procgen scenes).
    obstacle_distance_m: float = 25.0
    initial_speed_mps: float = 5.6
    #: Generator space for ``procgen:*`` scenes (frozen, picklable).
    space: Optional["object"] = None
    cell_index: int = 0
    replica: int = 0

    @property
    def cell_id(self) -> str:
        ident = (
            self.scene,
            self.scene_seed,
            self.sim_seed,
            tuple(repr(f) for f in self.faults),
            self.drop_agents,
            self.duration_s,
            self.safety_net,
            self.invariant,
            self.obstacle_distance_m,
            self.initial_speed_mps,
            repr(self.space),
            self.cell_index,
        )
        crc = zlib.crc32(repr(ident).encode("utf-8"))
        return f"triage:{self.scene}:{self.sim_seed}:{crc:08x}:r{self.replica}"


CellPayload = Union[ChaosCell, InvariantCell, DrillCell, ProcGenCell, TriageCell]


@dataclass(frozen=True)
class CellSpec:
    """One cell of a campaign, named completely and picklable.

    ``index`` is the cell's position in campaign order — the in-process
    executor returns results in spec order, and the fleet path sorts
    results back into index order, so aggregation sees the identical
    sequence either way.
    """

    kind: str
    index: int
    cell: CellPayload

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; known: {tuple(CELL_KINDS)}"
            )
        if self.index < 0:
            raise ValueError("cell index must be non-negative")

    @property
    def cell_id(self) -> str:
        """The stable identity key (journal, dedup, speculative merge)."""
        return self.cell.cell_id


@dataclass(frozen=True)
class DrillRecord:
    """Compact, picklable outcome of one fault drill."""

    scenario: str
    safety_net: bool
    seed: int
    collided: bool
    stopped: bool
    entered_safe_stop: bool
    final_mode: str
    min_clearance_m: float
    reactive_interventions: int
    restarts: int
    worst_availability: float
    #: Mean time to repair of the drill's module restarts (None: none).
    mttr_s: Optional[float]


@dataclass(frozen=True)
class CellResult:
    """The outcome of one executed cell.

    ``fingerprint`` is the bit-exact identity of the underlying drive
    (see :func:`repro.testing.invariants.drive_fingerprint`): two
    results with equal fingerprints took the same trajectory tick for
    tick.  ``sim_duration_s`` is the simulated length of the cell's
    drive.  ``wall_s`` is machine-dependent and excluded from every
    determinism comparison.
    """

    cell_id: str
    index: int
    kind: str
    fingerprint: Tuple
    summary: Dict[str, float]
    record: object
    sim_duration_s: float
    wall_s: float
    #: Worker-side exception traceback, when this result came out of an
    #: in-process fallback after pool attempts died (see
    #: :class:`repro.fleetops.supervisor.FleetRunReport.failure_details`).
    #: Diagnostic only — excluded from :meth:`identity`.
    error: Optional[str] = None

    def identity(self) -> Tuple:
        """The machine-independent view (what bit-identity compares)."""
        return (self.cell_id, self.index, self.kind, self.fingerprint)


# -- the kind table ------------------------------------------------------------

_Drives = List[Tuple[object, float]]


class CellKind(NamedTuple):
    """How one cell kind is driven."""

    #: ``cell -> (context, drives)``: fresh ``(sov, duration_s)`` pairs,
    #: plus whatever *finish* needs besides their results.
    build: Callable[[CellPayload], Tuple[object, _Drives]]
    #: ``(cell, context, drives, results) -> (record, fingerprint,
    #: summary)``.
    finish: Callable[..., Tuple[object, Tuple, Dict[str, float]]]


def _build_chaos(cell: ChaosCell):
    from ..robustness.chaos import build_chaos_drive

    scenario, sov, duration_s = build_chaos_drive(
        cell.config, cell.drive_index
    )
    return scenario, [(sov, duration_s)]


def _finish_chaos(cell: ChaosCell, scenario, _drives, results):
    from ..robustness.chaos import chaos_drive_record
    from ..testing.invariants import drive_fingerprint

    [result] = results
    record = chaos_drive_record(
        cell.config, cell.drive_index, scenario, result
    )
    summary = {
        "collided": float(record.collided),
        "stopped": float(record.stopped),
        "entered_safe_stop": float(record.entered_safe_stop),
        "min_clearance_m": record.min_clearance_m,
        "reactive_interventions": float(record.reactive_interventions),
        "deadline_misses": float(record.deadline_misses),
    }
    return record, drive_fingerprint(result), summary


def _protected_drives(
    scenarios, deadline_budget_s=None, extra_faults=()
) -> _Drives:
    """One protected, attributed drive per scenario (the invariant
    harness's configuration)."""
    from ..scene.corridors import make_corridor_sov

    drives: _Drives = []
    for scenario in scenarios:
        sov = make_corridor_sov(
            scenario, safety_net=True, extra_faults=extra_faults
        )
        sov.enable_attribution(deadline_budget_s)
        drives.append((sov, scenario.duration_s))
    return drives


def _outcome_summary(outcome) -> Dict[str, float]:
    return {
        "collided": float(outcome.collided),
        "entered_safe_stop": float(outcome.entered_safe_stop),
        "violations": float(len(outcome.violations)),
        "checks": float(len(outcome.checked)),
        "deadline_misses": float(outcome.deadline_misses),
    }


def _build_invariant(cell: InvariantCell):
    from ..scene.providers import resolve_scene

    extra_faults = ()
    if cell.fault_seed is not None:
        from ..robustness.chaos import FaultSpace, scenario_for_drive

        extra_faults = scenario_for_drive(
            FaultSpace(), cell.fault_seed, cell.fault_seed
        ).faults
    scenarios = [
        resolve_scene(cell.name, cell.seed)
        for _ in range(2 if cell.check_determinism else 1)
    ]
    return scenarios[0], _protected_drives(
        scenarios, cell.deadline_budget_s, extra_faults
    )


def _finish_invariant(cell: InvariantCell, scenario, drives, results):
    from ..testing.invariants import _evaluate_cell

    outcome = _evaluate_cell(
        cell.name, cell.seed, cell.cell_id, scenario, drives[0][0], results
    )
    return outcome, dataclasses.astuple(outcome), _outcome_summary(outcome)


def _build_procgen(cell: ProcGenCell):
    from ..scene.procgen import scene_checksum, scene_fingerprint

    scenario, regenerated = (
        cell.space.sample(cell.generator_seed, cell.cell_index)
        for _ in range(2)
    )
    # Fingerprint both samples before either drives: a drive moves the
    # world's agents.
    context = (
        scenario,
        (scene_fingerprint(scenario), scene_fingerprint(regenerated)),
        scene_checksum(scenario),
    )
    scenes = [scenario, regenerated] if cell.check_determinism else [scenario]
    return context, _protected_drives(scenes)


def _finish_procgen(cell: ProcGenCell, context, drives, results):
    from ..testing.invariants import _evaluate_cell

    scenario, fingerprints, checksum = context
    outcome = _evaluate_cell(
        f"procgen:{scenario.topology}[{cell.cell_index}]",
        cell.generator_seed,
        cell.cell_id,
        scenario,
        drives[0][0],
        results,
        scene_fingerprints=fingerprints,
        scene_checksum=checksum,
    )
    summary = _outcome_summary(outcome)
    summary["scene_checksum"] = float(checksum)
    return outcome, dataclasses.astuple(outcome), summary


def _build_drill(cell: DrillCell):
    from ..experiments.fault_campaign import (
        DRILL_DURATION_S,
        drill_scenario,
        drill_sov,
    )

    sov = drill_sov(
        drill_scenario(cell.scenario),
        safety_net=cell.safety_net,
        seed=cell.seed,
    )
    return None, [(sov, DRILL_DURATION_S)]


def _finish_drill(cell: DrillCell, _context, _drives, results):
    from ..testing.invariants import drive_fingerprint

    [result] = results
    health = result.health
    record = DrillRecord(
        scenario=cell.scenario,
        safety_net=cell.safety_net,
        seed=cell.seed,
        collided=result.collided,
        stopped=result.stopped,
        entered_safe_stop=result.entered_safe_stop,
        final_mode=result.final_mode,
        min_clearance_m=result.min_obstacle_clearance_m,
        reactive_interventions=result.ops.reactive_overrides,
        restarts=0 if health is None else health.total_restarts,
        worst_availability=(
            1.0 if health is None else health.worst_availability
        ),
        mttr_s=None if health is None else health.mean_time_to_repair_s,
    )
    summary = {
        "collided": float(record.collided),
        "stopped": float(record.stopped),
        "reactive_interventions": float(record.reactive_interventions),
        "restarts": float(record.restarts),
    }
    return record, drive_fingerprint(result), summary


def _build_triage(cell: TriageCell):
    from ..triage.oracle import build_triage_drive

    built = [
        build_triage_drive(cell)
        for _ in range(2 if cell.invariant == "replay_determinism" else 1)
    ]
    return built[0][0], [(sov, duration_s) for _s, sov, duration_s in built]


def _finish_triage(cell: TriageCell, scenario, drives, results):
    from ..testing.invariants import drive_fingerprint
    from ..triage.oracle import judge_triage_drive

    sov, duration_s = drives[0]
    outcome = judge_triage_drive(cell, scenario, sov, duration_s, results)
    summary = {
        "violated": float(outcome.violated),
        "collided": float(outcome.collided),
        "stopped": float(outcome.stopped),
        "entered_safe_stop": float(outcome.entered_safe_stop),
        "min_clearance_m": outcome.min_clearance_m,
        "n_faults": float(outcome.n_faults),
        "n_agents": float(outcome.n_agents),
        "duration_s": outcome.duration_s,
    }
    return outcome, drive_fingerprint(results[0]), summary


#: Every cell kind :func:`run_cells` can execute, keyed by
#: :attr:`CellSpec.kind`.
CELL_KINDS: Dict[str, CellKind] = {
    "chaos": CellKind(_build_chaos, _finish_chaos),
    "invariant": CellKind(_build_invariant, _finish_invariant),
    "drill": CellKind(_build_drill, _finish_drill),
    "procgen": CellKind(_build_procgen, _finish_procgen),
    "triage": CellKind(_build_triage, _finish_triage),
}


# -- execution -----------------------------------------------------------------


def lockstep_groups(specs: Iterable[CellSpec]) -> Iterator[List[CellSpec]]:
    """Pull *specs* lazily, :data:`LOCKSTEP_GROUP` cells at a time."""
    specs = iter(specs)
    while True:
        group = list(itertools.islice(specs, LOCKSTEP_GROUP))
        if not group:
            return
        yield group


def drive_group(
    group: Sequence[CellSpec],
) -> List[Tuple[object, _Drives, List]]:
    """Build every cell of *group* and drive all their drives in lockstep.

    One :func:`~repro.runtime.batched.drive_batch` call advances every
    drive of the group; returns ``(context, drives, results)`` per cell,
    in group order.
    """
    from ..runtime.batched import drive_batch

    built = [CELL_KINDS[spec.kind].build(spec.cell) for spec in group]
    drives = [d for _context, cell_drives in built for d in cell_drives]
    driven = iter(
        drive_batch(
            [sov for sov, _duration in drives],
            [duration for _sov, duration in drives],
        )
    )
    return [
        (
            context,
            cell_drives,
            list(itertools.islice(driven, len(cell_drives))),
        )
        for context, cell_drives in built
    ]


def run_cells(specs: Iterable[CellSpec]) -> List[CellResult]:
    """Execute cells; results come back in spec order.

    Consumes *specs* lazily in :func:`lockstep_groups` and drives each
    group through :func:`drive_group`.  Grouping is an execution
    strategy, not a semantic knob: every cell's result is bit-identical
    however it is grouped.  A cell's ``wall_s`` is its group's wall time
    (build, drive and finish) over the group's cell count.
    """
    results: List[CellResult] = []
    for group in lockstep_groups(specs):
        results.extend(_run_group(group))
    return results


def _run_group(group: Sequence[CellSpec]) -> List[CellResult]:
    started = time.perf_counter()
    driven = drive_group(group)
    finished = [
        CELL_KINDS[spec.kind].finish(spec.cell, context, drives, results)
        for spec, (context, drives, results) in zip(group, driven)
    ]
    wall_s = (time.perf_counter() - started) / len(group)
    return [
        CellResult(
            cell_id=spec.cell_id,
            index=spec.index,
            kind=spec.kind,
            fingerprint=fingerprint,
            summary=summary,
            record=record,
            sim_duration_s=drives[0][1],
            wall_s=wall_s,
        )
        for spec, (_ctx, drives, _res), (record, fingerprint, summary) in zip(
            group, driven, finished
        )
    ]


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell: a lockstep group of one.

    Pure per spec: every random draw derives from seeds the spec
    carries, so re-running a spec anywhere reproduces the identical
    :class:`CellResult` (modulo the informational ``wall_s``).
    """
    return run_cells([spec])[0]


def campaign_crc(results: Sequence[CellResult]) -> int:
    """Order-independent CRC32 over a campaign's cell identities.

    Two campaigns with equal CRCs produced bit-identical outcomes for
    every cell (`identity()` excludes the informational ``wall_s``), no
    matter which grouping, worker count, or completion order produced
    them — the single number the CI batched-smoke job compares.
    """
    payload = repr(tuple(sorted(r.identity() for r in results)))
    return zlib.crc32(payload.encode("utf-8"))


# -- grid builders -------------------------------------------------------------


def chaos_cells(config, start: int = 0) -> Iterator[CellSpec]:
    """Lazily yield a chaos campaign's cells in drive order.

    This is the generator behind
    :func:`repro.robustness.chaos.iter_cells`; nothing is materialized,
    so a million-drive campaign costs nothing to enumerate and the fleet
    engine streams cells exactly as the in-process path does.
    """
    for index in range(start, config.n_drives):
        yield CellSpec(
            kind="chaos",
            index=index,
            cell=ChaosCell(config=config, drive_index=index),
        )


def invariant_cells(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    start_index: int = 0,
    check_determinism: bool = True,
    deadline_budget_s: Optional[float] = None,
) -> List[CellSpec]:
    """The corridor invariant matrix as a flat cell list."""
    from ..scene.corridors import corridor_names

    specs: List[CellSpec] = []
    index = start_index
    for name in names if names is not None else corridor_names():
        for seed in seeds:
            specs.append(
                CellSpec(
                    kind="invariant",
                    index=index,
                    cell=InvariantCell(
                        name=name,
                        seed=seed,
                        deadline_budget_s=deadline_budget_s,
                        check_determinism=check_determinism,
                    ),
                )
            )
            index += 1
    return specs


def procgen_cells(
    space=None,
    generator_seed: int = 0,
    n_cells: int = 200,
    start_index: int = 0,
    check_determinism: bool = True,
) -> Iterator[CellSpec]:
    """Lazily yield a generated-scenario campaign's cells in index order.

    Workers rebuild each scene from ``(space, generator_seed,
    cell_index)`` alone, so enumerating a huge campaign materializes
    nothing but coordinates.
    """
    if space is None:
        from ..scene.procgen import DEFAULT_SPACE

        space = DEFAULT_SPACE
    for offset in range(n_cells):
        index = start_index + offset
        yield CellSpec(
            kind="procgen",
            index=index,
            cell=ProcGenCell(
                space=space,
                generator_seed=generator_seed,
                cell_index=index,
                check_determinism=check_determinism,
            ),
        )


# -- cell-id parsing -----------------------------------------------------------


def parse_cell_id(cell_id: str) -> CellSpec:
    """Rebuild a runnable :class:`CellSpec` from a printed cell id.

    This is the inverse of the ``cell_id`` properties for the campaign
    kinds whose ids are self-describing — ``invariant:``, ``procgen:``
    (default space at its intensity), ``chaos:`` (default drive config),
    and ``drill:`` — so a violation's repro line can be replayed with
    nothing but the id (see :func:`repro.triage.replay.replay_cell`).
    Triage ids, and ids of a non-default chaos config or procgen space
    (``:x<crc>``), embed a CRC of their payload and cannot be
    reconstructed from the id alone; replay triage cells from the
    regression corpus instead.  Every refusal, an unknown scene or
    drill included, is a ``ValueError``.
    """
    parts = cell_id.split(":")
    kind = parts[0]
    if parts[-1].startswith("x"):
        raise ValueError(
            f"cell id {cell_id!r} is not replayable from its id: its "
            f"{kind} config is not the default (the id carries only a "
            "CRC of it)"
        )
    try:
        if kind == "invariant":
            # invariant:{name}:{seed}[:f{fault_seed}][:b{budget}][:nodet]
            fields = parts[1:]
            check = fields[-1] != "nodet"
            if not check:
                fields = fields[:-1]
            budget = None
            if fields[-1].startswith("b"):
                budget = float(fields[-1][1:])
                fields = fields[:-1]
            fault_seed = None
            if fields[-1].startswith("f"):
                fault_seed = int(fields[-1][1:])
                fields = fields[:-1]
            name, seed = ":".join(fields[:-1]), int(fields[-1])
            from ..scene.providers import is_known_scene

            if not is_known_scene(name):
                raise ValueError(f"unknown scene {name!r}")
            return CellSpec(
                kind="invariant",
                index=0,
                cell=InvariantCell(
                    name=name,
                    seed=seed,
                    deadline_budget_s=budget,
                    check_determinism=check,
                    fault_seed=fault_seed,
                ),
            )
        if kind == "procgen":
            # procgen:{generator_seed}:{cell_index}:i{intensity}[:nodet]
            from ..scene.procgen import DEFAULT_SPACE

            check = parts[-1] != "nodet"
            generator_seed, cell_index, intensity = (
                parts[1:] if check else parts[1:-1]
            )
            if not intensity.startswith("i"):
                raise ValueError(f"bad procgen intensity {intensity!r}")
            return CellSpec(
                kind="procgen",
                index=int(cell_index),
                cell=ProcGenCell(
                    space=DEFAULT_SPACE.with_intensity(float(intensity[1:])),
                    generator_seed=int(generator_seed),
                    cell_index=int(cell_index),
                    check_determinism=check,
                ),
            )
        if kind == "chaos":
            # chaos:{corridor}:{seed}:{index}:{net|raw}; the corridor
            # segment may itself contain ':' (procgen:crossroads), so
            # split the fixed fields off the right.
            from ..robustness.chaos import ChaosConfig

            arm = parts[-1]
            if arm not in ("net", "raw"):
                raise ValueError(f"bad chaos arm {arm!r}")
            seed, index = int(parts[-3]), int(parts[-2])
            corridor = ":".join(parts[1:-3])
            config = ChaosConfig(
                n_drives=index + 1,
                seed=seed,
                safety_net=(arm == "net"),
                corridor=None if corridor == "drill-lane" else corridor,
            )
            return CellSpec(
                kind="chaos",
                index=index,
                cell=ChaosCell(config=config, drive_index=index),
            )
        if kind == "drill":
            # drill:{scenario}:{arm}:{seed}
            scenario = ":".join(parts[1:-2])
            arm, seed = parts[-2], int(parts[-1])
            if arm not in ("net", "raw"):
                raise ValueError(f"bad drill arm {arm!r}")
            from ..experiments.fault_campaign import DRILL_SCENARIOS

            if scenario not in DRILL_SCENARIOS:
                raise ValueError(f"unknown drill scenario {scenario!r}")
            return CellSpec(
                kind="drill",
                index=0,
                cell=DrillCell(
                    scenario=scenario, safety_net=(arm == "net"), seed=seed
                ),
            )
    except (IndexError, ValueError) as exc:
        raise ValueError(f"unparseable cell id {cell_id!r}: {exc}") from exc
    raise ValueError(
        f"cell id kind {kind!r} is not replayable from its id "
        "(known: invariant, procgen, chaos, drill)"
    )


def drill_cells(
    scenarios: Optional[Sequence[str]] = None,
    safety_net: bool = True,
    seed: int = 0,
    start_index: int = 0,
) -> List[CellSpec]:
    """The fault-campaign drill sweep as a flat cell list."""
    from ..experiments.fault_campaign import DRILL_ORDER

    specs: List[CellSpec] = []
    for offset, name in enumerate(scenarios or DRILL_ORDER):
        specs.append(
            CellSpec(
                kind="drill",
                index=start_index + offset,
                cell=DrillCell(scenario=name, safety_net=safety_net, seed=seed),
            )
        )
    return specs
