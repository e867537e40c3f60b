"""Chaos campaign engine: seeded randomized fault sweeps (Sec. III-C, IV).

PR 1 made the paper's safety argument testable for five hand-written
scenarios; this module generalizes it to *campaigns*: a seeded generator
samples :class:`~repro.robustness.faults.FaultScenario`s from a
configurable fault-space distribution — which modules, fault kinds, onset
windows, durations, severities, and co-occurring fault pairs — and sweeps
hundreds of closed-loop drives through
:class:`~repro.runtime.sov.SystemsOnAVehicle`, with and without the
safety net.  The aggregate is a **collision-free envelope report**:
collision rate, SAFE_STOP rate, mode-residency histograms, MTTR
percentiles, restart counts per module, shed-task counts, and the
fault-intensity frontier at which the reactive path alone can no longer
guarantee safety.

Everything is deterministic per ``(campaign seed, drive index)``: the
scenario sampler, the drive's simulation seed, and the fault harness all
derive from :class:`numpy.random.SeedSequence` spawns of that pair, so
any sampled drive — in particular any *failing* drive — replays
bit-identically from its cell id (``chaos:<corridor>:<seed>:<index>:<arm>``,
see :func:`repro.triage.replay.replay_cell`) and can be pinned as a
standalone regression test.

The fault-space distribution encodes the paper's design point.  At
nominal intensity (1.0) it only emits faults the Sec. III-C architecture
is designed to survive: any single failure, and co-occurring pairs that
leave at least one forward-sensing path truthful.  Raising ``intensity``
scales severities and durations and — past ``double_blind_intensity`` —
admits *double-blind* pairs (vision dark while the radar lies or is
silent), which no amount of graceful degradation can see through.  The
frontier sweep makes that boundary measurable instead of asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability.attribution import (
    AttributionTable,
    merge_attribution_tables,
)
from .faults import (
    CameraFrameDropFault,
    CanBusFault,
    Fault,
    FaultScenario,
    FaultWindow,
    GpsDenialFault,
    LatencySpikeFault,
    PerceptionCrashFault,
    PerceptionStallFault,
    SensorDropoutFault,
    SensorFreezeFault,
    SensorStuckValueFault,
    SteeringBiasFault,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..fleetops.injection import WorkerFaultPlan
    from ..fleetops.supervisor import FleetConfig, FleetRunReport

#: Fault kinds that leave the vision pipeline dark.
VISION_BLINDING = frozenset({"camera_dropout"})
#: Fault kinds that silence or corrupt the reactive Radar/Sonar path.
REACTIVE_KILLING = frozenset({"radar_dropout", "radar_freeze", "radar_stuck"})

#: Default sampling weights over the fault vocabulary.
DEFAULT_KIND_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("camera_dropout", 1.0),
    ("radar_dropout", 0.8),
    ("radar_freeze", 0.5),
    ("radar_stuck", 0.5),
    ("gps_denial", 1.0),
    ("can_burst", 1.0),
    ("perception_crash", 1.0),
    ("perception_stall", 0.8),
    ("latency_spike", 0.8),
    ("camera_frame_drop", 0.4),
    ("steering_bias", 0.6),
)


#: Seed-stream domain tag for composed triage fault schedules (distinct
#: from the per-drive chaos scenario stream, 0xC4A05).
_STREAM_SCHEDULE = 0x5C8ED


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * rng.random())


@dataclass(frozen=True)
class FaultSpace:
    """A distribution over fault scenarios, with an intensity dial.

    ``intensity`` scales severities (loss/drop/spike probabilities, stall
    magnitudes, extra delays) and fault durations; 1.0 is the
    paper-nominal operating point the architecture must survive with
    zero collisions.  ``double_blind_intensity`` is the admission
    threshold for co-occurring pairs that blind *both* forward-sensing
    paths at once — the fault family that defines the safety frontier.
    """

    intensity: float = 1.0
    kind_weights: Tuple[Tuple[str, float], ...] = DEFAULT_KIND_WEIGHTS
    #: Probability (scaled by intensity, capped at 1) that a scenario
    #: carries a second, co-occurring fault.
    co_occurrence_prob: float = 0.3
    #: Faults start uniformly inside this window.
    onset_window_s: Tuple[float, float] = (0.0, 2.5)
    #: Base duration range; multiplied by intensity.
    duration_range_s: Tuple[float, float] = (1.0, 3.0)
    #: Below this intensity, vision-blinding faults never co-occur with
    #: reactive-killing ones (the unsurvivable double-blind family).
    double_blind_intensity: float = 1.75
    can_loss_range: Tuple[float, float] = (0.25, 0.7)
    can_delay_max_s: float = 0.008
    stall_range_s: Tuple[float, float] = (0.25, 0.9)
    spike_range_s: Tuple[float, float] = (0.1, 0.5)
    spike_prob_range: Tuple[float, float] = (0.1, 0.4)
    frame_drop_range: Tuple[float, float] = (0.2, 0.8)
    stuck_value_range_m: Tuple[float, float] = (8.0, 30.0)
    #: Lateral-fault magnitude (radians of steering bias at the
    #: actuator); sign is drawn uniformly.
    steering_bias_range_rad: Tuple[float, float] = (0.03, 0.15)

    def __post_init__(self) -> None:
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if not self.kind_weights:
            raise ValueError("fault space needs at least one kind")
        known = {kind for kind, _ in DEFAULT_KIND_WEIGHTS}
        unknown = {kind for kind, _ in self.kind_weights} - known
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}")
        if not 0.0 <= self.co_occurrence_prob <= 1.0:
            raise ValueError("co-occurrence probability must be in [0, 1]")

    def with_intensity(self, intensity: float) -> "FaultSpace":
        return replace(self, intensity=intensity)

    # -- sampling --------------------------------------------------------------

    def _admissible_partners(self, first: str) -> List[str]:
        """Kinds that may co-occur with *first* at the current intensity."""
        partners = []
        for kind, _ in self.kind_weights:
            if kind == first:
                continue
            blinding_pair = (
                first in VISION_BLINDING and kind in REACTIVE_KILLING
            ) or (first in REACTIVE_KILLING and kind in VISION_BLINDING)
            if blinding_pair and self.intensity < self.double_blind_intensity:
                continue
            partners.append(kind)
        return partners

    def _pick_kind(
        self, rng: np.random.Generator, candidates: Sequence[str]
    ) -> str:
        weights = dict(self.kind_weights)
        probs = np.array([weights[k] for k in candidates], dtype=float)
        probs /= probs.sum()
        return str(rng.choice(list(candidates), p=probs))

    def _window(self, rng: np.random.Generator) -> FaultWindow:
        onset = _uniform(rng, *self.onset_window_s)
        duration = _uniform(rng, *self.duration_range_s) * self.intensity
        return FaultWindow(onset, onset + duration)

    def _build(self, rng: np.random.Generator, kind: str) -> Fault:
        window = self._window(rng)
        i = self.intensity
        if kind == "camera_dropout":
            return SensorDropoutFault("camera", window)
        if kind == "radar_dropout":
            return SensorDropoutFault("radar", window)
        if kind == "radar_freeze":
            return SensorFreezeFault("radar", window)
        if kind == "radar_stuck":
            return SensorStuckValueFault(
                "radar", _uniform(rng, *self.stuck_value_range_m), window
            )
        if kind == "gps_denial":
            return GpsDenialFault(window)
        if kind == "can_burst":
            return CanBusFault(
                window=window,
                loss_prob=min(1.0, _uniform(rng, *self.can_loss_range) * i),
                extra_delay_s=_uniform(rng, 0.0, self.can_delay_max_s) * i,
            )
        if kind == "perception_crash":
            return PerceptionCrashFault(window)
        if kind == "perception_stall":
            return PerceptionStallFault(
                extra_latency_s=_uniform(rng, *self.stall_range_s) * i,
                window=window,
            )
        if kind == "latency_spike":
            return LatencySpikeFault(
                spike_s=_uniform(rng, *self.spike_range_s) * i,
                spike_prob=min(
                    1.0, _uniform(rng, *self.spike_prob_range) * i
                ),
                window=window,
            )
        if kind == "camera_frame_drop":
            return CameraFrameDropFault(
                drop_prob=min(
                    1.0, _uniform(rng, *self.frame_drop_range) * i
                ),
                window=window,
            )
        if kind == "steering_bias":
            magnitude = _uniform(rng, *self.steering_bias_range_rad) * i
            sign = 1.0 if rng.random() < 0.5 else -1.0
            return SteeringBiasFault(bias_rad=sign * magnitude, window=window)
        raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover

    def sample_scenario(
        self, rng: np.random.Generator, name: str
    ) -> FaultScenario:
        """Draw one scenario: 1 fault, or a co-occurring admissible pair."""
        kinds = [kind for kind, _ in self.kind_weights]
        first = self._pick_kind(rng, kinds)
        chosen = [first]
        pair_roll = rng.random()  # always drawn: stable stream shape
        if pair_roll < min(1.0, self.co_occurrence_prob * self.intensity):
            partners = self._admissible_partners(first)
            if partners:
                chosen.append(self._pick_kind(rng, partners))
        faults = tuple(self._build(rng, kind) for kind in chosen)
        return FaultScenario(
            name=name,
            faults=faults,
            description=f"chaos-sampled: {' + '.join(chosen)}",
        )

    def sample_schedule(
        self,
        campaign_seed: int,
        index: int,
        n_draws: int,
        stream: int = _STREAM_SCHEDULE,
    ) -> Tuple["Fault", ...]:
        """Compose *n_draws* independent scenario draws into one flat
        fault schedule — the haystack the failure-triage shrinker
        subsets.

        Each draw gets its own :class:`numpy.random.SeedSequence` keyed
        by ``(campaign_seed, index, draw, stream)``, so the schedule is
        bit-identical per coordinate and any *subset* of it is exactly
        re-runnable (delta debugging removes draws; it never re-rolls
        them).  Unlike :meth:`sample_scenario`, composition across draws
        is not double-blind gated — composed schedules are the
        *injection* vocabulary, deliberately harsher than the admission-
        gated campaign distribution.
        """
        if n_draws < 0:
            raise ValueError("n_draws must be non-negative")
        faults: List[Fault] = []
        for draw in range(n_draws):
            rng = np.random.default_rng(
                np.random.SeedSequence((campaign_seed, index, draw, stream))
            )
            scenario = self.sample_scenario(
                rng, name=f"schedule-{campaign_seed}-{index}-{draw}"
            )
            faults.extend(scenario.faults)
        return tuple(faults)


# -- campaign configuration ----------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: N seeded drives down the drill corridor.

    ``corridor`` retargets the campaign at any registered scene instead
    of the default single-obstacle drill lane — a bare corridor name
    (``"slalom"``), a qualified one (``"corridor:slalom"``), or a
    generated scene family (``"procgen:crossroads"``); see
    :mod:`repro.scene.providers`.  Each drive regenerates the scene
    from its own drive seed (so geometry jitters per drive, like a real
    campaign route) and the chaos-sampled faults are layered on top of
    any fault schedule the scene carries built in.
    """

    n_drives: int = 200
    seed: int = 0
    space: FaultSpace = field(default_factory=FaultSpace)
    duration_s: float = 10.0
    obstacle_distance_m: float = 25.0
    initial_speed_mps: float = 5.6
    safety_net: bool = True
    #: Registered scene to drive (None: single-obstacle drill).  Bare
    #: names resolve through the default ``corridor`` provider.
    corridor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_drives <= 0:
            raise ValueError("campaign needs at least one drive")
        if self.corridor is not None:
            from ..scene.providers import is_known_scene, scene_names

            if not is_known_scene(self.corridor):
                raise ValueError(
                    f"unknown scene {self.corridor!r}; "
                    f"known: {scene_names()}"
                )


def drive_seed(campaign_seed: int, index: int) -> int:
    """The simulation seed of drive *index* (stable across processes)."""
    return int(
        np.random.SeedSequence((campaign_seed, index)).generate_state(1)[0]
    )


def scenario_for_drive(
    space: FaultSpace, campaign_seed: int, index: int
) -> FaultScenario:
    """Deterministically sample drive *index*'s fault scenario."""
    rng = np.random.default_rng(
        np.random.SeedSequence((campaign_seed, index, 0xC4A05))
    )
    return space.sample_scenario(rng, name=f"chaos-{campaign_seed}-{index}")


@dataclass(frozen=True)
class ChaosDriveRecord:
    """The envelope-relevant outcome of one sampled drive."""

    index: int
    seed: int
    scenario_name: str
    fault_kinds: Tuple[str, ...]
    collided: bool
    stopped: bool
    entered_safe_stop: bool
    final_mode: str
    min_clearance_m: float
    reactive_interventions: int
    restarts_by_module: Dict[str, int]
    mttr_s: Optional[float]
    mode_residency: Dict[str, float]
    sheds_by_mode: Dict[str, int]
    #: Eq. 1 deadline misses this drive, and the full per-stage/per-fault
    #: attribution (see :mod:`repro.observability.attribution`).
    deadline_misses: int = 0
    attribution: Optional[AttributionTable] = None


def build_chaos_drive(config: ChaosConfig, index: int):
    """Construct drive *index* without driving it.

    Returns ``(scenario, sov, duration_s)`` — the configured vehicle
    ready for either ``sov.drive(duration_s)`` (the scalar reference,
    :func:`run_chaos_drive`) or the batched stepper
    (:mod:`repro.runtime.batched`), which the cell executor uses to
    advance many such vehicles in lockstep.  The sov built here drives
    bit-identically either way.
    """
    from ..runtime.sov import obstacle_ahead_scenario

    scenario = scenario_for_drive(config.space, config.seed, index)
    duration_s = config.duration_s
    if config.corridor is not None:
        # Campaign drives down a registered multi-obstacle scene: the
        # world regenerates per drive seed, chaos faults stack on any
        # schedule the scene variant carries built in.
        from ..scene.corridors import make_corridor_sov
        from ..scene.providers import resolve_scene

        corridor = resolve_scene(
            config.corridor, drive_seed(config.seed, index)
        )
        sov = make_corridor_sov(
            corridor,
            safety_net=config.safety_net,
            extra_faults=scenario.faults,
        )
        scenario = sov.config.scenario or scenario
        duration_s = corridor.duration_s
    else:
        sov = obstacle_ahead_scenario(
            config.obstacle_distance_m,
            reactive_enabled=config.safety_net,
            degradation_enabled=config.safety_net,
            initial_speed_mps=config.initial_speed_mps,
            seed=drive_seed(config.seed, index),
            fault_scenario=scenario,
        )
    # Attribution is RNG-free bookkeeping: enabling it for every chaos
    # drive leaves the drive itself bit-identical to an unobserved run.
    sov.enable_attribution()
    return scenario, sov, duration_s


def chaos_drive_record(
    config: ChaosConfig, index: int, scenario, result
) -> ChaosDriveRecord:
    """Summarize a completed drive into its campaign record."""
    health = result.health
    record = ChaosDriveRecord(
        index=index,
        seed=drive_seed(config.seed, index),
        scenario_name=scenario.name,
        fault_kinds=tuple(scenario.kinds),
        collided=result.collided,
        stopped=result.stopped,
        entered_safe_stop=result.entered_safe_stop,
        final_mode=result.final_mode,
        min_clearance_m=result.min_obstacle_clearance_m,
        reactive_interventions=result.ops.reactive_overrides,
        restarts_by_module=(
            {} if health is None else dict(health.restarts_by_module)
        ),
        mttr_s=None if health is None else health.mean_time_to_repair_s,
        mode_residency=dict(result.mode_residency),
        sheds_by_mode=dict(result.ops.sheds_by_mode),
        deadline_misses=(
            0
            if result.attribution is None
            else result.attribution.total_misses
        ),
        attribution=result.attribution,
    )
    return record


def run_chaos_drive(config: ChaosConfig, index: int):
    """Run drive *index* of the campaign; returns (record, DriveResult)."""
    scenario, sov, duration_s = build_chaos_drive(config, index)
    result = sov.drive(duration_s)
    return chaos_drive_record(config, index, scenario, result), result


# -- the envelope --------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    """Aggregate safety envelope of one campaign arm."""

    n_drives: int
    seed: int
    intensity: float
    safety_net: bool
    collisions: int
    collision_rate: float
    safe_stop_rate: float
    stop_rate: float
    mean_reactive_interventions: float
    mode_residency_mean: Dict[str, float]
    mttr_p50_s: float
    mttr_p90_s: float
    mttr_p99_s: float
    restarts_by_module: Dict[str, int]
    sheds_by_mode: Dict[str, int]
    failing_indices: Tuple[int, ...]
    #: Campaign-wide Eq. 1 deadline misses and their merged attribution
    #: table (None when no drive carried an attribution table).
    deadline_misses: int = 0
    attribution: Optional[AttributionTable] = None

    def as_dict(self) -> Dict[str, float]:
        """A flat, order-stable numeric view (determinism comparisons)."""
        out: Dict[str, float] = {
            "n_drives": float(self.n_drives),
            "collisions": float(self.collisions),
            "collision_rate": self.collision_rate,
            "safe_stop_rate": self.safe_stop_rate,
            "stop_rate": self.stop_rate,
            "mean_reactive_interventions": self.mean_reactive_interventions,
            "mttr_p50_s": self.mttr_p50_s,
            "mttr_p90_s": self.mttr_p90_s,
            "mttr_p99_s": self.mttr_p99_s,
        }
        for name in sorted(self.mode_residency_mean):
            out[f"residency_{name}"] = self.mode_residency_mean[name]
        for name in sorted(self.restarts_by_module):
            out[f"restarts_{name}"] = float(self.restarts_by_module[name])
        for name in sorted(self.sheds_by_mode):
            out[f"sheds_{name}"] = float(self.sheds_by_mode[name])
        out["deadline_misses"] = float(self.deadline_misses)
        if self.attribution is not None:
            for key, value in self.attribution.as_dict().items():
                out[f"attr_{key}"] = value
        return out


def aggregate_envelope(
    config: ChaosConfig, records: Sequence[ChaosDriveRecord]
) -> EnvelopeReport:
    """Fold per-drive records into the collision-free envelope report."""
    n = len(records)
    if n == 0:
        raise ValueError("cannot aggregate an empty campaign")
    collisions = sum(r.collided for r in records)
    residency_sum: Dict[str, float] = {}
    restarts: Dict[str, int] = {}
    sheds: Dict[str, int] = {}
    mttrs: List[float] = []
    for record in records:
        for mode, frac in record.mode_residency.items():
            residency_sum[mode] = residency_sum.get(mode, 0.0) + frac
        for module, count in record.restarts_by_module.items():
            restarts[module] = restarts.get(module, 0) + count
        for mode, count in record.sheds_by_mode.items():
            sheds[mode] = sheds.get(mode, 0) + count
        if record.mttr_s is not None:
            mttrs.append(record.mttr_s)
    percentiles = (
        np.percentile(mttrs, [50.0, 90.0, 99.0]) if mttrs else (0.0, 0.0, 0.0)
    )
    tables = [r.attribution for r in records if r.attribution is not None]
    attribution = merge_attribution_tables(tables) if tables else None
    if attribution is not None:
        attribution.check_consistency()
    return EnvelopeReport(
        n_drives=n,
        seed=config.seed,
        intensity=config.space.intensity,
        safety_net=config.safety_net,
        collisions=collisions,
        collision_rate=collisions / n,
        safe_stop_rate=sum(r.entered_safe_stop for r in records) / n,
        stop_rate=sum(r.stopped for r in records) / n,
        mean_reactive_interventions=(
            sum(r.reactive_interventions for r in records) / n
        ),
        mode_residency_mean={
            mode: total / n for mode, total in residency_sum.items()
        },
        mttr_p50_s=float(percentiles[0]),
        mttr_p90_s=float(percentiles[1]),
        mttr_p99_s=float(percentiles[2]),
        restarts_by_module=restarts,
        sheds_by_mode=sheds,
        failing_indices=tuple(r.index for r in records if r.collided),
        deadline_misses=sum(r.deadline_misses for r in records),
        attribution=attribution,
    )


@dataclass
class ChaosCampaignResult:
    """All per-drive records of one campaign arm plus the envelope."""

    config: ChaosConfig
    records: List[ChaosDriveRecord]
    envelope: EnvelopeReport
    #: The supervised run that produced the records: per-cell results
    #: and supervision counters.
    report: "FleetRunReport"


def iter_cells(config: Optional[ChaosConfig] = None, start: int = 0):
    """Lazily yield the campaign's cells in drive order.

    Each yielded :class:`~repro.fleetops.cells.CellSpec` is small,
    hashable, and picklable, and runs bit-identically in process or on
    a :class:`~repro.fleetops.supervisor.FleetSupervisor` pool.
    Nothing is materialized: enumerating a million-drive campaign costs
    a generator, not a list.
    """
    from ..fleetops.cells import chaos_cells

    return chaos_cells(config or ChaosConfig(), start=start)


def run_chaos_campaign(
    config: Optional[ChaosConfig] = None,
    fleet: Optional["FleetConfig"] = None,
    journal_path: Optional[str] = None,
    fault_plan: Optional["WorkerFaultPlan"] = None,
) -> ChaosCampaignResult:
    """Sweep ``config.n_drives`` sampled scenarios through the SoV.

    The cells of :func:`iter_cells` run through one
    :meth:`~repro.fleetops.supervisor.FleetSupervisor.run`: *fleet* is
    its config (None: the default, one worker, in process).  With
    *journal_path* set, an interrupted campaign resumes from its
    journal with exactly-once cell accounting; *fault_plan* injects
    worker faults into a pool run.  Records come back in drive order,
    so the envelope is bit-identical however the cells ran.
    """
    from ..fleetops.supervisor import FleetSupervisor

    config = config or ChaosConfig()
    report = FleetSupervisor(fleet).run(
        iter_cells(config),
        journal_path=journal_path,
        fault_plan=fault_plan,
        meta={"kind": "chaos", "n_drives": config.n_drives},
    )
    report.raise_if_incomplete("chaos campaign")
    records = [result.record for result in report.results]
    return ChaosCampaignResult(
        config=config,
        records=records,
        envelope=aggregate_envelope(config, records),
        report=report,
    )


# -- the fault-intensity frontier ----------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    """One intensity step of the frontier sweep (safety net engaged)."""

    intensity: float
    n_drives: int
    collisions: int
    collision_rate: float
    safe_stop_rate: float


def intensity_frontier(
    intensities: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0),
    n_drives: int = 48,
    seed: int = 0,
    space: Optional[FaultSpace] = None,
) -> Tuple[List[FrontierPoint], Optional[float]]:
    """Sweep fault intensity and find where the safety net breaks.

    Every point drives *n_drives* sampled scenarios with the full safety
    net engaged; the frontier is the lowest swept intensity with a
    nonzero collision rate — the boundary past which the reactive path
    alone can no longer guarantee safety (None if the net holds across
    the whole sweep).
    """
    base = space or FaultSpace()
    points: List[FrontierPoint] = []
    frontier: Optional[float] = None
    for intensity in intensities:
        point = _frontier_point(base, intensity, n_drives, seed)
        points.append(point)
        if frontier is None and point.collisions > 0:
            frontier = intensity
    return points, frontier


def _frontier_point(
    base: FaultSpace, intensity: float, n_drives: int, seed: int
) -> FrontierPoint:
    """Evaluate one intensity with the safety net engaged.

    Deterministic per ``(seed, intensity)``: the fixed-grid and adaptive
    sweeps produce identical points wherever they evaluate the same
    intensity.
    """
    config = ChaosConfig(
        n_drives=n_drives,
        seed=seed,
        space=base.with_intensity(intensity),
        safety_net=True,
    )
    envelope = run_chaos_campaign(config).envelope
    return FrontierPoint(
        intensity=intensity,
        n_drives=n_drives,
        collisions=envelope.collisions,
        collision_rate=envelope.collision_rate,
        safe_stop_rate=envelope.safe_stop_rate,
    )


def adaptive_intensity_frontier(
    lo: float = 1.0,
    hi: float = 3.0,
    resolution: float = 0.125,
    n_drives: int = 48,
    seed: int = 0,
    space: Optional[FaultSpace] = None,
) -> Tuple[List[FrontierPoint], Optional[float]]:
    """Locate the safety frontier by bisection instead of a fixed grid.

    Evaluates the bracket ends first: a collision already at *lo* makes
    *lo* the frontier; a clean sweep at *hi* means the net holds over the
    whole bracket (frontier None).  Otherwise bisection maintains the
    invariant "*lo* collision-free, *hi* collides" and narrows the
    bracket to *resolution*; the returned frontier is the colliding end
    of the final bracket — an upper bound within *resolution* of the true
    boundary.

    Each probe costs *n_drives* drives, so the sweep needs
    ``2 + ceil(log2((hi - lo) / resolution))`` probes where the fixed
    grid pays one per grid point regardless of where the boundary lies.
    The search path is a pure function of the probe outcomes, which are
    deterministic per ``(seed, intensity)`` — same seed, same frontier,
    every run.  Returned points are sorted by intensity.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    base = space or FaultSpace()
    points: Dict[float, FrontierPoint] = {}

    def probe(intensity: float) -> FrontierPoint:
        point = _frontier_point(base, intensity, n_drives, seed)
        points[intensity] = point
        return point

    if probe(lo).collisions > 0:
        return [points[lo]], lo
    if probe(hi).collisions == 0:
        return [points[i] for i in sorted(points)], None
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid).collisions > 0:
            hi = mid
        else:
            lo = mid
    return [points[i] for i in sorted(points)], hi
