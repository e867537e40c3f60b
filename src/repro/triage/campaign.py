"""The failure-triage campaign: harvest, shrink, classify, file, replay.

The end-to-end pipeline the ``triage_campaign`` experiment and the
triage bench workload run:

1. **Harvest** — seed violations by driving *unprotected* cells under
   composed multi-draw fault schedules
   (:meth:`~repro.robustness.chaos.FaultSpace.sample_schedule`), across
   two arms: the chaos drill lane and procedurally generated scenes.
   The injection space is deliberately harsher than the admission-gated
   campaign distribution (double-blind pairs allowed, long windows) —
   these are *injected* violations, the haystacks triage exists for.
2. **Shrink** — delta-debug each violating cell along the four axes
   (:class:`~repro.triage.shrink.Shrinker`).
3. **Fingerprint + dedup** — minimized failures with the same
   (invariant, dominant stage, mode trajectory) triple merge into one
   representative (first in campaign order wins).
4. **Classify** — the seeded re-execution protocol labels each unique
   failure deterministic / flaky / unreproducible
   (:func:`~repro.triage.flakes.classify_flakes`).
5. **File + replay** — minimized cells land in the regression corpus
   (:mod:`repro.triage.corpus`) and the ``corpus_replay`` sweep verifies
   every record still reproduces bit-identically.

The harvest and the flake protocol run their cells through
:meth:`~repro.fleetops.supervisor.FleetSupervisor.run` under the
config's ``fleet``.  Everything but wall-clock timing is deterministic
per config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..robustness.chaos import FaultSpace, drive_seed
from .corpus import CorpusRecord, ReplayReport, replay_corpus, save_record
from .fingerprint import outcome_fingerprint
from .flakes import FlakeClassification, classify_flakes, label_stats
from .oracle import DRILL_LANE
from .shrink import Shrinker, ShrinkResult

#: The default violation-injection fault space: heavy on faults that
#: blind the proactive path and silence the reactive one, long windows,
#: double-blind pairs admitted (intensity 2.0 > the 1.75 admission
#: threshold).  This is the vocabulary violations are *seeded* from —
#: strictly harsher than anything the protected campaigns sample.
INJECTION_SPACE = FaultSpace(
    intensity=2.0,
    kind_weights=(
        ("camera_dropout", 3.0),
        ("camera_frame_drop", 1.5),
        ("radar_dropout", 3.0),
        ("radar_freeze", 1.0),
        ("perception_crash", 1.0),
        ("gps_denial", 0.8),
        ("can_burst", 0.8),
        ("latency_spike", 0.8),
    ),
    co_occurrence_prob=0.5,
    onset_window_s=(0.0, 2.0),
    duration_range_s=(2.0, 5.0),
)


@dataclass(frozen=True)
class TriageCampaignConfig:
    """One triage campaign, fully seeded."""

    seed: int = 0
    #: Chaos-arm candidates (unprotected drill lane).
    n_chaos: int = 12
    chaos_draws: int = 4
    chaos_duration_s: float = 6.0
    chaos_obstacle_m: float = 18.0
    #: Procgen-arm candidates (unprotected generated scenes).
    n_procgen: int = 10
    procgen_draws: int = 3
    procgen_intensity: float = 1.5
    injection_space: FaultSpace = field(
        default_factory=lambda: INJECTION_SPACE
    )
    #: Flake-protocol replicas per unique failure.
    n_replicas: int = 4
    #: Per-violation shrink budget (candidate drives).
    shrink_max_evaluations: int = 300
    time_resolution_s: float = 0.5
    #: FleetConfig for the harvest and the flake protocol (None: in
    #: process; the results are the same).
    fleet: Optional["object"] = None

    def __post_init__(self) -> None:
        if self.n_chaos < 0 or self.n_procgen < 0:
            raise ValueError("candidate counts cannot be negative")
        if self.n_replicas < 1:
            raise ValueError("need at least one flake replica")


@dataclass
class TriageCampaignResult:
    """Everything one triage campaign found, shrank, and filed."""

    config: TriageCampaignConfig
    corpus_dir: str
    n_candidates: int = 0
    violations: List[Tuple["object", "object"]] = field(default_factory=list)
    shrinks: List[ShrinkResult] = field(default_factory=list)
    classifications: List[FlakeClassification] = field(default_factory=list)
    #: minimized cell_id -> failure fingerprint (pre-dedup).
    fingerprints: Dict[str, str] = field(default_factory=dict)
    duplicates_merged: int = 0
    corpus_written: int = 0
    replay: Optional[ReplayReport] = None
    shrink_evaluations: int = 0
    wall_s: float = 0.0

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def unique_failures(self) -> int:
        return len(set(self.fingerprints.values()))

    @property
    def mean_reduction_ratio(self) -> float:
        if not self.shrinks:
            return 0.0
        return sum(s.reduction_ratio for s in self.shrinks) / len(self.shrinks)

    @property
    def still_violates_rate(self) -> float:
        if not self.shrinks:
            return 1.0
        return sum(s.still_violates for s in self.shrinks) / len(self.shrinks)

    @property
    def shrink_evals_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.shrink_evaluations / self.wall_s

    def label_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for c in self.classifications:
            counts[c.label] = counts.get(c.label, 0) + 1
        return counts

    def format_report(self) -> str:
        lines = [
            f"triage campaign: {self.n_candidates} candidates -> "
            f"{self.n_violations} violations -> "
            f"{self.unique_failures} unique failures -> "
            f"{self.corpus_written} corpus records"
        ]
        for shrink in self.shrinks:
            lines.append(
                f"  {shrink.original.cell_id}: "
                f"faults {shrink.original_faults}->{shrink.minimized_faults}, "
                f"agents {shrink.original_agents}->{shrink.minimized_agents}, "
                f"{shrink.original_duration_s:g}s->"
                f"{shrink.minimized_duration_s:g}s "
                f"({shrink.reduction_ratio:.0%} reduction, "
                f"{', '.join(shrink.steps) or 'already minimal'})"
            )
        for c in self.classifications:
            lines.append(
                f"  {c.cell_id}: {c.label} "
                f"(violated {c.n_violating}/{c.n_replicas} replicas)"
            )
        if self.replay is not None:
            lines.append(
                f"  corpus replay: {self.replay.n_pass}/"
                f"{self.replay.n_records} bit-identical"
            )
        return "\n".join(lines)


def harvest_candidates(config: TriageCampaignConfig) -> List["object"]:
    """The seeded candidate cells of both arms, in campaign order."""
    from ..fleetops.cells import TriageCell
    from ..scene.procgen import DEFAULT_SPACE

    space = config.injection_space
    candidates: List[TriageCell] = []
    for i in range(config.n_chaos):
        candidates.append(
            TriageCell(
                scene=DRILL_LANE,
                scene_seed=config.seed,
                sim_seed=drive_seed(config.seed, i),
                faults=space.sample_schedule(
                    config.seed, i, config.chaos_draws
                ),
                safety_net=False,
                duration_s=config.chaos_duration_s,
                obstacle_distance_m=config.chaos_obstacle_m,
                invariant="no_collision_or_safe_stop",
            )
        )
    pspace = DEFAULT_SPACE.with_intensity(config.procgen_intensity)
    for idx in range(config.n_procgen):
        scene = pspace.sample(config.seed, idx)
        candidates.append(
            TriageCell(
                scene=f"procgen:{scene.topology}",
                scene_seed=config.seed,
                sim_seed=scene.seed,
                faults=space.sample_schedule(
                    config.seed, 1_000_000 + idx, config.procgen_draws
                ),
                safety_net=False,
                space=pspace,
                cell_index=idx,
                invariant="no_collision_or_safe_stop",
            )
        )
    return candidates


def run_triage_campaign(
    config: Optional[TriageCampaignConfig] = None,
    corpus_dir: str = "corpus",
) -> TriageCampaignResult:
    """Run the full harvest -> shrink -> classify -> file -> replay loop."""
    from ..fleetops.cells import CellSpec
    from ..fleetops.supervisor import FleetSupervisor

    config = config or TriageCampaignConfig()
    started = time.perf_counter()
    result = TriageCampaignResult(config=config, corpus_dir=corpus_dir)

    # 1. Harvest: run every candidate, keep the violators.
    candidates = harvest_candidates(config)
    result.n_candidates = len(candidates)
    harvest = FleetSupervisor(config.fleet).run(
        CellSpec(kind="triage", index=i, cell=cell)
        for i, cell in enumerate(candidates)
    )
    harvest.raise_if_incomplete("triage harvest")
    for cell, cell_result in zip(candidates, harvest.results):
        if cell_result.record.violated:
            result.violations.append((cell, cell_result.record))

    # 2. Shrink each violation (fresh shrinker per cell: deterministic).
    for cell, _outcome in result.violations:
        shrinker = Shrinker(
            time_resolution_s=config.time_resolution_s,
            max_evaluations=config.shrink_max_evaluations,
        )
        shrink = shrinker.shrink(cell)
        result.shrinks.append(shrink)
        result.shrink_evaluations += shrink.evaluations

    # 3. Fingerprint the minimized failures; dedup keep-first.
    unique: List[Tuple[str, ShrinkResult]] = []
    seen: Dict[str, str] = {}
    for shrink in result.shrinks:
        fingerprint = outcome_fingerprint(shrink.minimized_outcome)
        result.fingerprints[shrink.minimized.cell_id] = fingerprint
        if fingerprint in seen:
            result.duplicates_merged += 1
            continue
        seen[fingerprint] = shrink.minimized.cell_id
        unique.append((fingerprint, shrink))

    # 4. Flake-classify the unique minimized failures.
    if unique:
        result.classifications = classify_flakes(
            [shrink.minimized for _fp, shrink in unique],
            n_replicas=config.n_replicas,
            fleet=config.fleet,
        )

    # 5. File each unique failure in the corpus.
    labels = {c.cell_id: c.label for c in result.classifications}
    for fingerprint, shrink in unique:
        save_record(
            corpus_dir,
            CorpusRecord(
                fingerprint=fingerprint,
                invariant=shrink.minimized.invariant,
                origin=shrink.original.cell_id,
                label=labels.get(shrink.minimized.cell_id, "unclassified"),
                cell=shrink.minimized,
                outcome=shrink.minimized_outcome,
                drive_fingerprint=shrink.minimized_fingerprint,
                reduction_ratio=shrink.reduction_ratio,
            ),
        )
        result.corpus_written += 1

    # 6. The corpus_replay sweep: every record must re-violate bit-identically.
    result.replay = replay_corpus(corpus_dir)

    result.wall_s = time.perf_counter() - started
    return result


def triage_summary(result: TriageCampaignResult) -> Dict[str, float]:
    """Flat numeric view (experiment rows, bench snapshots)."""
    counts = result.label_counts()
    replay = result.replay
    summary = {
        "n_candidates": float(result.n_candidates),
        "n_violations": float(result.n_violations),
        "unique_failures": float(result.unique_failures),
        "duplicates_merged": float(result.duplicates_merged),
        "mean_reduction_ratio": result.mean_reduction_ratio,
        "minimized_still_violates_rate": result.still_violates_rate,
        "shrink_evaluations": float(result.shrink_evaluations),
        "shrink_evals_per_s": result.shrink_evals_per_s,
        "corpus_records": float(result.corpus_written),
        "corpus_replay_pass_rate": (
            1.0 if replay is None else replay.pass_rate
        ),
        "corpus_quarantined": (
            0.0 if replay is None else float(replay.n_quarantined)
        ),
        "n_deterministic": float(counts.get("deterministic", 0)),
        "n_flaky": float(counts.get("flaky", 0)),
        "n_unreproducible": float(counts.get("unreproducible", 0)),
        "wall_s": result.wall_s,
    }
    for label, stats in label_stats(result.classifications).items():
        summary[f"{label}_mean_violation_rate"] = stats[
            "mean_violation_rate"
        ]
    return summary
