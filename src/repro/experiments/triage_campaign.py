"""Failure-triage campaign: shrink, classify, and file injected failures.

The robustness layers so far (chaos campaigns PR 3, fault drills PR 5,
procgen sweeps PR 8) are *detectors*: they surface violating cells.
This experiment exercises the layer after detection — the triage engine
(:mod:`repro.triage`).  A seeded harvest injects violations into
unprotected drives across two arms (composed multi-draw fault schedules
on the chaos drill lane, double-blind schedules over procedurally
generated scenes), then every violation is delta-debugged to a
1-minimal counterexample, fingerprinted and deduplicated by failure
mode, flake-classified by seeded re-execution, filed in a CRC-sealed
regression corpus, and replayed from disk bit-identically.

The expected shape, mirrored by ``benchmarks/test_triage_campaign.py``:
**every violation shrinks (mean reduction >= 60% across fault draws and
agents), every minimized cell still violates, and every corpus record
replays bit-identically.**
"""

from __future__ import annotations

import tempfile

from ..triage.campaign import (
    TriageCampaignConfig,
    run_triage_campaign,
    triage_summary,
)
from .base import ExperimentResult, Row, register

#: Campaign seed — the acceptance run the benchmarks mirror.
TRIAGE_SEED = 0
#: The acceptance floor for injected violations across both arms.
MIN_VIOLATIONS = 3
#: The acceptance floor for the mean shrink reduction ratio.
MIN_REDUCTION = 0.60


@register("triage_campaign")
def triage_campaign() -> ExperimentResult:
    """Harvest -> shrink -> dedup -> classify -> file -> replay.

    Paper values encode the triage contracts: a 1-minimal counterexample
    must still violate (rate 1.0), the corpus must replay bit-for-bit
    (rate 1.0), and the shrinker must remove at least 60% of the fault
    draws and agents the harvest injected.
    """
    config = TriageCampaignConfig(seed=TRIAGE_SEED)
    with tempfile.TemporaryDirectory() as corpus_dir:
        result = run_triage_campaign(config, corpus_dir=corpus_dir)
        summary = triage_summary(result)

    rows = [
        Row(
            "candidate_cells",
            None,
            summary["n_candidates"],
            "count",
            f"unprotected drives: {config.n_chaos} drill-lane + "
            f"{config.n_procgen} procgen (seed={TRIAGE_SEED})",
        ),
        Row(
            "injected_violations",
            None,
            summary["n_violations"],
            "count",
            f"acceptance floor {MIN_VIOLATIONS}; both arms must contribute",
        ),
        Row(
            "mean_reduction_ratio",
            None,
            summary["mean_reduction_ratio"],
            "frac",
            f"fault draws + agents removed by ddmin (floor {MIN_REDUCTION:g})",
        ),
        Row(
            "minimized_still_violates",
            1.0,
            summary["minimized_still_violates_rate"],
            "frac",
            "zero tolerance: a shrink that loses the violation is a bug",
        ),
        Row(
            "unique_failures",
            None,
            summary["unique_failures"],
            "count",
            "distinct (violation kind, dominant stage, mode trajectory) "
            "fingerprints",
        ),
        Row(
            "duplicates_merged",
            None,
            summary["duplicates_merged"],
            "count",
            "violations deduplicated into an existing fingerprint",
        ),
        Row(
            "deterministic_failures",
            None,
            summary["n_deterministic"],
            "count",
            f"violate on all {config.n_replicas} seeded replicas",
        ),
        Row(
            "flaky_failures",
            None,
            summary["n_flaky"],
            "count",
            "reproduce exactly but vanish under some sim-seed draws",
        ),
        Row(
            "corpus_records",
            None,
            summary["corpus_records"],
            "count",
            "CRC-sealed minimized counterexamples filed",
        ),
        Row(
            "corpus_replay_pass_rate",
            1.0,
            summary["corpus_replay_pass_rate"],
            "frac",
            "every record re-violates with a bit-identical drive "
            "fingerprint",
        ),
        Row(
            "shrink_evaluations",
            None,
            summary["shrink_evaluations"],
            "count",
            "candidate drives spent by the delta debugger",
        ),
        Row(
            "shrink_evals_per_s",
            None,
            summary["shrink_evals_per_s"],
            "evals/s",
            "shrink throughput (wall clock; machine-dependent)",
        ),
    ]
    series = {
        "reductions": [
            (
                shrink.original.cell_id,
                round(shrink.reduction_ratio, 3),
                f"faults {shrink.original_faults}->"
                f"{shrink.minimized_faults}",
                f"agents {shrink.original_agents}->"
                f"{shrink.minimized_agents}",
                f"{shrink.original_duration_s:g}s->"
                f"{shrink.minimized_duration_s:g}s",
            )
            for shrink in result.shrinks
        ],
        "labels": [
            (c.cell_id, c.label, f"{c.n_violating}/{c.n_replicas}")
            for c in result.classifications
        ],
        "fingerprints": sorted(set(result.fingerprints.values())),
    }
    return ExperimentResult(
        "triage_campaign",
        "Failure triage: shrink, classify, and corpus replay (Sec. VI)",
        rows,
        series=series,
    )
