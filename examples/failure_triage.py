"""Failure-triage tour: shrink a violation, classify it, file it, replay it.

Walks the full post-detection pipeline on a single injected failure and
then a small two-arm campaign:

1. drive an unprotected cell under a composed fault schedule until it
   collides,
2. delta-debug the schedule/agents/scene/horizon down to a 1-minimal
   counterexample,
3. fingerprint it, label it via the seeded flake protocol,
4. file it in a CRC-sealed regression corpus, and
5. replay the corpus bit-identically from disk.

Usage::

    python examples/failure_triage.py [seed] [--corpus DIR]
"""

import sys
import tempfile

from repro.fleetops.cells import CellSpec, TriageCell, run_cell
from repro.triage import (
    Shrinker,
    TriageCampaignConfig,
    classify_flakes,
    outcome_fingerprint,
    run_triage_campaign,
)
from repro.triage.campaign import INJECTION_SPACE


def main() -> None:
    argv = sys.argv[1:]
    corpus_dir = None
    if "--corpus" in argv:
        corpus_dir = argv[argv.index("--corpus") + 1]
        argv = [a for a in argv if a != "--corpus" and a != corpus_dir]
    seed = int(argv[0]) if argv else 0
    print(f"Failure triage — seed {seed}")
    print("=" * 78)

    print("\n-- one injected violation ---------------------------------------")
    cell = TriageCell(
        scene="drill-lane",
        sim_seed=seed,
        faults=INJECTION_SPACE.sample_schedule(seed, 0, 4),
        safety_net=False,
        duration_s=6.0,
        obstacle_distance_m=18.0,
    )
    outcome = run_cell(CellSpec(kind="triage", index=0, cell=cell)).record
    print(
        f"  {len(cell.faults)} injected fault draws -> violated="
        f"{outcome.violated} ({outcome.detail})"
    )
    if not outcome.violated:
        print("  (this seed does not violate; try another)")
        sys.exit(0)

    print("\n-- delta-debugging the counterexample ---------------------------")
    shrink = Shrinker().shrink(cell)
    print(
        f"  faults {shrink.original_faults} -> {shrink.minimized_faults}, "
        f"horizon {shrink.original_duration_s:g}s -> "
        f"{shrink.minimized_duration_s:g}s "
        f"({shrink.reduction_ratio:.0%} reduction in "
        f"{shrink.evaluations} candidate drives)"
    )
    for fault in shrink.minimized.faults:
        print(f"    culprit: {fault!r}")
    print(f"  still violates: {shrink.still_violates}")
    print(f"  failure fingerprint: {outcome_fingerprint(shrink.minimized_outcome)}")

    print("\n-- flake protocol -----------------------------------------------")
    (label,) = classify_flakes([shrink.minimized], n_replicas=4)
    print(
        f"  {label.label}: violated {label.n_violating}/{label.n_replicas} "
        f"seeded replicas (replica 0 is the exact replay)"
    )

    print("\n-- two-arm campaign into the regression corpus ------------------")
    config = TriageCampaignConfig(seed=seed, n_chaos=6, n_procgen=6)
    if corpus_dir is not None:
        result = run_triage_campaign(config, corpus_dir=corpus_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_triage_campaign(config, corpus_dir=tmp)
    print("  " + result.format_report().replace("\n", "\n  "))

    ok = (
        shrink.still_violates
        and shrink.reduction_ratio >= 0.6  # the size bound CI asserts
        and result.still_violates_rate == 1.0
        and result.replay is not None
        and result.replay.ok
    )
    print("\nDone." if ok else "\nTRIAGE CONTRACT BROKEN (see above).")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
