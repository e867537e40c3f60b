"""Failure triage: shrink violating cells, classify flakes, file them.

The pipeline a violation rides after a campaign surfaces it:

* :mod:`~repro.triage.oracle` — execute a fully-explicit
  :class:`~repro.fleetops.cells.TriageCell` and judge its invariant.
* :mod:`~repro.triage.shrink` — delta-debug the cell along four axes
  (fault schedule, agent set, scene topology, time horizon) to a
  1-minimal counterexample that still violates.
* :mod:`~repro.triage.fingerprint` — stable failure identity
  (invariant, dominant attribution stage, degradation trajectory).
* :mod:`~repro.triage.flakes` — seeded re-execution protocol labeling
  failures deterministic / flaky / unreproducible.
* :mod:`~repro.triage.corpus` — the CRC-sealed on-disk regression
  corpus and the bit-exact ``corpus_replay`` sweep.
* :mod:`~repro.triage.campaign` — the end-to-end harvest → shrink →
  dedup → classify → file → replay loop.
* :mod:`~repro.triage.replay` — serial ``--cell-id`` replay of any
  campaign cell from its printed id.
"""

from .campaign import (
    INJECTION_SPACE,
    TriageCampaignConfig,
    TriageCampaignResult,
    harvest_candidates,
    run_triage_campaign,
    triage_summary,
)
from .corpus import (
    CorpusError,
    CorpusRecord,
    CorpusState,
    ReplayReport,
    load_corpus,
    load_record,
    replay_corpus,
    save_record,
)
from .fingerprint import failure_fingerprint, outcome_fingerprint
from .flakes import (
    FLAKE_LABELS,
    FlakeClassification,
    classify_flakes,
    classify_outcomes,
    label_stats,
    replica_cell,
)
from .oracle import TriageOutcome
from .replay import export_cell_trace, replay_cell
from .shrink import Shrinker, ShrinkResult, ddmin, shrink_violation

__all__ = [
    "INJECTION_SPACE",
    "TriageCampaignConfig",
    "TriageCampaignResult",
    "harvest_candidates",
    "run_triage_campaign",
    "triage_summary",
    "CorpusError",
    "CorpusRecord",
    "CorpusState",
    "ReplayReport",
    "load_corpus",
    "load_record",
    "replay_corpus",
    "save_record",
    "failure_fingerprint",
    "outcome_fingerprint",
    "FLAKE_LABELS",
    "FlakeClassification",
    "classify_flakes",
    "classify_outcomes",
    "label_stats",
    "replica_cell",
    "TriageOutcome",
    "export_cell_trace",
    "replay_cell",
    "Shrinker",
    "ShrinkResult",
    "ddmin",
    "shrink_violation",
]
