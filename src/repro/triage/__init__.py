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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "campaign": (
        "INJECTION_SPACE", "TriageCampaignConfig", "TriageCampaignResult",
        "harvest_candidates", "run_triage_campaign", "triage_summary",
    ),
    "corpus": (
        "CorpusError", "CorpusRecord", "CorpusState", "ReplayReport",
        "load_corpus", "load_record", "replay_corpus", "save_record",
    ),
    "fingerprint": ("failure_fingerprint", "outcome_fingerprint"),
    "flakes": (
        "FLAKE_LABELS", "FlakeClassification", "classify_flakes",
        "classify_outcomes", "label_stats", "replica_cell",
    ),
    "oracle": ("TriageOutcome",),
    "replay": ("export_cell_trace", "replay_cell"),
    "shrink": ("Shrinker", "ShrinkResult", "ddmin", "shrink_violation"),
})
