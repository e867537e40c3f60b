"""Triage-campaign benchmarks: the failure-triage acceptance run.

Carries ISSUE 9's acceptance campaign: a seeded harvest injects >= 3
violations across *both* arms (composed fault schedules on the drill
lane, double-blind schedules over generated scenes), every violation
delta-debugs to a 1-minimal counterexample with >= 60% mean reduction,
duplicates merge by failure fingerprint, every unique failure is
flake-classified and filed in the CRC-sealed corpus, and the corpus
replays from disk bit-identically.
"""

from repro.experiments import run_experiment
from repro.experiments.triage_campaign import (
    MIN_REDUCTION,
    MIN_VIOLATIONS,
    TRIAGE_SEED,
)
from repro.triage import (
    TriageCampaignConfig,
    load_corpus,
    replay_corpus,
    run_triage_campaign,
)
from repro.triage.flakes import FLAKE_LABELS


def test_triage_campaign_experiment(benchmark, record_table):
    result = benchmark.pedantic(
        run_experiment, args=("triage_campaign",), iterations=1, rounds=1
    )
    record_table(result)
    violations = result.row("injected_violations").measured
    unique = result.row("unique_failures").measured
    merged = result.row("duplicates_merged").measured
    # The tentpole claims: enough injected failures to triage...
    assert violations >= MIN_VIOLATIONS
    # ...every one shrinks hard and still violates after shrinking...
    assert result.row("mean_reduction_ratio").measured >= MIN_REDUCTION
    assert result.row("minimized_still_violates").measured == 1.0
    # ...dedup accounting is exact (every violation is filed or merged)...
    assert unique >= 1
    assert unique + merged == violations
    assert result.row("corpus_records").measured == unique
    # ...and the corpus replays bit-identically.
    assert result.row("corpus_replay_pass_rate").measured == 1.0


def test_campaign_arms_dedup_and_corpus_on_disk(tmp_path):
    """The direct campaign run, with the corpus landing on real disk."""
    corpus_dir = str(tmp_path / "corpus")
    result = run_triage_campaign(
        TriageCampaignConfig(seed=TRIAGE_SEED), corpus_dir=corpus_dir
    )

    # Both harvest arms must contribute violations.
    arms = {cell.scene.split(":")[0] for cell, _ in result.violations}
    assert arms == {"drill-lane", "procgen"}

    # Dedup by fingerprint: unique count matches the distinct fingerprints.
    fingerprints = set(result.fingerprints.values())
    assert len(fingerprints) == result.unique_failures
    assert result.duplicates_merged == result.n_violations - result.unique_failures

    # Every unique failure is classified with a known label, and the
    # exact replica (replica 0) reproduces each of them.
    assert len(result.classifications) == result.unique_failures
    for classification in result.classifications:
        assert classification.label in FLAKE_LABELS
        assert classification.label != "unreproducible"
        assert classification.first_violation_replica == 0

    # The corpus on disk holds exactly the unique failures...
    state = load_corpus(corpus_dir)
    assert state.quarantined == []
    assert set(state.fingerprints) == fingerprints
    assert len(state.records) == result.corpus_written
    for record in state.records:
        assert record.reduction_ratio >= 0.0
        assert record.outcome.violated

    # ...and an independent sweep replays every record bit-identically.
    report = replay_corpus(corpus_dir)
    assert report.ok, report.failures
    assert report.n_records == result.unique_failures
    assert result.replay is not None and result.replay.ok
