"""Command-line front door for the failure-triage engine.

Usage::

    python -m repro.triage replay <cell_id> [--trace out.json]
    python -m repro.triage campaign [--seed N] [--corpus DIR]
    python -m repro.triage sweep [--corpus DIR]
    python -m repro.triage list [--corpus DIR]

``replay`` exits 2 on a cell id it cannot replay.  ``sweep`` is the
``corpus_replay`` runner CI uses: exit 0 iff every corpus record still
violates its filed invariant with a bit-identical drive fingerprint (an
empty corpus passes vacuously).
"""

from __future__ import annotations

import argparse
import sys

# Each handler imports what its subcommand runs: a replay loads no
# campaign, corpus or shrinking code.


def _cmd_replay(args: argparse.Namespace) -> int:
    from ..fleetops.cells import parse_cell_id
    from .replay import replay_cell

    try:
        parse_cell_id(args.cell_id)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    result = replay_cell(args.cell_id, trace_path=args.trace)
    violations = getattr(result.record, "violations", ())
    return 1 if violations else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import TriageCampaignConfig, run_triage_campaign

    config = TriageCampaignConfig(
        seed=args.seed,
        n_chaos=args.n_chaos,
        n_procgen=args.n_procgen,
        n_replicas=args.replicas,
    )
    result = run_triage_campaign(config, corpus_dir=args.corpus)
    print(result.format_report())
    ok = (
        result.still_violates_rate == 1.0
        and result.replay is not None
        and result.replay.ok
    )
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .corpus import replay_corpus

    report = replay_corpus(args.corpus)
    print(
        f"corpus replay: {report.n_pass}/{report.n_records} bit-identical, "
        f"{report.n_quarantined} quarantined"
    )
    for fingerprint, why in report.failures:
        print(f"  FAIL {fingerprint}: {why}")
    return 0 if report.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    from .corpus import load_corpus

    state = load_corpus(args.corpus, quarantine=False)
    print(f"{len(state.records)} corpus record(s) in {args.corpus}")
    for record in state.records:
        print(
            f"  {record.fingerprint}  {record.invariant:<28} "
            f"{record.label:<15} reduction={record.reduction_ratio:.0%}  "
            f"from {record.origin or '?'}"
        )
    if state.quarantined:
        print(f"  ({len(state.quarantined)} unreadable, left in place)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.triage")
    sub = parser.add_subparsers(dest="command", required=True)

    p_replay = sub.add_parser("replay", help="re-run one cell by id")
    p_replay.add_argument("cell_id")
    p_replay.add_argument("--trace", default=None, metavar="PATH")
    p_replay.set_defaults(func=_cmd_replay)

    p_campaign = sub.add_parser("campaign", help="run a triage campaign")
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument("--n-chaos", type=int, default=12)
    p_campaign.add_argument("--n-procgen", type=int, default=10)
    p_campaign.add_argument("--replicas", type=int, default=4)
    p_campaign.add_argument("--corpus", default="corpus")
    p_campaign.set_defaults(func=_cmd_campaign)

    p_sweep = sub.add_parser("sweep", help="replay the regression corpus")
    p_sweep.add_argument("--corpus", default="corpus")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list", help="list corpus records")
    p_list.add_argument("--corpus", default="corpus")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
