"""``bench-gate`` CLI: snapshot seeded benchmarks, gate regressions.

Usage::

    # Record (or refresh) an accepted baseline for any workload of the
    # WORKLOADS table; --param K=V overrides one of its default params:
    python -m repro.observability.bench_gate snapshot --workload chaos
    python -m repro.observability.bench_gate snapshot --workload scheduler \
        --param n_frames=80 --out /tmp/BENCH_scheduler.json

    # CI: re-run the seeded workload each baseline names, fail on any
    # gated-metric regression, and (closed loop only) export the drive's
    # Perfetto trace as a build artifact:
    python -m repro.observability.bench_gate check \
        --baseline BENCH_*.json --trace closedloop_trace.json

``check`` reads the workload to replay from each baseline snapshot
itself and exits non-zero when any gated metric regresses beyond its
tolerance or a workload changed shape (different tick/sample/drive
counts).
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from .regression import (
    WORKLOADS,
    gate_against_baseline,
    load_snapshot,
    resolve_params,
    snapshot,
    snapshot_path,
    write_snapshot,
)
from .tracing import Tracer


def param(text: str) -> Tuple[str, float]:
    """Parse one ``--param K=V`` override."""
    key, _, value = text.partition("=")
    return key, float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.bench_gate",
        description="Snapshot seeded benchmark runs; gate perf regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot", help="write BENCH_<name>.json")
    snap.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="closedloop",
        help="which seeded workload to snapshot",
    )
    snap.add_argument(
        "--name", default=None, help="snapshot name (default: the workload)"
    )
    snap.add_argument("--seed", type=int, default=0)
    snap.add_argument(
        "--param",
        type=param,
        action="append",
        default=[],
        metavar="K=V",
        help="override one of the workload's params (repeatable)",
    )
    snap.add_argument(
        "--out", default=None, help="output path (default BENCH_<name>.json)"
    )

    check = sub.add_parser("check", help="gate runs against baselines")
    check.add_argument("--baseline", nargs="+", required=True)
    check.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also export the gated drive's Chrome/Perfetto trace JSON "
        "(closedloop baselines only)",
    )

    args = parser.parse_args(argv)
    if args.command == "snapshot":
        try:
            params = resolve_params(args.workload, dict(args.param))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        result = snapshot(args.workload, args.seed, name=args.name, **params)
        out = args.out or snapshot_path(result.name)
        write_snapshot(result, out)
        print(f"wrote {out} (workload: {result.workload})")
        for metric in sorted(result.metrics):
            print(f"  {metric} = {result.metrics[metric]:.6g}")
        return 0

    baselines = [load_snapshot(path) for path in args.baseline]
    traced = next((b for b in baselines if b.workload == "closedloop"), None)
    if args.trace and traced is None:
        print(
            f"--trace only applies to closedloop baselines "
            f"(got {sorted({b.workload for b in baselines})})",
            file=sys.stderr,
        )
        return 2
    ok = True
    for baseline in baselines:
        tracer = None
        if args.trace and baseline is traced:
            tracer = Tracer(name=baseline.name)
        report = gate_against_baseline(baseline, tracer=tracer)
        if tracer is not None:
            tracer.export_json(args.trace)
            print(f"trace written to {args.trace} (open in Perfetto)")
        print(report.format_report())
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
