"""Wall-clock benchmark of the closed loop: the N=16 lockstep stepper and the fleet pool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lockstep --seed 0 --seconds 58 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
timed phase, then a traced run of one group in its own process, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Diagnostics (host-speed probe, sample counts, digests of an
unpinned seed) go to the lines before it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lockstep", "fleet")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0


def host_probe_ms() -> float:
    """A fixed pure-Python loop, timed: a host-speed diagnostic only."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb(include_children: bool) -> float:
    """High-water RSS of this process, plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _child(role: str, args: argparse.Namespace) -> subprocess.CompletedProcess:
    """Run this script again in *role*; its failure fails this run."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"perfbench {role} process exited {done.returncode}")
    return done


def setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of fresh processes doing imports, inputs and warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _child("setup", args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_child(args: argparse.Namespace) -> int:
    """The traced run: group 0 untraced, traced, untraced again; the report.

    Running the same group both ways in one process makes their ratio the
    tracing overhead, free of the pool's differences; an untraced run on
    each side of the traced one cancels a steady drift of the host.
    """
    import layertrace
    import workloads

    bench = workloads.make(args.workload, args.seed)
    bench.warm_up()
    gc.collect()
    before_s, untraced_digests = bench.traced_group(layertrace.Recorder())
    gc.collect()
    recorder = layertrace.Recorder()
    with layertrace.traced(recorder):
        with recorder.span(layertrace.ROOT):
            traced_s, digests = bench.traced_group(recorder)
    gc.collect()
    after_s, _digests = bench.traced_group(layertrace.Recorder())
    metrics = layertrace.layer_metrics(recorder)
    # Same drives, same ticks: the time ratio is the ticks/s ratio.
    metrics["observability.trace_overhead"] = (
        (before_s + after_s) / 2 / traced_s,
        "ratio",
    )
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}.json"
    recorder.export_chrome(str(trace_path))
    print(
        json.dumps(
            {
                "metrics": metrics,
                "digests": digests,
                "repeat_mismatches": sum(
                    untraced_digests[k] != v for k, v in digests.items()
                ),
                "trace_path": str(trace_path.relative_to(ROOT)),
            }
        )
    )
    return 0


def end_to_end(phase, setup_s: float, rss_mb: float) -> dict:
    return {
        "ticks_per_s": (phase.ticks / phase.wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def timing_summary(phase) -> str:
    """Median batch time and drive-time quartiles, with sample counts.

    A diagnostic line, not a metric: a closed loop at fixed concurrency
    has mean latency = concurrency / throughput, so ``ticks_per_s``
    carries the mean, and the medians of near-identical batches jump
    between the host's fast and slow phases.
    """
    if len(phase.drive_s) < 2:
        return f"drive_samples={len(phase.drive_s)}"
    _q1, p50, p75 = statistics.quantiles(phase.drive_s, n=4)
    return (
        f"batch_s_p50={statistics.median(phase.batch_s):.4f} "
        f"groups={len(phase.batch_s)} drive_s_p50={p50:.4f} "
        f"drive_s_p75={p75:.4f} drive_samples={len(phase.drive_s)}"
    )


def per_layer(args: argparse.Namespace, bench, phase) -> tuple:
    """Traced-run metrics plus the pool's, from this untraced phase.

    Returns ``(metrics, mismatches)``: a traced drive whose digest differs
    from its untraced run counts as a failed operation.
    """
    from workloads import N_WORKERS

    traced = json.loads(_child("traced", args).stdout.strip().splitlines()[-1])
    metrics = {name: tuple(pair) for name, pair in traced["metrics"].items()}
    mismatches = traced["repeat_mismatches"] + sum(
        bench.verifier.seen.get(int(key)) != value
        for key, value in traced["digests"].items()
    )
    workers_s = N_WORKERS * phase.pool_wall_s
    pooled = workers_s > 0
    metrics["fleetops.utilization"] = (
        phase.pool_busy_s / workers_s if pooled else 0.0,
        "ratio",
    )
    # Worker time outside cells (fork, dispatch, the supervisor's poll) as
    # a share of the time inside them.
    metrics["fleetops.dispatch_gap_pct"] = (
        100.0 * (workers_s - phase.pool_busy_s) / phase.pool_busy_s
        if pooled
        else 0.0,
        "%",
    )
    metrics["fleetops.retries"] = (float(phase.retries), "count")
    metrics["fleetops.speculative_launches"] = (
        float(phase.speculative_launches),
        "count",
    )
    print(f"perfbench: trace written to {traced['trace_path']}")
    return metrics, mismatches


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up probe and the traced run re-enter this script.
    parser.add_argument(
        "--role", choices=("main", "setup", "traced"), default="main",
        help=argparse.SUPPRESS,
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} not found; run from the root of a "
            "repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.role == "setup":
        workloads.make(args.workload, args.seed).warm_up()
        return 0
    if args.role == "traced":
        return traced_child(args)

    bench = workloads.make(args.workload, args.seed)
    bench.warm_up()
    gc.collect()
    probe_before = host_probe_ms()
    phase = bench.timed(args.seconds)
    probe_after = host_probe_ms()
    rss_mb = peak_rss_mb(include_children=args.workload == "fleet")
    failed = phase.failed
    attempted = phase.attempted
    if args.trace:
        metrics, mismatches = per_layer(args, bench, phase)
        failed += mismatches
    else:
        metrics = end_to_end(phase, setup_seconds(args), rss_mb)
    print(
        f"perfbench: {args.workload} seed={args.seed} "
        f"timed_s={phase.wall_s:.3f} {timing_summary(phase)} host_probe_ms "
        f"before={probe_before:.2f} after={probe_after:.2f}"
    )
    if not bench.pinned:
        print(
            f"perfbench: unpinned seed {args.seed}; {args.workload} digests "
            + json.dumps(dict(sorted(bench.verifier.seen.items())))
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
