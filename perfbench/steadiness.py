"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload lockstep --seeds 0 1 2 3 4 5 6 7 8 9

Each run is one ``perfbench/run.py`` process, one after another.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(Q3 - Q1) / median``
next to the metric's bound from ``BENCHMARK.json``; a spread above a
third of the bound is flagged (``setup_s`` is exempt from the spread
rule).  ``--out`` appends the raw results as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, spec["run_seconds"], 0)
        runs.append(result)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as handle:
                record = {"workload": args.workload, "seed": seed, **result}
                handle.write(json.dumps(record) + "\n")
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
            ),
            flush=True,
        )
    steady = all(r["correct"] for r in runs)
    print(f"\n{args.workload}: {len(runs)} runs of {spec['run_seconds']} s")
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if name != "setup_s" and spread > metric["bound"] / 3:
            flag = "  above bound/3"
            steady = False
        print(
            f"{name:<14}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}"
            f"{spread:>9.3f}{metric['bound']:>7}{flag}"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
