"""Tests of the benchmark's own mechanics: pins, tracing, the command line.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layertrace
import run
import workloads
from repro.testing import invariants

HERE = Path(__file__).resolve().parent


def _perturbed_pins(seed: int, key: str, position: int) -> dict:
    pins = workloads.load_pins(seed)
    pins = {name: list(values) for name, values in pins.items()}
    pins[key][position] ^= 1
    return pins


# -- pinned output check ---------------------------------------------------------


def test_every_group_has_the_same_corridor_mix():
    mixes = {
        tuple(sorted(workloads.corridor_for(i) for i in workloads.group_indices(g)))
        for g in range(workloads.POOL_GROUPS + 1)
    }
    assert len(mixes) == 1
    assert list(workloads.group_indices(workloads.POOL_GROUPS)) == list(
        workloads.group_indices(0)
    )


def test_pins_cover_the_default_and_a_held_out_seed():
    for seed in (0, 1):
        pins = workloads.load_pins(seed)
        assert len(pins["drives"]) == workloads.POOL
        assert len(pins["fleet_groups"]) == workloads.POOL_GROUPS
    assert workloads.load_pins(12345) is None


def test_perturbed_drive_pin_fails_exactly_one_lockstep_drive():
    bench = workloads.Lockstep(0, _perturbed_pins(0, "drives", 5))
    phase = workloads.Phase()
    bench.run_group(0, phase)
    assert phase.attempted == workloads.GROUP
    assert phase.failed == 1


def test_perturbed_fleet_pin_fails_its_group():
    bench = workloads.Fleet(0, _perturbed_pins(0, "fleet_groups", 0))
    phase = workloads.Phase()
    bench.run_group(0, phase)
    assert phase.attempted == workloads.GROUP
    assert phase.failed == workloads.GROUP


def test_repeated_drive_with_a_changed_digest_fails():
    verifier = workloads.Verifier(None)
    assert verifier.ok(3, 111)
    assert verifier.ok(3, 111)
    assert not verifier.ok(3, 112)


# -- traced run mechanics --------------------------------------------------------


def test_self_time_is_duration_minus_children():
    recorder = layertrace.Recorder()
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 90]
    for layer, start, end, parent in (
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a1", 15, 25, 1),
        ("b", 50, 90, 0),
    ):
        recorder.layer.append(layer)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.drive.append(None)
        recorder.work.append(0)
    assert recorder.self_ns() == [30, 20, 10, 40]
    assert sum(recorder.self_ns()) == 100


def _originals():
    found = []
    for module, attribute, _layer, _measure in layertrace.TARGETS:
        owners, original = layertrace._resolve(module, attribute)
        found.extend((owner, name, original) for owner, name in owners)
    return found


def test_wrappers_are_restored_even_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layertrace.traced(layertrace.Recorder()):
            for owner, name, original in before:
                assert owner.__dict__[name] is not original
            raise RuntimeError("abandon the traced run")
    for owner, name, original in before:
        assert owner.__dict__[name] is original


def _tiny_traced_run():
    """One drive alone and a lockstep batch of three, traced."""
    bench = workloads.Lockstep(0, None)
    recorder = layertrace.Recorder()
    start = time.perf_counter_ns()
    with layertrace.traced(recorder):
        with recorder.span(layertrace.ROOT):
            with recorder.span("bench.drive", drive=0):
                scenario, sov = workloads.build_drive(0, 0)
                single = sov.drive(scenario.duration_s)
            _scenarios, results = bench._batch(range(1, 4), recorder)
    wall_ns = time.perf_counter_ns() - start
    digests = [
        workloads.digest(invariants.drive_fingerprint(r)) for r in [single, *results]
    ]
    return recorder, wall_ns, digests


def test_traced_runs_repeat_call_counts_and_account_for_the_wall():
    first, first_wall, first_digests = _tiny_traced_run()
    second, _wall, second_digests = _tiny_traced_run()
    calls = {k: v["calls"] for k, v in first.by_layer().items()}
    assert calls == {k: v["calls"] for k, v in second.by_layer().items()}
    assert first_digests == second_digests
    pins = workloads.load_pins(0)["drives"]
    assert first_digests == pins[:4]  # tracing does not perturb a drive
    assert abs(sum(first.self_ns()) - first_wall) <= 0.01 * first_wall
    # The class-level wrapper keeps the batched fast path: no fallbacks.
    assert first.count_children("planning.plan", "batched.plan_requests") == 0
    assert calls["planning.plan"] > 0 and calls["kernels.rollout_batch"] > 0
    metrics = layertrace.layer_metrics(first)
    total = sum(v for k, (v, _unit) in metrics.items() if k.endswith(".self_pct"))
    assert total == pytest.approx(100.0)


def test_lockstep_spans_are_charged_to_their_drive():
    recorder, _wall, _digests = _tiny_traced_run()
    steps = {
        recorder.drive[i]
        for i, layer in enumerate(recorder.layer)
        if layer == "sov.finish_step"
    }
    assert steps == {0, 1, 2, 3}


def test_chrome_export_is_loadable(tmp_path):
    recorder, _wall, _digests = _tiny_traced_run()
    path = tmp_path / "trace.json"
    recorder.export_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(recorder.layer)
    assert {e["tid"] for e in spans} == {0, 1, 2, 3, 4}


# -- the command line and BENCHMARK.json ------------------------------------------


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_is_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    units = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert names.match(workload["name"]) and workload["name"] not in seen
        seen.add(workload["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    seen = set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert names.match(metric["name"]) and metric["name"] not in seen
        assert units.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        seen.add(metric["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lockstep", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.MIN_GROUPS * workloads.GROUP
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec[key]}
