"""Benchmark snapshots, the perf gate, and the bench-gate CLI."""

import json

import pytest

from repro.observability.bench_gate import main as bench_gate_main
from repro.observability.regression import (
    WORKLOADS,
    BenchmarkSnapshot,
    Gate,
    gate_against_baseline,
    gate_metrics,
    load_snapshot,
    snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.observability.tracing import Tracer, validate_chrome_trace

#: Short reference workload shared across the tests in this module.
DURATION_S = 4.0


@pytest.fixture(scope="module")
def closedloop_snapshot():
    return snapshot("closedloop", seed=0, duration_s=DURATION_S)


class TestSnapshot:
    def test_metrics_shape(self, closedloop_snapshot):
        metrics = closedloop_snapshot.metrics
        assert metrics["latency_samples"] == metrics["control_ticks"]
        assert metrics["collisions"] == 0.0
        assert (
            0
            < metrics["latency_mean_s"]
            <= metrics["latency_p99_s"]
            <= metrics["latency_worst_s"]
        )
        assert "latency_stage_sensing_mean_s" in metrics
        assert metrics["wall_s_per_tick"] > 0

    def test_deterministic_per_seed(self, closedloop_snapshot):
        again = snapshot("closedloop", seed=0, duration_s=DURATION_S)
        gated = {k: v for k, v in again.metrics.items() if k != "wall_s_per_tick"}
        expected = {
            k: v
            for k, v in closedloop_snapshot.metrics.items()
            if k != "wall_s_per_tick"
        }
        assert gated == expected

    def test_round_trip(self, closedloop_snapshot, tmp_path):
        path = snapshot_path("unit", str(tmp_path))
        write_snapshot(closedloop_snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.metrics == closedloop_snapshot.metrics
        assert loaded.seed == closedloop_snapshot.seed

    def test_version_mismatch_rejected(self, closedloop_snapshot, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(closedloop_snapshot.to_json())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            load_snapshot(str(path))


class TestGate:
    def test_identical_run_passes(self, closedloop_snapshot):
        report = gate_against_baseline(
            closedloop_snapshot, current=closedloop_snapshot
        )
        assert report.ok
        assert all(not f.regressed for f in report.findings)

    def test_injected_p99_regression_fails(self, closedloop_snapshot):
        worse = dict(closedloop_snapshot.metrics)
        worse["latency_p99_s"] *= 1.25  # past the 10% tolerance
        current = BenchmarkSnapshot(
            name=closedloop_snapshot.name,
            seed=closedloop_snapshot.seed,
            duration_s=closedloop_snapshot.duration_s,
            metrics=worse,
        )
        report = gate_against_baseline(closedloop_snapshot, current=current)
        assert not report.ok
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["latency_p99_s"]
        assert "REGRESSED" in report.format_report()

    def test_gate_is_one_sided(self, closedloop_snapshot):
        better = dict(closedloop_snapshot.metrics)
        better["latency_mean_s"] *= 0.5
        current = BenchmarkSnapshot(
            name=closedloop_snapshot.name,
            seed=closedloop_snapshot.seed,
            duration_s=closedloop_snapshot.duration_s,
            metrics=better,
        )
        assert gate_against_baseline(closedloop_snapshot, current=current).ok

    def test_workload_shape_change_is_a_problem(self, closedloop_snapshot):
        changed = dict(closedloop_snapshot.metrics)
        changed["control_ticks"] += 1
        spec = WORKLOADS["closedloop"]
        _findings, problems = gate_metrics(
            closedloop_snapshot.metrics, changed, spec.gated, spec.shape
        )
        assert any("workload changed" in p for p in problems)

    def test_missing_metric_is_a_problem(self):
        findings, problems = gate_metrics(
            {"latency_mean_s": 1.0}, {}, WORKLOADS["closedloop"].gated
        )
        assert any("current run is missing" in p for p in problems)
        assert any("baseline is missing" in p for p in problems)
        assert findings == []  # nothing comparable on both sides


class TestCli:
    def test_snapshot_then_check_passes(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_cli.json")
        code = bench_gate_main(
            [
                "snapshot",
                "--name",
                "cli",
                "--param",
                f"duration_s={DURATION_S}",
                "--out",
                baseline,
            ]
        )
        assert code == 0
        trace_path = str(tmp_path / "trace.json")
        code = bench_gate_main(
            ["check", "--baseline", baseline, "--trace", trace_path]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        trace = json.loads(open(trace_path).read())
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        baseline_path = str(tmp_path / "BENCH_reg.json")
        current = snapshot("closedloop", 0, name="reg", duration_s=DURATION_S)
        tightened = dict(current.metrics)
        # Commit a baseline that claims the loop used to be much faster:
        # the honest re-run then reads as a regression and must fail CI.
        tightened["latency_p99_s"] /= 1.5
        tightened["latency_mean_s"] /= 1.5
        write_snapshot(
            BenchmarkSnapshot(
                name="reg",
                seed=0,
                duration_s=DURATION_S,
                metrics=tightened,
            ),
            baseline_path,
        )
        code = bench_gate_main(["check", "--baseline", baseline_path])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestProcgenWorkloadGate:
    """The procgen workload rides the same gate as every other workload."""

    def test_procgen_has_tolerances_and_shape_invariant(self):
        assert WORKLOADS["procgen"].gated["violations"] == Gate(0.0)
        assert "scene_fingerprint" in WORKLOADS["procgen"].shape

    def test_scene_fingerprint_drift_is_a_problem(self):
        # A generator draw change shifts the campaign checksum; the gate
        # must read that as a workload-shape change, not a perf delta.
        shape = WORKLOADS["procgen"].shape
        base = {"n_cells": 12.0, "scene_fingerprint": 2.0}
        drifted = {"n_cells": 12.0, "scene_fingerprint": 3.0}
        _findings, problems = gate_metrics(base, drifted, {}, shape)
        assert any("workload changed" in p for p in problems)
        _findings, ok_problems = gate_metrics(base, dict(base), {}, shape)
        assert not any("workload changed" in p for p in ok_problems)
