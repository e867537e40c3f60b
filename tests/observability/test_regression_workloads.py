"""Tests for the multi-workload bench gate and its WORKLOADS table."""

import collections
import json
import pathlib

import pytest

from repro.observability.bench_gate import main as bench_gate_main
from repro.observability.regression import (
    WORKLOADS,
    BenchmarkSnapshot,
    Gate,
    gate_against_baseline,
    gate_metrics,
    load_snapshot,
    run_workload,
    snapshot,
    write_snapshot,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Small workload shapes keeping the module fast while still seeded.
N_DRIVES = 4
N_FRAMES = 80
N_VEHICLES = 3
N_LOGS = 4
N_CELLS = 6
N_WORKERS = 2

WALL_KEYS = (
    "wall_s_total",
    "wall_s_per_drive",
    "wall_us_per_frame",
    "wall_s_per_cell",
    "cells_per_s",
)


def gated_view(snapshot):
    """Metrics minus the machine-dependent wall-clock entries."""
    return {
        k: v for k, v in snapshot.metrics.items() if k not in WALL_KEYS
    }


@pytest.fixture(scope="module")
def chaos_snapshot():
    return snapshot("chaos", seed=0, n_drives=N_DRIVES)


@pytest.fixture(scope="module")
def scheduler_snapshot():
    return snapshot("scheduler", seed=0, n_frames=N_FRAMES)


class TestChaosWorkload:
    def test_shape_and_tagging(self, chaos_snapshot):
        assert chaos_snapshot.workload == "chaos"
        assert chaos_snapshot.params == {"n_drives": float(N_DRIVES)}
        assert chaos_snapshot.metrics["n_drives"] == float(N_DRIVES)
        assert chaos_snapshot.metrics["collision_rate"] == 0.0
        assert chaos_snapshot.metrics["wall_s_total"] > 0

    def test_deterministic_per_seed(self, chaos_snapshot):
        again = snapshot("chaos", seed=0, n_drives=N_DRIVES)
        assert gated_view(again) == gated_view(chaos_snapshot)

    def test_self_gate_passes(self, chaos_snapshot):
        report = gate_against_baseline(chaos_snapshot)
        assert report.ok, report.format_report()

    def test_run_workload_respects_params(self, chaos_snapshot):
        rerun = run_workload(chaos_snapshot)
        assert rerun.workload == "chaos"
        assert rerun.metrics["n_drives"] == float(N_DRIVES)


class TestSchedulerWorkload:
    def test_shape_and_tagging(self, scheduler_snapshot):
        metrics = scheduler_snapshot.metrics
        assert scheduler_snapshot.workload == "scheduler"
        assert metrics["frames"] == float(N_FRAMES)
        assert 0 < metrics["latency_mean_s"] <= metrics["latency_p99_s"]
        assert metrics["throughput_hz"] > 0
        assert "latency_stage_sensing_mean_s" in metrics

    def test_deterministic_per_seed(self, scheduler_snapshot):
        again = snapshot("scheduler", seed=0, n_frames=N_FRAMES)
        assert gated_view(again) == gated_view(scheduler_snapshot)

    def test_self_gate_passes(self, scheduler_snapshot):
        report = gate_against_baseline(scheduler_snapshot)
        assert report.ok, report.format_report()

    def test_throughput_drop_fails_the_gate(self, scheduler_snapshot):
        slower = dict(scheduler_snapshot.metrics)
        slower["throughput_hz"] *= 0.9  # past the 5% downward tolerance
        current = BenchmarkSnapshot(
            name=scheduler_snapshot.name,
            seed=scheduler_snapshot.seed,
            duration_s=scheduler_snapshot.duration_s,
            metrics=slower,
            workload="scheduler",
        )
        report = gate_against_baseline(scheduler_snapshot, current=current)
        assert not report.ok
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["throughput_hz"]

    def test_throughput_gain_passes_the_gate(self, scheduler_snapshot):
        faster = dict(scheduler_snapshot.metrics)
        faster["throughput_hz"] *= 1.5
        current = BenchmarkSnapshot(
            name=scheduler_snapshot.name,
            seed=scheduler_snapshot.seed,
            duration_s=scheduler_snapshot.duration_s,
            metrics=faster,
            workload="scheduler",
        )
        assert gate_against_baseline(scheduler_snapshot, current=current).ok


class TestIngestWorkload:
    @pytest.fixture(scope="class")
    def ingest_snapshot(self):
        return snapshot(
            "ingest", seed=0, n_vehicles=N_VEHICLES, logs_per_vehicle=N_LOGS
        )

    def test_shape_and_tagging(self, ingest_snapshot):
        metrics = ingest_snapshot.metrics
        assert ingest_snapshot.workload == "ingest"
        assert ingest_snapshot.params["n_vehicles"] == float(N_VEHICLES)
        assert metrics["n_logs"] == float(N_VEHICLES * N_LOGS)
        assert metrics["realtime_delivery_rate"] == 1.0
        assert metrics["realtime_lost"] == 0.0
        assert metrics["post_dedup_duplicates"] == 0.0
        assert metrics["throughput_logs_per_s"] > 0
        assert metrics["ingest_p50_s"] <= metrics["ingest_p99_s"]

    def test_deterministic_per_seed(self, ingest_snapshot):
        again = snapshot(
            "ingest", seed=0, n_vehicles=N_VEHICLES, logs_per_vehicle=N_LOGS
        )
        assert gated_view(again) == gated_view(ingest_snapshot)

    def test_self_gate_passes(self, ingest_snapshot):
        report = gate_against_baseline(ingest_snapshot)
        assert report.ok, report.format_report()

    def test_run_workload_respects_params(self, ingest_snapshot):
        rerun = run_workload(ingest_snapshot)
        assert rerun.workload == "ingest"
        assert rerun.metrics["n_logs"] == float(N_VEHICLES * N_LOGS)

    def test_delivery_rate_dip_fails_the_gate(self, ingest_snapshot):
        worse = dict(ingest_snapshot.metrics)
        worse["realtime_delivery_rate"] = 0.99  # zero downward tolerance
        current = BenchmarkSnapshot(
            name=ingest_snapshot.name,
            seed=ingest_snapshot.seed,
            duration_s=ingest_snapshot.duration_s,
            metrics=worse,
            workload="ingest",
        )
        report = gate_against_baseline(ingest_snapshot, current=current)
        assert not report.ok
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["realtime_delivery_rate"]

    def test_any_post_dedup_duplicate_fails_the_gate(self, ingest_snapshot):
        worse = dict(ingest_snapshot.metrics)
        worse["post_dedup_duplicates"] = 1.0
        current = BenchmarkSnapshot(
            name=ingest_snapshot.name,
            seed=ingest_snapshot.seed,
            duration_s=ingest_snapshot.duration_s,
            metrics=worse,
            workload="ingest",
        )
        report = gate_against_baseline(ingest_snapshot, current=current)
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["post_dedup_duplicates"]

    def test_fleet_size_change_is_a_shape_problem(self, ingest_snapshot):
        other = dict(ingest_snapshot.metrics)
        other["n_logs"] = float(N_VEHICLES * N_LOGS + 1)
        spec = WORKLOADS["ingest"]
        _f, problems = gate_metrics(
            ingest_snapshot.metrics, other, spec.gated, spec.shape
        )
        assert any("n_logs" in p for p in problems)


class TestFleetWorkload:
    @pytest.fixture(scope="class")
    def fleet_snapshot(self):
        return snapshot("fleet", seed=0, n_cells=N_CELLS, n_workers=N_WORKERS)

    def test_shape_and_tagging(self, fleet_snapshot):
        metrics = fleet_snapshot.metrics
        assert fleet_snapshot.workload == "fleet"
        assert fleet_snapshot.params == {
            "n_cells": float(N_CELLS),
            "n_workers": float(N_WORKERS),
        }
        assert metrics["n_cells"] == float(N_CELLS)
        assert metrics["lost_cells"] == 0.0
        assert metrics["duplicate_cells"] == 0.0
        assert metrics["failed_cells"] == 0.0
        assert metrics["collision_rate"] == 0.0
        assert metrics["cells_per_s"] > 0
        assert metrics["wall_s_total"] > 0

    def test_deterministic_per_seed(self, fleet_snapshot):
        again = snapshot("fleet", seed=0, n_cells=N_CELLS, n_workers=N_WORKERS)
        assert gated_view(again) == gated_view(fleet_snapshot)

    def test_self_gate_passes(self, fleet_snapshot):
        report = gate_against_baseline(fleet_snapshot)
        assert report.ok, report.format_report()

    def test_run_workload_respects_params(self, fleet_snapshot):
        rerun = run_workload(fleet_snapshot)
        assert rerun.workload == "fleet"
        assert rerun.metrics["n_cells"] == float(N_CELLS)

    def test_any_lost_cell_fails_the_gate(self, fleet_snapshot):
        worse = dict(fleet_snapshot.metrics)
        worse["lost_cells"] = 1.0  # zero tolerance
        current = BenchmarkSnapshot(
            name=fleet_snapshot.name,
            seed=fleet_snapshot.seed,
            duration_s=fleet_snapshot.duration_s,
            metrics=worse,
            workload="fleet",
        )
        report = gate_against_baseline(fleet_snapshot, current=current)
        assert not report.ok
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["lost_cells"]

    def test_throughput_collapse_fails_the_gate(self, fleet_snapshot):
        worse = dict(fleet_snapshot.metrics)
        worse["cells_per_s"] *= 0.3  # past the 50% downward tolerance
        current = BenchmarkSnapshot(
            name=fleet_snapshot.name,
            seed=fleet_snapshot.seed,
            duration_s=fleet_snapshot.duration_s,
            metrics=worse,
            workload="fleet",
        )
        report = gate_against_baseline(fleet_snapshot, current=current)
        regressed = [f.metric for f in report.findings if f.regressed]
        assert regressed == ["cells_per_s"]

    def test_campaign_size_change_is_a_shape_problem(self, fleet_snapshot):
        other = dict(fleet_snapshot.metrics)
        other["n_cells"] = float(N_CELLS + 1)
        spec = WORKLOADS["fleet"]
        _f, problems = gate_metrics(
            fleet_snapshot.metrics, other, spec.gated, spec.shape
        )
        assert any("n_cells" in p for p in problems)


class TestDirectionAwareGate:
    def test_lower_direction_flags_decreases_only(self):
        gated = {"throughput_hz": WORKLOADS["scheduler"].gated["throughput_hz"]}
        findings, _ = gate_metrics(
            {"throughput_hz": 10.0}, {"throughput_hz": 9.0}, gated
        )
        assert findings[0].regressed
        assert findings[0].direction == "lower"
        findings, _ = gate_metrics(
            {"throughput_hz": 10.0}, {"throughput_hz": 11.0}, gated
        )
        assert not findings[0].regressed

    def test_upper_remains_the_default(self):
        gated = {"latency_mean_s": Gate(0.05)}
        findings, _ = gate_metrics(
            {"latency_mean_s": 1.0}, {"latency_mean_s": 1.2}, gated
        )
        assert findings[0].direction == "upper"
        assert findings[0].regressed

    def test_describe_shows_the_direction_sign(self):
        findings, _ = gate_metrics(
            {"throughput_hz": 10.0},
            {"throughput_hz": 10.0},
            {"throughput_hz": Gate(0.05, "lower")},
        )
        assert "tol -5%" in findings[0].describe()

    def test_zero_tolerance_chaos_metrics_trip_on_any_increase(self):
        base = {"collision_rate": 0.0, "safe_stop_rate": 0.0, "deadline_misses": 0.0}
        worse = dict(base, collision_rate=0.05)
        findings, _ = gate_metrics(base, worse, WORKLOADS["chaos"].gated)
        tripped = {f.metric for f in findings if f.regressed}
        assert tripped == {"collision_rate"}

    def test_shape_invariants_cover_campaign_and_pipeline_sizes(self):
        chaos, scheduler = WORKLOADS["chaos"].shape, WORKLOADS["scheduler"].shape
        cases = (
            (chaos, {"n_drives": 16.0}, {"n_drives": 8.0}, "n_drives"),
            (scheduler, {"frames": 400.0}, {"frames": 200.0}, "frames"),
            # A runner that stops emitting a shape key fails, too.
            (chaos, {"n_drives": 16.0}, {}, "missing shape key 'n_drives'"),
        )
        for shape, base, current, expected in cases:
            _f, problems = gate_metrics(base, current, {}, shape)
            assert any(expected in p for p in problems), problems


class TestSnapshotIo:
    def test_round_trip_preserves_workload_and_params(
        self, chaos_snapshot, tmp_path
    ):
        path = str(tmp_path / "BENCH_chaos.json")
        write_snapshot(chaos_snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.workload == "chaos"
        assert loaded.params == chaos_snapshot.params
        assert loaded.metrics == chaos_snapshot.metrics

    def test_legacy_snapshot_defaults_to_closedloop(self, tmp_path):
        # Pre-PR-4 baselines carry no workload key and must keep gating
        # as the closed loop.
        path = tmp_path / "BENCH_old.json"
        path.write_text(
            json.dumps(
                {
                    "name": "old",
                    "seed": 0,
                    "duration_s": 4.0,
                    "version": 1,
                    "metrics": {"latency_mean_s": 0.1},
                }
            )
        )
        loaded = load_snapshot(str(path))
        assert loaded.workload == "closedloop"
        assert loaded.params == {}

    def test_unknown_workload_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "seed": 0,
                    "duration_s": 1.0,
                    "version": 1,
                    "workload": "quantum",
                    "metrics": {},
                }
            )
        )
        with pytest.raises(ValueError, match="quantum"):
            load_snapshot(str(path))

    def test_run_workload_rejects_unknown(self):
        bad = BenchmarkSnapshot(
            name="x", seed=0, duration_s=1.0, metrics={}, workload="quantum"
        )
        with pytest.raises(ValueError, match="quantum"):
            run_workload(bad)

    def test_malformed_params_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        for params, match in (
            ({"n_drives": 16.0, "n_frames": 400.0}, "n_frames"),
            ({"n_drives": 16.5}, "integer"),
        ):
            path.write_text(
                json.dumps(
                    {
                        "name": "bad",
                        "seed": 0,
                        "duration_s": 10.0,
                        "version": 1,
                        "workload": "chaos",
                        "metrics": {},
                        "params": params,
                    }
                )
            )
            with pytest.raises(ValueError, match=match):
                load_snapshot(str(path))


class TestCli:
    def test_snapshot_and_check_scheduler(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_sched.json")
        code = bench_gate_main(
            [
                "snapshot",
                "--workload",
                "scheduler",
                "--name",
                "sched",
                "--param",
                f"n_frames={N_FRAMES}",
                "--out",
                baseline,
            ]
        )
        assert code == 0
        assert "workload: scheduler" in capsys.readouterr().out
        code = bench_gate_main(["check", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "throughput_hz" in out

    def test_snapshot_and_check_chaos(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_ch.json")
        code = bench_gate_main(
            [
                "snapshot",
                "--workload",
                "chaos",
                "--name",
                "ch",
                "--param",
                f"n_drives={N_DRIVES}",
                "--out",
                baseline,
            ]
        )
        assert code == 0
        code = bench_gate_main(["check", "--baseline", baseline])
        assert code == 0
        assert "collision_rate" in capsys.readouterr().out

    def test_snapshot_and_check_ingest(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_ing.json")
        code = bench_gate_main(
            [
                "snapshot",
                "--workload",
                "ingest",
                "--name",
                "ing",
                "--param",
                f"n_vehicles={N_VEHICLES}",
                "--param",
                f"logs_per_vehicle={N_LOGS}",
                "--out",
                baseline,
            ]
        )
        assert code == 0
        assert "workload: ingest" in capsys.readouterr().out
        code = bench_gate_main(["check", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "realtime_delivery_rate" in out

    def test_snapshot_and_check_fleet(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_fl.json")
        code = bench_gate_main(
            [
                "snapshot",
                "--workload",
                "fleet",
                "--name",
                "fl",
                "--param",
                f"n_cells={N_CELLS}",
                "--param",
                f"n_workers={N_WORKERS}",
                "--out",
                baseline,
            ]
        )
        assert code == 0
        assert "workload: fleet" in capsys.readouterr().out
        code = bench_gate_main(["check", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "lost_cells" in out
        assert "cells_per_s" in out

    def test_trace_rejected_for_non_closedloop(self, tmp_path, capsys):
        baseline = str(tmp_path / "BENCH_ch2.json")
        write_snapshot(
            snapshot("chaos", 0, name="ch2", n_drives=N_DRIVES), baseline
        )
        code = bench_gate_main(
            [
                "check",
                "--baseline",
                baseline,
                "--trace",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 2
        assert "closedloop" in capsys.readouterr().err

    def test_unknown_or_malformed_param_exits_2(self, tmp_path, capsys):
        for override, expected in (
            ("n_cells=5", "it takes: n_frames"),
            ("n_frames=2.5", "must be an integer"),
        ):
            code = bench_gate_main(
                [
                    "snapshot",
                    "--workload",
                    "scheduler",
                    "--param",
                    override,
                    "--out",
                    str(tmp_path / "BENCH_never.json"),
                ]
            )
            assert code == 2
            assert expected in capsys.readouterr().err
        assert not (tmp_path / "BENCH_never.json").exists()


class TestCommittedBaselines:
    """The WORKLOADS table, the committed baselines, and CI stay in step.

    Runs no workload: CI's bench-gate step globs ``BENCH_*.json``, so
    this is what guarantees every workload is gated exactly once.
    """

    def test_every_workload_has_exactly_one_complete_baseline(self):
        counts = collections.Counter()
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            baseline = load_snapshot(str(path))
            spec = WORKLOADS[baseline.workload]
            missing = set(spec.gated).union(spec.shape) - set(baseline.metrics)
            assert not missing, f"{path.name} lacks {sorted(missing)}"
            counts[baseline.workload] += 1
        assert counts == {workload: 1 for workload in WORKLOADS}
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "--baseline BENCH_*.json" in ci
