"""Seeded benchmark snapshots and the perf-regression gate.

The ROADMAP's north star ("as fast as the hardware allows") needs a
trajectory: every perf PR must prove it did not regress the loop.  The
mechanism is a *snapshot → gate* pair over the :data:`WORKLOADS` table:

1. :func:`snapshot` runs one fully seeded workload and flattens it to
   numeric metrics — simulated ones deterministic per seed, plus the
   wall-clock costs of the run (machine-dependent).
2. :func:`write_snapshot` persists it as ``BENCH_<name>.json`` (committed
   to the repo as the accepted baseline).
3. :func:`gate_against_baseline` re-runs the workload a baseline names
   and fails when a gated metric regresses beyond its tolerance or a
   shape key (the size of the workload itself) changes.

Simulated metrics are bit-stable per seed, so their tolerance exists
only to absorb *intentional* recalibrations: an unintentional change of
the sampled distribution trips the gate immediately.  Adding a workload
is one :class:`Workload` entry plus its committed baseline.  The
``bench-gate`` CLI (:mod:`repro.observability.bench_gate`) wraps this
for CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Snapshot format version (bump on incompatible metric renames).
SNAPSHOT_VERSION = 1


class Gate(NamedTuple):
    """How one gated metric regresses: by more than *tolerance* (relative)."""

    tolerance: float
    #: "upper" metrics regress when they grow (latencies, rates, misses);
    #: "lower" metrics when they shrink (throughput, pass rates).
    direction: str = "upper"


@dataclass(frozen=True)
class Workload:
    """One seeded bench workload: how to run it and what the gate checks."""

    #: ``run(seed, **params) -> (duration_s, metrics)``.  Runners import
    #: their subsystem lazily: this module loads with every
    #: ``repro.observability`` import, so it stays standard-library only.
    run: Callable[..., Tuple[float, Dict[str, float]]]
    #: Default params; an ``int`` default makes the param integral.  A
    #: ``duration_s`` param is stored as the snapshot's top-level
    #: ``duration_s``, never in its ``params``.
    params: Mapping[str, float]
    gated: Mapping[str, Gate]
    #: Metrics that must match the baseline exactly (and be present in
    #: both runs), otherwise the gate is comparing different workloads.
    shape: Tuple[str, ...]


@dataclass(frozen=True)
class BenchmarkSnapshot:
    """One named, seeded benchmark run, flattened to numeric metrics."""

    name: str
    seed: int
    duration_s: float
    metrics: Dict[str, float]
    version: int = SNAPSHOT_VERSION
    #: Which seeded workload produced this snapshot (drives the re-run
    #: during ``check``); pre-PR-4 snapshots default to "closedloop".
    workload: str = "closedloop"
    #: Extra workload parameters the re-run needs (e.g. n_drives).
    params: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "version": self.version,
            "workload": self.workload,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
        if self.params:
            payload["params"] = {
                k: self.params[k] for k in sorted(self.params)
            }
        return json.dumps(payload, indent=2)


def snapshot_path(name: str, directory: str = ".") -> str:
    import os

    return os.path.join(directory, f"BENCH_{name}.json")


def write_snapshot(snapshot: BenchmarkSnapshot, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(snapshot.to_json() + "\n")


def load_snapshot(path: str) -> BenchmarkSnapshot:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {path!r} has version {data.get('version')}; "
            f"this code reads version {SNAPSHOT_VERSION}"
        )
    workload = data.get("workload", "closedloop")
    params = {k: float(v) for k, v in data.get("params", {}).items()}
    try:
        resolve_params(workload, params)
    except ValueError as exc:
        raise ValueError(f"snapshot {path!r}: {exc}") from None
    return BenchmarkSnapshot(
        name=data["name"],
        seed=int(data["seed"]),
        duration_s=float(data["duration_s"]),
        metrics={k: float(v) for k, v in data["metrics"].items()},
        workload=workload,
        params=params,
    )


def _closedloop(seed: int, duration_s: float, tracer=None):
    """The seeded reference drive.

    The workload is the Eq. 1 drill corridor with the obstacle (30 m)
    far enough that a nominal drive brakes cleanly: a stable, fully
    seeded exercise of perception, planning, CAN, and actuation.  A
    :class:`~repro.observability.tracing.Tracer` also captures the
    drive's Perfetto trace (CI uploads it as an artifact).
    """
    from ..runtime.sov import obstacle_ahead_scenario

    sov = obstacle_ahead_scenario(30.0, seed=seed)
    sov.enable_attribution()
    if tracer is not None:
        sov.attach_tracer(tracer)
    started = time.perf_counter()
    result = sov.drive(duration_s)
    wall_s = time.perf_counter() - started
    latency = result.latency
    metrics: Dict[str, float] = {
        "latency_mean_s": latency.mean_s,
        "latency_p99_s": latency.percentile_s(99.0),
        "latency_best_s": latency.best_s,
        "latency_worst_s": latency.worst_s,
        "latency_samples": float(latency.count),
        "control_ticks": float(result.ops.control_ticks),
        "distance_m": result.ops.distance_m,
        "collisions": float(result.ops.collisions),
        "deadline_misses": (
            float(result.attribution.total_misses)
            if result.attribution is not None
            else 0.0
        ),
        # Informational only (machine-dependent): never gated.
        "wall_s_per_tick": wall_s / max(1, result.ops.control_ticks),
    }
    for stage in sorted(latency.stages_s):
        metrics[f"latency_stage_{stage}_mean_s"] = latency.stage_mean_s(stage)
    return duration_s, metrics


def _chaos(seed: int, n_drives: int):
    """Chaos-sampled fault scenarios down the ``slalom`` corridor.

    The full safety net is engaged.  Envelope metrics (collision/
    SAFE_STOP rates, deadline misses, residency) are bit-stable per
    seed; the campaign's wall-clock cost is reported per drive.
    """
    from ..robustness.chaos import ChaosConfig, run_chaos_campaign

    config = ChaosConfig(
        n_drives=n_drives,
        seed=seed,
        safety_net=True,
        corridor="slalom",
    )
    started = time.perf_counter()
    envelope = run_chaos_campaign(config).envelope
    wall_s = time.perf_counter() - started
    return config.duration_s, {
        "n_drives": float(envelope.n_drives),
        "collision_rate": envelope.collision_rate,
        "safe_stop_rate": envelope.safe_stop_rate,
        "stop_rate": envelope.stop_rate,
        "deadline_misses": float(envelope.deadline_misses),
        "mean_reactive_interventions": envelope.mean_reactive_interventions,
        "residency_nominal": envelope.mode_residency_mean.get("NOMINAL", 0.0),
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
        "wall_s_per_drive": wall_s / n_drives,
    }


def _scheduler(seed: int, n_frames: int):
    """*n_frames* through the pipelined executor (paper Sec. IV).

    Replays the sensing -> perception -> planning pipeline: sustained
    throughput and per-frame service latency are the pair the paper's
    pipelining argument balances.
    """
    from ..runtime.scheduler import PipelinedExecutor

    executor = PipelinedExecutor(seed=seed)
    started = time.perf_counter()
    report = executor.run(n_frames)
    wall_s = time.perf_counter() - started
    stats = report.stats
    metrics: Dict[str, float] = {
        "frames": float(n_frames),
        "throughput_hz": report.throughput_hz,
        "latency_mean_s": stats.mean_s,
        "latency_p99_s": stats.percentile_s(99.0),
        "latency_worst_s": stats.worst_s,
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
        "wall_us_per_frame": wall_s / n_frames * 1e6,
    }
    for stage in sorted(stats.stages_s):
        metrics[f"latency_stage_{stage}_mean_s"] = stats.stage_mean_s(stage)
    return n_frames / executor.frame_rate_hz, metrics


def _ingest(
    seed: int,
    n_vehicles: int,
    logs_per_vehicle: int,
    metrics_per_vehicle: int,
):
    """The fleet-telemetry ingest campaign (paper Sec. II-B).

    Every vehicle uplinks its condensed hourly logs across a seeded
    lossy link into one shared ingestion service.
    """
    from ..cloud.ingestion import IngestCampaignConfig, run_ingest_campaign

    config = IngestCampaignConfig(
        n_vehicles=n_vehicles,
        logs_per_vehicle=logs_per_vehicle,
        metrics_per_vehicle=metrics_per_vehicle,
        seed=seed,
    )
    started = time.perf_counter()
    result = run_ingest_campaign(config)
    wall_s = time.perf_counter() - started
    report = result.report
    return result.sim_span_s, {
        "n_logs": float(result.realtime_submitted),
        "throughput_logs_per_s": result.throughput_logs_per_s,
        "realtime_delivery_rate": result.realtime_delivery_rate,
        "realtime_lost": float(result.realtime_lost),
        "post_dedup_duplicates": float(result.post_dedup_duplicates),
        "delivered": report.delivered,
        "duplicated_pre_dedup": report.duplicated,
        "corrupted_detected": report.corrupted,
        "dead_lettered": report.dead_lettered,
        "ingest_p50_s": report.ingest_p50_s,
        "ingest_p99_s": report.ingest_p99_s,
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
    }


def _fleet(seed: int, n_cells: int, n_workers: int):
    """*n_cells* 2 s chaos cells across the supervised worker pool.

    Drives the fleet engine (:mod:`repro.fleetops`) with journaling off
    (CI gates the resume path separately).  Exactly-once accounting and
    the measured safety envelope are deterministic per seed.
    """
    from ..fleetops.campaign import fleet_summary
    from ..fleetops.supervisor import FleetConfig
    from ..robustness.chaos import ChaosConfig, run_chaos_campaign

    chaos = ChaosConfig(
        n_drives=n_cells, seed=seed, safety_net=True, duration_s=2.0
    )
    flat = fleet_summary(
        run_chaos_campaign(
            chaos, fleet=FleetConfig(n_workers=n_workers, seed=seed)
        )
    )
    return chaos.duration_s, {
        "n_cells": flat["n_cells"],
        "cells_per_s": flat["cells_per_s"],
        "lost_cells": flat["lost_cells"],
        "duplicate_cells": flat["duplicate_cells"],
        "failed_cells": flat["failed_cells"],
        "collision_rate": flat["collision_rate"],
        "safe_stop_rate": flat["safe_stop_rate"],
        "deadline_misses": flat["deadline_misses"],
        "retries": flat["retries"],
        "worker_crashes": flat["worker_crashes"],
        "degraded_to_serial": flat["degraded_to_serial"],
        "risk_adjusted_profit_per_day_usd": flat[
            "risk_adjusted_profit_per_day_usd"
        ],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
        "wall_s_per_cell": flat["wall_s"] / max(1, n_cells),
    }


def _procgen(seed: int, n_cells: int, n_workers: int):
    """Generated scenes through the fleet engine and invariant harness.

    Sweeps *n_cells* scenes sampled from the default
    :class:`~repro.scene.procgen.ProcGenSpace` with the full harness
    (scene regeneration + the five drive invariants per cell).
    ``scene_fingerprint`` is the campaign-level CRC over every generated
    scene.
    """
    from ..fleetops.campaign import procgen_summary, run_procgen_campaign
    from ..fleetops.supervisor import FleetConfig

    result = run_procgen_campaign(
        generator_seed=seed,
        n_cells=n_cells,
        fleet=FleetConfig(n_workers=n_workers, seed=seed),
    )
    flat = procgen_summary(result)
    return 0.0, {
        "n_cells": flat["n_cells"],
        "cells_per_s": flat["cells_per_s"],
        "violations": flat["violations"],
        "checks_run": flat["checks_run"],
        "collision_rate": flat["collision_rate"],
        "safe_stop_rate": flat["safe_stop_rate"],
        "lost_cells": flat["lost_cells"],
        "duplicate_cells": flat["duplicate_cells"],
        "failed_cells": flat["failed_cells"],
        "n_topologies": flat["n_topologies"],
        "scene_fingerprint": flat["campaign_checksum"],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
        "wall_s_per_cell": flat["wall_s"] / max(1, n_cells),
    }


def _triage(seed: int, n_chaos: int, n_procgen: int, n_replicas: int):
    """The failure-triage loop end to end.

    Harvests injected violations across the chaos and procgen arms,
    delta-debugs each one, deduplicates by failure fingerprint,
    flake-classifies the survivors, files them in a throwaway corpus,
    and replays it.
    """
    import tempfile

    from ..triage.campaign import (
        TriageCampaignConfig,
        run_triage_campaign,
        triage_summary,
    )

    config = TriageCampaignConfig(
        seed=seed,
        n_chaos=n_chaos,
        n_procgen=n_procgen,
        n_replicas=n_replicas,
    )
    with tempfile.TemporaryDirectory() as corpus_dir:
        result = run_triage_campaign(config, corpus_dir=corpus_dir)
        flat = triage_summary(result)
    return 0.0, {
        "n_candidates": flat["n_candidates"],
        "n_violations": flat["n_violations"],
        "unique_failures": flat["unique_failures"],
        "duplicates_merged": flat["duplicates_merged"],
        "mean_reduction_ratio": flat["mean_reduction_ratio"],
        "minimized_still_violates_rate": flat[
            "minimized_still_violates_rate"
        ],
        "shrink_evaluations": flat["shrink_evaluations"],
        "shrink_evals_per_s": flat["shrink_evals_per_s"],
        "corpus_records": flat["corpus_records"],
        "corpus_replay_pass_rate": flat["corpus_replay_pass_rate"],
        "corpus_quarantined": flat["corpus_quarantined"],
        "n_deterministic": flat["n_deterministic"],
        "n_flaky": flat["n_flaky"],
        "n_unreproducible": flat["n_unreproducible"],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
    }


def _batched(seed: int, n_drives: int, duration_s: float):
    """Race the batched multi-drive stepper against the serial engine.

    Builds the same *n_drives* corridor drives twice (corridors cycled,
    seeds offset from *seed*), runs one set serially through
    ``SystemsOnAVehicle.drive`` and the other through
    :func:`~repro.runtime.batched.drive_batch`, and snapshots:

    * ``fingerprint_mismatches`` — drives whose
      :func:`~repro.testing.invariants.drive_fingerprint` diverged
      between engines;
    * ``speedup`` — aggregate ticks/s, batched over serial;
    * per-engine ticks/s plus wall-clock totals (informational).
    """
    from ..runtime.batched import drive_batch
    from ..scene.corridors import corridor_names, make_corridor_sov
    from ..scene.providers import resolve_scene
    from ..testing.invariants import drive_fingerprint

    names = sorted(corridor_names())

    def build(index: int):
        scenario = resolve_scene(names[index % len(names)], seed + index)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        return sov

    serial_sovs = [build(i) for i in range(n_drives)]
    started = time.perf_counter()
    serial_results = [sov.drive(duration_s) for sov in serial_sovs]
    serial_wall_s = time.perf_counter() - started

    batched_sovs = [build(i) for i in range(n_drives)]
    started = time.perf_counter()
    batched_results = drive_batch(
        batched_sovs, [duration_s] * n_drives
    )
    batched_wall_s = time.perf_counter() - started

    mismatches = sum(
        drive_fingerprint(a) != drive_fingerprint(b)
        for a, b in zip(serial_results, batched_results)
    )
    ticks = sum(r.ops.control_ticks for r in serial_results)
    return duration_s, {
        "n_drives": float(n_drives),
        "control_ticks": float(ticks),
        "fingerprint_mismatches": float(mismatches),
        "collisions": float(
            sum(r.ops.collisions for r in serial_results)
        ),
        "speedup": (ticks / batched_wall_s) / (ticks / serial_wall_s),
        # Informational only (machine-dependent): never gated.
        "ticks_per_s_serial": ticks / serial_wall_s,
        "ticks_per_s_batched": ticks / batched_wall_s,
        "wall_s_serial": serial_wall_s,
        "wall_s_batched": batched_wall_s,
    }


#: Every seeded bench workload, keyed by the name its baselines carry.
#: All simulated metrics are bit-stable per seed; nonzero tolerances on
#: them exist only to absorb *intentional* recalibrations.  Wall-clock
#: metrics (``cells_per_s``, ``shrink_evals_per_s``, ``speedup``) gate
#: downward with a generous tolerance: shared CI is noisy, and the
#: correctness gates are the sharp ones.
WORKLOADS: Dict[str, Workload] = {
    # The closed loop gates mean/p99 simulated latency (upward).
    "closedloop": Workload(
        run=_closedloop,
        params={"duration_s": 12.0},
        gated={"latency_mean_s": Gate(0.05), "latency_p99_s": Gate(0.10)},
        shape=("latency_samples", "control_ticks"),
    ),
    # A compact seeded sweep, big enough that a leaked collision or
    # attribution drift shows, small enough to gate every CI run.  It
    # gates the safety envelope itself: a single leaked collision or new
    # deadline miss fails immediately.
    "chaos": Workload(
        run=_chaos,
        params={"n_drives": 16},
        gated={
            "collision_rate": Gate(0.0),
            "safe_stop_rate": Gate(0.0),
            "deadline_misses": Gate(0.0),
        },
        shape=("n_drives",),
    ),
    # Enough frames that the sustained throughput estimate is stable to
    # well under its tolerance.  Throughput gates downward alongside
    # per-frame service latency (upward).
    "scheduler": Workload(
        run=_scheduler,
        params={"n_frames": 400},
        gated={
            "throughput_hz": Gate(0.05, "lower"),
            "latency_mean_s": Gate(0.05),
            "latency_p99_s": Gate(0.10),
        },
        shape=("frames",),
    ),
    # Enough vehicles and logs that the sampled fault profiles cover
    # every kind.  The delivery guarantee gates exactly (no realtime
    # loss, no post-dedup duplicates, ever) alongside fleet throughput
    # (downward) and p99 ingest latency (upward).
    "ingest": Workload(
        run=_ingest,
        params={
            "n_vehicles": 6,
            "logs_per_vehicle": 10,
            "metrics_per_vehicle": 10,
        },
        gated={
            "throughput_logs_per_s": Gate(0.05, "lower"),
            "ingest_p99_s": Gate(0.10),
            "realtime_delivery_rate": Gate(0.0, "lower"),
            "post_dedup_duplicates": Gate(0.0),
        },
        shape=("n_logs",),
    ),
    # Enough short drill-lane cells that worker scheduling genuinely
    # interleaves, even with the pool running on one core.  Exactly-once
    # accounting gates at zero tolerance (a lost or duplicated cell is a
    # correctness bug, never noise), as does the measured envelope.
    "fleet": Workload(
        run=_fleet,
        params={"n_cells": 24, "n_workers": 4},
        gated={
            "cells_per_s": Gate(0.5, "lower"),
            "lost_cells": Gate(0.0),
            "duplicate_cells": Gate(0.0),
            "failed_cells": Gate(0.0),
            "collision_rate": Gate(0.0),
            "deadline_misses": Gate(0.0),
        },
        shape=("n_cells",),
    ),
    # Enough generated cells that every topology family appears.  The
    # invariant verdict, exactly-once accounting, and safety envelope
    # gate at zero tolerance, and the scene_fingerprint shape key pins
    # scene generation bit for bit — any change to the generator's draws
    # fails as a shape change, not a tolerance miss.
    "procgen": Workload(
        run=_procgen,
        params={"n_cells": 12, "n_workers": 4},
        gated={
            "cells_per_s": Gate(0.5, "lower"),
            "violations": Gate(0.0),
            "lost_cells": Gate(0.0),
            "duplicate_cells": Gate(0.0),
            "failed_cells": Gate(0.0),
            "collision_rate": Gate(0.0),
        },
        shape=("n_cells", "scene_fingerprint"),
    ),
    # The seeded injection campaign of the ``triage_campaign``
    # experiment: both arms contribute violations and both failure
    # classes appear.  Every minimized counterexample must still violate
    # and every corpus record must replay bit-identically; the mean
    # shrink reduction must not decay; nothing may land in quarantine.
    # The violation/evaluation/record counts are deterministic per seed.
    "triage": Workload(
        run=_triage,
        params={"n_chaos": 12, "n_procgen": 10, "n_replicas": 4},
        gated={
            "mean_reduction_ratio": Gate(0.0, "lower"),
            "minimized_still_violates_rate": Gate(0.0, "lower"),
            "corpus_replay_pass_rate": Gate(0.0, "lower"),
            "corpus_quarantined": Gate(0.0),
            "shrink_evals_per_s": Gate(0.5, "lower"),
        },
        shape=("n_violations", "shrink_evaluations", "corpus_records"),
    ),
    # One drive per corridor plus wrap-around repeats, long enough that
    # lockstep retirement is exercised across heterogeneous scene
    # durations.  One diverging drive fingerprint fails immediately (the
    # stepper's whole contract is bit-identity); losing half the
    # vectorization win is still a regression worth failing on.
    "batched": Workload(
        run=_batched,
        params={"n_drives": 16, "duration_s": 8.0},
        gated={
            "fingerprint_mismatches": Gate(0.0),
            "collisions": Gate(0.0),
            "speedup": Gate(0.5, "lower"),
        },
        shape=("control_ticks", "n_drives"),
    ),
}


def _spec(workload: str) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
        )
    return WORKLOADS[workload]


def resolve_params(
    workload: str, overrides: Mapping[str, float]
) -> Dict[str, float]:
    """*workload*'s default params updated by *overrides*, validated.

    Raises ``ValueError`` for an unknown workload or param name, and for
    a non-integral value of an integer param.
    """
    defaults = _spec(workload).params
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(
            f"workload {workload!r} has no param {', '.join(unknown)}; "
            f"it takes: {', '.join(sorted(defaults))}"
        )
    params = dict(defaults)
    for key, value in overrides.items():
        kind = type(defaults[key])
        if kind is int and not float(value).is_integer():
            raise ValueError(
                f"param {key} of workload {workload!r} must be an "
                f"integer, got {value!r}"
            )
        params[key] = kind(value)
    return params


def snapshot(
    workload: str,
    seed: int = 0,
    name: Optional[str] = None,
    tracer=None,
    **params: float,
) -> BenchmarkSnapshot:
    """Run one of the seeded :data:`WORKLOADS` and collect its metrics.

    *params* override the workload's defaults.  Only ``closedloop`` takes
    a *tracer*, which captures the drive's Perfetto trace.
    """
    resolved = resolve_params(workload, params)
    traced = {} if tracer is None else {"tracer": tracer}
    duration_s, metrics = WORKLOADS[workload].run(seed, **resolved, **traced)
    return BenchmarkSnapshot(
        name=name or workload,
        seed=seed,
        duration_s=duration_s,
        metrics=metrics,
        workload=workload,
        params={
            k: float(v) for k, v in resolved.items() if k != "duration_s"
        },
    )


def run_workload(baseline: BenchmarkSnapshot, tracer=None) -> BenchmarkSnapshot:
    """Re-run the seeded workload a baseline snapshot describes."""
    params = dict(baseline.params)
    if "duration_s" in _spec(baseline.workload).params:
        params["duration_s"] = baseline.duration_s
    return snapshot(
        baseline.workload,
        baseline.seed,
        name=baseline.name,
        tracer=tracer,
        **params,
    )


@dataclass(frozen=True)
class GateFinding:
    """One gated metric's verdict."""

    metric: str
    baseline: float
    current: float
    tolerance: float
    regressed: bool
    #: "upper" metrics regress when they grow; "lower" when they shrink.
    direction: str = "upper"

    @property
    def delta_frac(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        sign = "-" if self.direction == "lower" else "+"
        return (
            f"{self.metric}: baseline {self.baseline:.6g} -> current "
            f"{self.current:.6g} ({self.delta_frac:+.2%}, "
            f"tol {sign}{self.tolerance:.0%}) {verdict}"
        )


@dataclass
class GateReport:
    """The gate's full verdict over one baseline snapshot."""

    name: str
    findings: List[GateFinding] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not any(
            f.regressed for f in self.findings
        )

    def format_report(self) -> str:
        lines = [f"bench-gate: {self.name} -> {'PASS' if self.ok else 'FAIL'}"]
        lines.extend(f.describe() for f in self.findings)
        lines.extend(f"problem: {p}" for p in self.problems)
        return "\n".join(lines)


def gate_metrics(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    gated: Mapping[str, Gate],
    shape: Sequence[str] = (),
) -> Tuple[List[GateFinding], List[str]]:
    """Compare metric maps; returns (findings, structural problems).

    Each gated metric is checked one-sided in its direction: "upper"
    metrics (latencies, rates, miss counts) regress when they exceed
    ``baseline * (1 + tol)``; "lower" metrics (throughput) regress when
    they fall below ``baseline * (1 - tol)``.  Every *shape* key must be
    present in both maps and equal.
    """
    findings: List[GateFinding] = []
    problems: List[str] = []
    for metric, (tolerance, direction) in sorted(gated.items()):
        if metric not in baseline:
            problems.append(f"baseline is missing gated metric {metric!r}")
            continue
        if metric not in current:
            problems.append(f"current run is missing gated metric {metric!r}")
            continue
        base, cur = baseline[metric], current[metric]
        if direction == "lower":
            regressed = cur < base * (1.0 - tolerance)
        else:
            regressed = cur > base * (1.0 + tolerance)
        findings.append(
            GateFinding(
                metric=metric,
                baseline=base,
                current=cur,
                tolerance=tolerance,
                regressed=regressed,
                direction=direction,
            )
        )
    # The workload itself must not silently change shape.
    for key in shape:
        if key not in baseline:
            problems.append(f"baseline is missing shape key {key!r}")
        elif key not in current:
            problems.append(f"current run is missing shape key {key!r}")
        elif baseline[key] != current[key]:
            problems.append(
                f"workload changed: {key} was "
                f"{baseline[key]:.0f}, now {current[key]:.0f}"
            )
    return findings, problems


def gate_against_baseline(
    baseline: BenchmarkSnapshot,
    current: Optional[BenchmarkSnapshot] = None,
    tracer=None,
) -> GateReport:
    """Re-run the baseline's seeded workload and gate the result.

    The baseline's ``workload`` field names the :data:`WORKLOADS` entry
    to replay; that entry's gated metrics and shape keys decide the
    verdict.
    """
    if current is None:
        current = run_workload(baseline, tracer=tracer)
    spec = _spec(baseline.workload)
    findings, problems = gate_metrics(
        baseline.metrics, current.metrics, spec.gated, spec.shape
    )
    if baseline.workload != current.workload:
        problems.append(
            f"workload mismatch: baseline is {baseline.workload!r}, "
            f"current is {current.workload!r}"
        )
    return GateReport(name=baseline.name, findings=findings, problems=problems)
