"""Flake protocol: seeded replicas, label ground truths, fleet parity."""

import pytest

from repro.fleetops.cells import TriageCell
from repro.fleetops.supervisor import FleetConfig
from repro.robustness.faults import (
    CameraFrameDropFault,
    FaultWindow,
    SensorDropoutFault,
)
from repro.triage.flakes import (
    FLAKE_LABELS,
    classify_flakes,
    classify_outcomes,
    label_stats,
    replica_cell,
)

#: Full-window camera blindness at short stopping distance: the schedule
#: itself forces the collision, whatever the simulation-seed draws.
DETERMINISTIC_CELL = TriageCell(
    scene="drill-lane",
    sim_seed=7,
    faults=(SensorDropoutFault(sensor="camera", window=FaultWindow(0.0, 3.0)),),
    safety_net=False,
    duration_s=2.5,
    obstacle_distance_m=8.0,
)

#: Stochastic frame drops at high approach speed: whether the vehicle
#: stops in time depends on the seeded draws, so only some replicas
#: violate (probed: replica flags [1, 1, 0, 1] at 4 replicas).
FLAKY_CELL = TriageCell(
    scene="drill-lane",
    sim_seed=0,
    faults=(CameraFrameDropFault(drop_prob=0.5, window=FaultWindow(0.0, 4.0)),),
    safety_net=False,
    duration_s=3.0,
    obstacle_distance_m=12.0,
    initial_speed_mps=10.0,
)


# -- pure classification ------------------------------------------------------


def test_classify_outcomes_label_ground_truths():
    assert classify_outcomes("c", [True, True, True]).label == "deterministic"
    assert classify_outcomes("c", [True, False, True]).label == "flaky"
    assert classify_outcomes("c", [False, True, True]).label == "unreproducible"
    assert classify_outcomes("c", [False, False]).label == "unreproducible"
    assert classify_outcomes("c", [True]).label == "deterministic"


def test_classify_outcomes_stats():
    c = classify_outcomes("c", [True, False, True, False], walls=[1.0, 3.0])
    assert c.n_replicas == 4
    assert c.n_violating == 2
    assert c.violation_rate == 0.5
    assert c.first_violation_replica == 0
    assert c.replays_per_violation == 2.0
    assert c.mean_wall_s == 2.0
    none_repro = classify_outcomes("c", [False, False, False])
    assert none_repro.first_violation_replica == -1
    assert none_repro.replays_per_violation == 3.0


def test_classify_outcomes_rejects_empty():
    with pytest.raises(ValueError):
        classify_outcomes("c", [])


# -- replica derivation -------------------------------------------------------


def test_replica_zero_is_the_exact_cell():
    r0 = replica_cell(DETERMINISTIC_CELL, 0)
    assert r0.sim_seed == DETERMINISTIC_CELL.sim_seed
    assert r0.faults == DETERMINISTIC_CELL.faults
    assert r0.replica == 0


def test_later_replicas_perturb_only_the_sim_seed():
    r1 = replica_cell(DETERMINISTIC_CELL, 1)
    r2 = replica_cell(DETERMINISTIC_CELL, 2)
    assert r1.sim_seed != DETERMINISTIC_CELL.sim_seed
    assert r1.sim_seed != r2.sim_seed
    assert r1.faults == DETERMINISTIC_CELL.faults
    assert r1.scene == DETERMINISTIC_CELL.scene
    assert r1.duration_s == DETERMINISTIC_CELL.duration_s
    # Derivation is a pure function of (sim_seed, k).
    assert replica_cell(DETERMINISTIC_CELL, 1).sim_seed == r1.sim_seed
    # Replica index is part of the cell id, so a replica grid has no
    # id collisions even when two replicas draw the same sim seed.
    assert r1.cell_id != r2.cell_id != DETERMINISTIC_CELL.cell_id


def test_negative_replica_rejected():
    with pytest.raises(ValueError):
        replica_cell(DETERMINISTIC_CELL, -1)


# -- end-to-end protocol over real drives -------------------------------------


def test_schedule_forced_failure_classifies_deterministic():
    (c,) = classify_flakes([DETERMINISTIC_CELL], n_replicas=4)
    assert c.label == "deterministic"
    assert c.n_violating == 4
    assert c.violation_rate == 1.0
    assert c.errors == ()


def test_seed_dependent_failure_classifies_flaky():
    (c,) = classify_flakes([FLAKY_CELL], n_replicas=4)
    assert c.label == "flaky"
    assert c.first_violation_replica == 0  # the exact replay reproduces
    assert 0.0 < c.violation_rate < 1.0


def test_duplicate_cells_rejected():
    with pytest.raises(ValueError, match="duplicate replica id"):
        classify_flakes([DETERMINISTIC_CELL, DETERMINISTIC_CELL])


def test_replica_count_validated():
    with pytest.raises(ValueError):
        classify_flakes([DETERMINISTIC_CELL], n_replicas=0)


def test_fleet_and_serial_paths_agree():
    serial = classify_flakes([DETERMINISTIC_CELL, FLAKY_CELL], n_replicas=3)
    fleet = classify_flakes(
        [DETERMINISTIC_CELL, FLAKY_CELL],
        n_replicas=3,
        fleet=FleetConfig(n_workers=2),
    )
    assert [c.label for c in serial] == [c.label for c in fleet]
    assert [c.n_violating for c in serial] == [c.n_violating for c in fleet]


def test_label_stats_groups_by_label():
    classifications = classify_flakes(
        [DETERMINISTIC_CELL, FLAKY_CELL], n_replicas=4
    )
    stats = label_stats(classifications)
    assert set(stats) <= set(FLAKE_LABELS)
    assert stats["deterministic"]["count"] == 1.0
    assert stats["deterministic"]["mean_violation_rate"] == 1.0
    assert stats["flaky"]["count"] == 1.0
    assert 0.0 < stats["flaky"]["mean_violation_rate"] < 1.0
