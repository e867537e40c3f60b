"""Procgen-campaign benchmarks: the generated-scenario acceptance sweep.

Carries ISSUE 8's acceptance campaign: >= 200 procedurally generated
cells on the fleet substrate with the full invariant harness (scene
regeneration + the five drive invariants per cell), zero violations,
and bit-identical scene regeneration from ``(generator_seed,
cell_index)`` — plus fleet-vs-serial identity on a campaign slice and
the scene-level determinism contract over the whole acceptance range.
"""

from repro.experiments import run_experiment
from repro.fleetops.campaign import run_procgen_campaign
from repro.fleetops.cells import procgen_cells, run_cell
from repro.fleetops.supervisor import FleetConfig
from repro.scene.procgen import DEFAULT_SPACE, scene_fingerprint

#: The acceptance campaign: >= 200 generated cells (ISSUE 8's floor).
ACCEPTANCE_CELLS = 200
ACCEPTANCE_SEED = 0


def test_procgen_campaign_experiment(benchmark, record_table):
    result = benchmark.pedantic(
        run_experiment, args=("procgen_campaign",), iterations=1, rounds=1
    )
    record_table(result)
    # The tentpole claim: >= 200 generated cells, zero violations...
    assert result.row("cells").measured >= ACCEPTANCE_CELLS
    assert result.row("invariant_violations").measured == 0.0
    assert result.row("collision_rate").measured == 0.0
    # ...with bit-identical scene regeneration asserted on every cell...
    assert result.row("scene_regeneration_checked_frac").measured == 1.0
    # ...exactly-once fleet accounting, and every topology family drawn.
    assert result.row("lost_or_duplicate_cells").measured == 0.0
    assert result.row("topology_families").measured == 4.0
    # The Eq. 2 identity: measured range reduction equals Pad/(Pv+Pad).
    eq2 = result.row("eq2_range_reduction_measured")
    assert abs(eq2.measured - eq2.paper) < 1e-12


def test_acceptance_scenes_regenerate_bit_identically():
    """Scene generation is pure per (generator_seed, cell_index) across
    the full acceptance range — no drives, pure generator contract."""
    for index in range(ACCEPTANCE_CELLS):
        first = DEFAULT_SPACE.sample(ACCEPTANCE_SEED, index)
        again = DEFAULT_SPACE.sample(ACCEPTANCE_SEED, index)
        assert scene_fingerprint(first) == scene_fingerprint(again), index


def test_procgen_fleet_slice_identical_to_serial():
    """A campaign slice through the pool matches in-process run_cell."""
    n_cells = 24
    specs = list(
        procgen_cells(generator_seed=ACCEPTANCE_SEED, n_cells=n_cells)
    )
    serial_identities = [run_cell(spec).identity() for spec in specs]
    result = run_procgen_campaign(
        generator_seed=ACCEPTANCE_SEED,
        n_cells=n_cells,
        fleet=FleetConfig(n_workers=4),
    )
    report = result.report
    assert report.ok, report.summary()
    ordered = sorted(report.results, key=lambda r: r.index)
    assert [r.identity() for r in ordered] == serial_identities
    assert result.matrix.ok, result.matrix.format_report()
