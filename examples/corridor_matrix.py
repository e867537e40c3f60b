"""Corridor suite tour: drive every scenario, check every invariant.

Generates the full multi-obstacle corridor suite (slalom, narrow gap,
occluded crossing, oncoming cart, pedestrian platoon, cluttered stop,
and their sensor-degraded variants), drives each cell closed-loop under
the protected configuration, and runs the property-based safety-invariant
harness over the whole ``scenario x seed`` matrix.  Finishes with a
chaos campaign routed down one corridor, demonstrating that the chaos
sampler's fault draws compose with a corridor's own fault schedule.

The matrix runs on a four-worker fault-tolerant pool by default
(identical results cell for cell — cells are pure per spec); pass
``--serial`` to run it in process, in lockstep groups, on one worker.

Every violation the report prints carries a replay one-liner; paste it
back here to re-run that single cell, with an optional Perfetto trace
of the failing drive::

    python examples/corridor_matrix.py --cell-id invariant:slalom:1 \
        [--trace out.json]

Usage::

    python examples/corridor_matrix.py [--serial] [seed ...]
    python examples/corridor_matrix.py --cell-id <id> [--trace PATH]
"""

import sys

from repro.fleetops.supervisor import FleetConfig
from repro.robustness.chaos import ChaosConfig, run_chaos_campaign
from repro.scene.corridors import corridor_names, generate_corridor
from repro.testing.invariants import run_invariant_matrix


def replay_main(argv) -> None:
    """The ``--cell-id`` path: re-run one named cell and exit with the
    replay CLI's status (1: violations found; 2: the id is refused)."""
    from repro.triage.__main__ import main as triage_main

    args = ["replay", argv[argv.index("--cell-id") + 1]]
    if "--trace" in argv:
        args += ["--trace", argv[argv.index("--trace") + 1]]
    sys.exit(triage_main(args))


def main() -> None:
    argv = sys.argv[1:]
    if "--cell-id" in argv:
        replay_main(argv)
    serial = "--serial" in argv
    seeds = [int(s) for s in argv if s != "--serial"] or [0, 1, 2]
    fleet = FleetConfig(n_workers=1 if serial else 4)
    where = "in process" if serial else f"{fleet.n_workers} workers"
    print(f"Corridor scenario suite — seeds {seeds} ({where})")
    print("=" * 78)

    print("\n-- the suite ----------------------------------------------------")
    for name in corridor_names():
        scenario = generate_corridor(name, seed=seeds[0])
        tags = []
        if scenario.blocked:
            tags.append("blocked")
        if scenario.degraded:
            tags.append(f"faults: {scenario.fault_scenario.name}")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(
            f"  {name:<26} {len(scenario.world.obstacles)} obstacles, "
            f"{scenario.n_lanes} lane(s), {scenario.duration_s:.0f} s"
            f"{suffix}"
        )
        print(f"      {scenario.description}")

    print("\n-- invariant matrix ---------------------------------------------")
    report = run_invariant_matrix(seeds=seeds, fleet=fleet)
    print(report.format_report())

    print("\n-- chaos over a corridor ----------------------------------------")
    envelope = run_chaos_campaign(
        ChaosConfig(n_drives=12, seed=0, safety_net=True, corridor="slalom")
    ).envelope
    print(
        f"  12 chaos drives down 'slalom': "
        f"collision_rate={envelope.collision_rate:.3f} "
        f"safe_stop_rate={envelope.safe_stop_rate:.3f} "
        f"reactive/drive={envelope.mean_reactive_interventions:.2f}"
    )

    print("\nDone." if report.ok else "\nVIOLATIONS FOUND (see repro lines).")
    sys.exit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
