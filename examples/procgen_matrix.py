"""Procedural scenario tour: generate, inspect, drive, and sweep.

Samples a handful of procedurally generated scenes from the default
``ProcGenSpace`` — straight corridors, narrowing gaps, T- and 4-way
intersections with intent-driven carts, platoons, occluded crossings,
and cyclists — shows their structure, proves bit-identical regeneration,
drives one closed-loop, sweeps a small generated campaign through the
fleet engine with the invariant harness, composes a generated scene with
chaos fault draws, and finishes with the Eq. 2 mission-range frontier.

Every violation the harness prints carries a replay one-liner; paste it
back here to re-run that single generated cell serially, optionally
exporting a Perfetto trace of the failing drive::

    python examples/procgen_matrix.py --cell-id procgen:0:17:i1.0 \
        [--trace out.json]

Usage::

    python examples/procgen_matrix.py [generator_seed] [n_cells]
    python examples/procgen_matrix.py --cell-id <id> [--trace PATH]
"""

import sys

from repro.fleetops.campaign import procgen_summary, run_procgen_campaign
from repro.fleetops.supervisor import FleetConfig
from repro.robustness.chaos import ChaosConfig, run_chaos_campaign
from repro.scene.corridors import make_corridor_sov
from repro.scene.procgen import (
    DEFAULT_SPACE,
    MissionSpec,
    evaluate_mission,
    scene_checksum,
    scene_fingerprint,
)


def replay_main(argv) -> None:
    """The ``--cell-id`` path: re-run one named cell and exit with the
    replay CLI's status (1: violations found; 2: the id is refused)."""
    from repro.triage.__main__ import main as triage_main

    args = ["replay", argv[argv.index("--cell-id") + 1]]
    if "--trace" in argv:
        args += ["--trace", argv[argv.index("--trace") + 1]]
    sys.exit(triage_main(args))


def main() -> None:
    if "--cell-id" in sys.argv[1:]:
        replay_main(sys.argv[1:])
    args = [int(a) for a in sys.argv[1:]]
    generator_seed = args[0] if args else 0
    n_cells = args[1] if len(args) > 1 else 8
    print(f"Procedural scenario generator — seed {generator_seed}")
    print("=" * 78)

    print("\n-- sampled scenes -----------------------------------------------")
    for index in range(n_cells):
        scene = DEFAULT_SPACE.sample(generator_seed, index)
        regen = DEFAULT_SPACE.sample(generator_seed, index)
        assert scene_fingerprint(scene) == scene_fingerprint(regen)
        tags = ["blocked"] if scene.blocked else []
        intents = ", ".join(scene.intents) or "no agents"
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(
            f"  cell {index}: {scene.topology:<14} "
            f"{len(scene.world.obstacles)} obstacles, "
            f"{len(scene.world.agents)} agents ({intents}), "
            f"{scene.corridor_length_m:.0f} m, "
            f"crc {scene_checksum(scene):08x}{suffix}"
        )

    print("\n-- one cell closed-loop -----------------------------------------")
    scene = DEFAULT_SPACE.sample(generator_seed, 0)
    result = make_corridor_sov(scene, safety_net=True).drive(scene.duration_s)
    print(
        f"  {scene.name} cell 0: collided={result.collided} "
        f"final_mode={result.final_mode} "
        f"min_clearance={result.min_obstacle_clearance_m:.2f} m"
    )

    print("\n-- fleet campaign with invariant harness ------------------------")
    campaign = run_procgen_campaign(
        generator_seed=generator_seed,
        n_cells=n_cells,
        fleet=FleetConfig(n_workers=2),
    )
    flat = procgen_summary(campaign)
    print(
        f"  {n_cells} cells: violations={flat['violations']:.0f} "
        f"collisions={flat['collision_rate']:.3f} "
        f"checks={flat['checks_run']:.0f} "
        f"campaign_crc={campaign.campaign_checksum:08x}"
    )
    print(f"  topologies: {campaign.topology_counts}")

    print("\n-- chaos over a generated scene ---------------------------------")
    envelope = run_chaos_campaign(
        ChaosConfig(
            n_drives=6,
            seed=generator_seed,
            safety_net=True,
            corridor="procgen:crossroads",
        )
    ).envelope
    print(
        f"  6 chaos drives through generated crossroads: "
        f"collision_rate={envelope.collision_rate:.3f} "
        f"safe_stop_rate={envelope.safe_stop_rate:.3f}"
    )

    print("\n-- Eq. 2 mission-range frontier ---------------------------------")
    for pad_w in (0.0, 100.0, 175.0, 300.0, 500.0):
        outcome = evaluate_mission(
            MissionSpec(
                name=f"frontier-{pad_w:g}",
                route_length_m=0.0,
                ad_power_w=pad_w,
            )
        )
        print(
            f"  AD load {pad_w:5.0f} W -> max feasible route "
            f"{outcome.limit_route_length_m / 1000.0:6.1f} km"
        )

    ok = flat["violations"] == 0 and not result.collided
    print("\nDone." if ok else "\nVIOLATIONS FOUND (see repro lines).")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
