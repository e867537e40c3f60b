"""Chaos sweep: randomized fault campaigns and the safety frontier.

Samples seeded random fault scenarios from the nominal fault space and
drives each through the closed-loop SoV with and without the safety net,
then bisects the fault-intensity dial until the net leaks a collision.
Prints the collision-free envelope — collision/SAFE_STOP rates, mode
residency, MTTR percentiles, shed work, the Eq. 1 deadline-miss
attribution table — plus a replay of the first unprotected failure from
its cell id alone, with and without the net.

Usage::

    python examples/chaos_sweep.py [n_drives]
"""

import sys

from repro.fleetops.cells import parse_cell_id, run_cell
from repro.robustness.chaos import (
    ChaosConfig,
    adaptive_intensity_frontier,
    run_chaos_campaign,
)

SEED = 0


def main() -> None:
    n_drives = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    print(
        f"Chaos sweep — {n_drives} seeded random fault scenarios, "
        "obstacle 25 m ahead, 5.6 m/s"
    )
    print("=" * 78)

    protected = run_chaos_campaign(
        ChaosConfig(n_drives=n_drives, seed=SEED, safety_net=True)
    ).envelope
    unprotected = run_chaos_campaign(
        ChaosConfig(n_drives=n_drives, seed=SEED, safety_net=False)
    ).envelope

    print("\nwith safety net:")
    print(
        f"  collisions {protected.collisions}/{protected.n_drives}"
        f"  safe-stops {protected.safe_stop_rate:.1%}"
        f"  reactive triggers/drive "
        f"{protected.mean_reactive_interventions:.1f}"
    )
    residency = ", ".join(
        f"{mode} {frac:.1%}"
        for mode, frac in sorted(protected.mode_residency_mean.items())
        if frac > 0
    )
    print(f"  mode residency: {residency}")
    print(
        f"  MTTR p50/p90/p99: {protected.mttr_p50_s:.2f}/"
        f"{protected.mttr_p90_s:.2f}/{protected.mttr_p99_s:.2f} s"
        f"   restarts {dict(sorted(protected.restarts_by_module.items()))}"
    )
    print(
        f"  shed task slots: {dict(sorted(protected.sheds_by_mode.items()))}"
    )
    print("\nwithout safety net:")
    print(
        f"  collisions {unprotected.collisions}/{unprotected.n_drives}"
        f"  ({unprotected.collision_rate:.1%})"
        f"  failing drives {list(unprotected.failing_indices)[:8]}"
    )

    if unprotected.failing_indices:
        index = unprotected.failing_indices[0]
        print(f"\nreplay of failing drive {index} by cell id:")
        for arm in ("raw", "net"):
            cell_id = f"chaos:drill-lane:{SEED}:{index}:{arm}"
            record = run_cell(parse_cell_id(cell_id)).record
            print(
                f"  {cell_id} ({' + '.join(record.fault_kinds)}): "
                f"collided={record.collided}, "
                f"clearance {record.min_clearance_m:.2f} m, "
                f"final mode {record.final_mode}"
            )

    if protected.attribution is not None and protected.deadline_misses:
        print("\ndeadline-miss attribution (Eq. 1 budget, protected arm):")
        for line in protected.attribution.format_table().splitlines():
            print(f"  {line}")

    print("\nfault-intensity frontier (safety net engaged, bisection):")
    points, frontier = adaptive_intensity_frontier(
        n_drives=max(12, n_drives // 4)
    )
    for p in points:
        print(
            f"  intensity {p.intensity:.2f}: "
            f"{p.collisions}/{p.n_drives} collisions, "
            f"safe-stops {p.safe_stop_rate:.1%}"
        )
    print(
        "  frontier: "
        + (
            "not reached in this bracket"
            if frontier is None
            else f"net first leaks at intensity {frontier:.2f}"
        )
    )


if __name__ == "__main__":
    main()
