"""Batched campaign: the cell executor vs the scalar reference drive.

Runs one chaos campaign twice — each cell alone through the scalar
``SystemsOnAVehicle.drive`` (``run_chaos_drive``, the reference), then
every cell through ``run_cells``, the executor every campaign uses,
which advances each lockstep group of cells through the vectorized
multi-drive stepper (``repro.runtime.batched``).  Proves the executor is
an *execution strategy*, not a semantic change: every cell's drive
fingerprint must match the reference bit for bit; exits non-zero on any
mismatch, and prints the wall-clock speedup.

Usage::

    python examples/batched_campaign.py [n_cells]
    python examples/batched_campaign.py 24    # CI smoke mode
"""

import sys
import time

from repro.fleetops.cells import campaign_crc, chaos_cells, run_cells
from repro.robustness.chaos import ChaosConfig, run_chaos_drive
from repro.testing.invariants import drive_fingerprint

SEED = 0
DURATION_S = 2.0


def main() -> None:
    n_cells = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    config = ChaosConfig(
        n_drives=n_cells, seed=SEED, duration_s=DURATION_S, safety_net=True
    )
    print(f"Batched campaign — {n_cells} chaos cells, scalar vs executor")
    print("=" * 78)

    started = time.perf_counter()
    reference = [
        drive_fingerprint(run_chaos_drive(config, index)[1])
        for index in range(n_cells)
    ]
    scalar_wall = time.perf_counter() - started
    print(f"\nscalar drive: {n_cells} cells in {scalar_wall:.2f} s")

    started = time.perf_counter()
    results = run_cells(chaos_cells(config))
    batched_wall = time.perf_counter() - started
    print(f"run_cells:    {n_cells} cells in {batched_wall:.2f} s")
    if batched_wall > 0:
        print(f"speedup: {scalar_wall / batched_wall:.2f}x")

    mismatched = [
        result.cell_id
        for result, fingerprint in zip(results, reference)
        if result.fingerprint != fingerprint
    ]
    print(f"\ncampaign CRC: {campaign_crc(results):#010x}")
    print(
        f"drive fingerprints matching the scalar reference: "
        f"{n_cells - len(mismatched)}/{n_cells}"
    )
    if mismatched or len(results) != n_cells:
        raise SystemExit(f"run_cells diverged from scalar: {mismatched}")
    print("\nOK — run_cells changed how drives ran, not what they computed")


if __name__ == "__main__":
    main()
