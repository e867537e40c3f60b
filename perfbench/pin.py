"""Regenerate ``pins.json``: the digests every workload must reproduce.

Run it only for a change that is meant to alter drive outputs::

    python3 perfbench/pin.py

Drives run one at a time through ``SystemsOnAVehicle.drive`` and chaos
cells in-process through ``run_cell``: the pins come from the serial
reference paths, and the lockstep stepper and the fleet pool are checked
against them.
"""

from __future__ import annotations

import json
import sys

from run import SRC

#: The default seed and one held-out seed.
PINNED_SEEDS = (0, 1)


def pins_for(seed: int) -> dict:
    import workloads
    from repro.fleetops import cells
    from repro.testing import invariants

    drives = []
    for index in range(workloads.POOL):
        scenario, sov = workloads.build_drive(seed, index)
        result = sov.drive(scenario.duration_s)
        drives.append(workloads.digest(invariants.drive_fingerprint(result)))
    fleet = workloads.Fleet(seed, None)
    groups = [
        cells.campaign_crc([cells.run_cell(spec) for spec in fleet.specs(g)])
        for g in range(workloads.POOL_GROUPS)
    ]
    return {"drives": drives, "fleet_groups": groups}


def write_pins(table: dict, path) -> None:
    """``table`` as JSON with one line per pinned seed."""
    seeds = ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(pins)}"
        for seed, pins in table["seeds"].items()
    )
    header = {key: value for key, value in table.items() if key != "seeds"}
    head = json.dumps(header, indent=1)[:-2]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{head},\n "seeds": {{\n{seeds}\n }}\n}}\n')


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    table = {
        "digest": "zlib.crc32(repr(drive_fingerprint(result)))",
        "fleet_groups": "repro.fleetops.cells.campaign_crc of each group",
        "seeds": {str(seed): pins_for(seed) for seed in PINNED_SEEDS},
    }
    write_pins(table, workloads.PINS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
