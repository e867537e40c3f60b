"""Golden drive digests: absolute values pinned for both engines.

The differential matrix compares the scalar loop with the lockstep
stepper, and both share :class:`~repro.runtime.sov.DriveLoop`, so a
change to the loop itself passes it.  This table pins what each drive
computes: a CRC32 over its :func:`drive_fingerprint`, the energy the
operations log counted and the battery's remaining charge (the two
values the fingerprint leaves out).  Each drive is checked through
``SystemsOnAVehicle.drive`` and through one ``drive_batch`` group.

The drives cover the ten corridors (moving agents, reactive overrides
and holds), chaos draws with steering bias, CAN loss and delay,
perception stalls and latency spikes, and one generated scene whose
agents follow scripts (``ScriptedWorld``).

The table changes only with an intended behaviour change; print a new
one with ``PYTHONPATH=src python tests/runtime/test_drive_digests.py``.
The values hold for CPython 3.10 and later: ``math.hypot``, which every
sub-step calls for distance and clearance, has rounded differently
since 3.10 (on 3.9 about a third of its results differ), so on 3.9
the file is skipped and the differential tests still hold the two
engines to each other.
"""

from __future__ import annotations

import sys
import zlib
from typing import Callable, Dict, List, Tuple

import pytest

from repro.robustness.chaos import ChaosConfig, build_chaos_drive
from repro.runtime.batched import drive_batch
from repro.scene.corridors import (
    corridor_names,
    generate_corridor,
    make_corridor_sov,
)
from repro.scene.procgen import DEFAULT_SPACE, ScriptedWorld
from repro.testing.invariants import drive_fingerprint

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="digests pin CPython 3.10+ math.hypot rounding",
)

#: Every drive's simulated length: long enough for the reactive
#: overrides and holds, and not a multiple of the 0.1-s control period,
#: so each drive ends between two control ticks.
DRIVE_S = 7.05

#: Chaos draws of the default drill lane, by drive index: 22 CAN loss
#: with a 7-ms delay; 30 CAN loss plus a perception stall; 37 a stall
#: plus latency spikes; 47 a steering bias inside a CAN-loss window.
_DRILL_DRAWS = (22, 30, 37, 47)
#: A steering bias under a camera dropout on the oncoming-agent corridor.
_CORRIDOR_DRAW = ("oncoming_agent", 94)


def _corridor(name: str):
    return make_corridor_sov(generate_corridor(name, 0))


def _chaos(config: ChaosConfig, index: int):
    _scenario, sov, _duration_s = build_chaos_drive(config, index)
    return sov


def _procgen(index: int):
    scenario = DEFAULT_SPACE.sample(0, index)
    assert isinstance(scenario.world, ScriptedWorld)
    assert scenario.world.scripts
    return make_corridor_sov(scenario)


def _drives() -> List[Tuple[str, Callable]]:
    drives: List[Tuple[str, Callable]] = [
        (f"corridor:{name}", lambda name=name: _corridor(name))
        for name in corridor_names()
    ]
    drill = ChaosConfig(n_drives=100)
    drives += [
        (f"chaos:drill-lane:{i}", lambda i=i: _chaos(drill, i))
        for i in _DRILL_DRAWS
    ]
    corridor, index = _CORRIDOR_DRAW
    drives.append(
        (
            f"chaos:{corridor}:{index}",
            lambda: _chaos(ChaosConfig(n_drives=100, corridor=corridor), index),
        )
    )
    drives.append(("procgen:0:1", lambda: _procgen(1)))
    return drives


def _digest(sov, result) -> int:
    payload = (drive_fingerprint(result), result.ops.energy_j, sov.battery.charge_j)
    return zlib.crc32(repr(payload).encode("utf-8"))


#: Written from the loop as it was before its sub-steps stopped
#: allocating; every engine must keep reproducing it.
DIGESTS: Dict[str, int] = {
    "corridor:cluttered_stop": 0x3EBD9675,
    "corridor:cluttered_stop_lossy_can": 0xB066F307,
    "corridor:narrow_gap": 0xBD6FC071,
    "corridor:narrow_gap_gps_denied": 0x5285A209,
    "corridor:occluded_crossing": 0xEE868759,
    "corridor:occluded_crossing_stalled": 0xABCEB627,
    "corridor:oncoming_agent": 0x86F5E918,
    "corridor:pedestrian_platoon": 0x637D769E,
    "corridor:slalom": 0x32CDA390,
    "corridor:slalom_flaky_camera": 0x9F4328FE,
    "chaos:drill-lane:22": 0x495A443E,
    "chaos:drill-lane:30": 0x04440558,
    "chaos:drill-lane:37": 0x350BDD44,
    "chaos:drill-lane:47": 0xDF007DF2,
    "chaos:oncoming_agent:94": 0x517AB20D,
    "procgen:0:1": 0x19789F5C,
}

DRIVES = _drives()


@pytest.mark.parametrize("drive_id, build", DRIVES, ids=[d for d, _ in DRIVES])
def test_scalar_drive_matches_digest(drive_id, build):
    sov = build()
    assert _digest(sov, sov.drive(DRIVE_S)) == DIGESTS[drive_id]


def test_lockstep_group_matches_digests():
    sovs = [build() for _drive_id, build in DRIVES]
    results = drive_batch(sovs, [DRIVE_S] * len(sovs))
    digests = {
        drive_id: _digest(sov, result)
        for (drive_id, _build), sov, result in zip(DRIVES, sovs, results)
    }
    assert digests == DIGESTS
    # What the table covers: every fault kind the loop's sub-steps read,
    # and the reactive path both braking and holding.
    injected = set()
    for result in results:
        injected.update(result.ops.faults_injected)
    assert {"steering_bias", "perception_stall", "latency_spike"} <= injected
    assert any(r.ops.can_frames_dropped for r in results)
    assert any(r.ops.reactive_overrides for r in results)
    assert any(r.ops.reactive_holds for r in results)


if __name__ == "__main__":
    for drive_id, build in DRIVES:
        sov = build()
        print(f'    "{drive_id}": 0x{_digest(sov, sov.drive(DRIVE_S)):08X},')
