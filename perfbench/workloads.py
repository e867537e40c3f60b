"""The benchmark's two closed-loop workloads and their output checks.

Inputs are a pool of ``POOL`` drives made from the workload seed.  Pool
drive ``i`` runs corridor ``corridor_names()[(i % GROUP) % 10]`` with
simulation seed ``drive_seed(seed, i)``, so every group of ``GROUP``
consecutive drives holds the same corridor mix (all ten corridors, then
the first six again) and the groups cost about the same.  A timed phase
runs whole groups, cycling through the pool, until ``--seconds`` have
passed (give or take half a group) and at least ``MIN_GROUPS`` groups
ran.

* ``lockstep`` drives a group through ``repro.runtime.batched.drive_batch``
  (N = ``GROUP``).
* ``fleet`` runs a group of chaos cells, one ``ChaosConfig`` per
  corridor, through ``FleetSupervisor(FleetConfig(n_workers=2)).run``;
  each worker drives its cells one at a time (N = 1).

An operation is a drive (a cell in ``fleet``).  It fails if it raises, if
its digest differs from the pinned one, or if the same pool drive gives a
different digest when the pool comes round again.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleetops import cells, supervisor
from repro.robustness.chaos import ChaosConfig
from repro.runtime import batched
from repro.runtime.sov import SovConfig
from repro.scene import corridors, providers
from repro.testing import invariants

from layertrace import Recorder

#: Drives per group: the lockstep stepper's N.
GROUP = 16
#: Groups before the pool repeats (the pinned table covers all of them).
POOL_GROUPS = 5
POOL = GROUP * POOL_GROUPS
#: Fewest groups a timed phase runs, whatever ``--seconds`` says: three
#: fleet groups give 48 cell samples, twelve beyond the 75th percentile.
MIN_GROUPS = 3
#: Fixed on every host, so the fleet workload is the same everywhere.
N_WORKERS = 2
#: Simulated seconds of each warm-up drive (one per corridor).
WARMUP_DRIVE_S = 1.0
#: Position of ``ops.control_ticks`` in ``drive_fingerprint``.
_TICKS_FIELD = 4

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def drive_seed(seed: int, index: int) -> int:
    """Simulation seed of pool drive *index* under workload *seed*."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def corridor_for(index: int) -> str:
    names = corridors.corridor_names()
    return names[(index % GROUP) % len(names)]


def group_indices(group: int) -> range:
    """Pool indices of the *group*-th group a phase runs."""
    base = (group % POOL_GROUPS) * GROUP
    return range(base, base + GROUP)


def build_drive(seed: int, index: int):
    """Pool drive *index*: ``resolve_scene`` + ``make_corridor_sov``."""
    scenario = providers.resolve_scene(corridor_for(index), drive_seed(seed, index))
    sov = corridors.make_corridor_sov(scenario, safety_net=True)
    sov.enable_attribution()
    return scenario, sov


def digest(fingerprint: Tuple) -> int:
    """CRC32 of ``repr(drive_fingerprint(result))``."""
    return zlib.crc32(repr(fingerprint).encode("utf-8"))


def load_pins(seed: int) -> Optional[Dict[str, List[int]]]:
    """The pinned digests for *seed*, or None when the seed is not pinned."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["seeds"].get(str(seed))


class Verifier:
    """Checks each output against its pin and against its earlier runs."""

    def __init__(self, pins: Optional[Sequence[int]]) -> None:
        self.pins = pins
        self.seen: Dict[int, int] = {}

    def ok(self, key: int, value: int) -> bool:
        first = self.seen.setdefault(key, value)
        return value == first and (self.pins is None or self.pins[key] == value)


@dataclass
class Phase:
    """What one timed phase did."""

    attempted: int = 0
    failed: int = 0
    ticks: int = 0
    wall_s: float = 0.0
    #: Host seconds per drive: each cell's ``CellResult.wall_s`` in
    #: ``fleet``; in ``lockstep``, whose drives interleave, the batch time
    #: over ``GROUP``.
    drive_s: List[float] = field(default_factory=list)
    #: Host seconds per group: one ``drive_batch`` with its 16 SoVs built,
    #: or one ``FleetSupervisor.run``.
    batch_s: List[float] = field(default_factory=list)
    #: ``fleet`` only: supervisor wall time and worker time spent in cells.
    pool_wall_s: float = 0.0
    pool_busy_s: float = 0.0
    retries: int = 0
    speculative_launches: int = 0


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


class _Workload:
    """Shared warm-up, verification and the timed loop."""

    name = ""
    pins_key = ""

    def __init__(self, seed: int, pins: Optional[Dict[str, List[int]]]) -> None:
        self.seed = seed
        self.pinned = pins is not None
        self.verifier = Verifier(None if pins is None else pins[self.pins_key])

    def warm_up_sovs(self) -> list:
        """One short drive per corridor, on seeds outside the pool."""
        return [
            build_drive(self.seed, POOL + j)
            for j in range(len(corridors.corridor_names()))
        ]

    def warm_up(self) -> None:
        for _scenario, sov in self.warm_up_sovs():
            sov.drive(WARMUP_DRIVE_S)

    def timed(self, seconds: float) -> Phase:
        """Whole groups for about *seconds*: another group starts only if
        it would end nearer the deadline than stopping now would."""
        phase = Phase()
        start = time.perf_counter()
        group = 0
        while True:
            self.run_group(group, phase)
            group += 1
            elapsed = time.perf_counter() - start
            if group >= MIN_GROUPS and elapsed + elapsed / group / 2 >= seconds:
                break
        phase.wall_s = time.perf_counter() - start
        return phase

    def run_group(self, group: int, phase: Phase) -> None:
        raise NotImplementedError

    def traced_group(self, recorder: Recorder) -> Tuple[float, Dict[int, int]]:
        """Group 0 with its spans in *recorder*: ``(busy seconds, digests)``.

        Spans of the program's layers are recorded only while
        :func:`layertrace.traced` is active; without it this is the
        untraced baseline of the same work.
        """
        raise NotImplementedError


class Lockstep(_Workload):
    """Sixteen drives at a time through ``drive_batch``."""

    name = "lockstep"
    pins_key = "drives"

    def warm_up(self) -> None:
        """The warm-up drives as one batch, which also fills the SceneCache."""
        sovs = [sov for _scenario, sov in self.warm_up_sovs()]
        batched.drive_batch(sovs, [WARMUP_DRIVE_S] * len(sovs))

    def check(self, index: int, scenario, result) -> bool:
        """Pin/repeat digest plus the tick count the duration implies."""
        expected_ticks = round(scenario.duration_s * SovConfig.control_rate_hz)
        good = self.verifier.ok(index, digest(invariants.drive_fingerprint(result)))
        return good and result.ops.control_ticks == expected_ticks

    def _batch(self, indices: range, recorder: Optional[Recorder] = None):
        built = [build_drive(self.seed, index) for index in indices]
        if recorder is not None:
            # The objects the stepper calls outside a drive's own
            # begin_step/finish_step (whose children inherit the drive).
            for index, (_scenario, sov) in zip(indices, built):
                recorder.register(
                    index, sov, sov.planner, sov.can_bus, sov.attributor,
                    sov.dataflow,
                )
        results = batched.drive_batch(
            [sov for _scenario, sov in built],
            [scenario.duration_s for scenario, _sov in built],
        )
        return [scenario for scenario, _sov in built], results

    def run_group(self, group: int, phase: Phase) -> None:
        indices = group_indices(group)
        phase.attempted += len(indices)
        start = time.perf_counter()
        try:
            scenarios, results = self._batch(indices)
        except Exception:
            _report_error(f"lockstep batch {group}")
            phase.failed += len(indices)
            return
        elapsed = time.perf_counter() - start
        phase.batch_s.append(elapsed)
        phase.drive_s.append(elapsed / len(indices))
        for index, scenario, result in zip(indices, scenarios, results):
            phase.ticks += result.ops.control_ticks
            if not self.check(index, scenario, result):
                phase.failed += 1

    def traced_group(self, recorder: Recorder) -> Tuple[float, Dict[int, int]]:
        indices = group_indices(0)
        start = time.perf_counter()
        with recorder.span("bench.group"):
            _scenarios, results = self._batch(indices, recorder)
        busy = time.perf_counter() - start
        return busy, {
            index: digest(invariants.drive_fingerprint(result))
            for index, result in zip(indices, results)
        }


class Fleet(_Workload):
    """Chaos cells on the supervised two-worker pool."""

    name = "fleet"
    pins_key = "fleet_groups"

    def __init__(self, seed: int, pins: Optional[Dict[str, List[int]]]) -> None:
        super().__init__(seed, pins)
        self.configs = {
            name: ChaosConfig(n_drives=POOL, seed=seed, corridor=name)
            for name in corridors.corridor_names()
        }
        self.supervisor = supervisor.FleetSupervisor(
            supervisor.FleetConfig(n_workers=N_WORKERS)
        )

    def specs(self, group: int) -> List[cells.CellSpec]:
        return [
            cells.CellSpec(
                kind="chaos",
                index=position,
                cell=cells.ChaosCell(
                    config=self.configs[corridor_for(index)], drive_index=index
                ),
            )
            for position, index in enumerate(group_indices(group))
        ]

    def run_group(self, group: int, phase: Phase) -> None:
        specs = self.specs(group)
        phase.attempted += len(specs)
        start = time.perf_counter()
        try:
            report = self.supervisor.run(specs)
        except Exception:
            _report_error(f"fleet group {group}")
            phase.failed += len(specs)
            return
        elapsed = time.perf_counter() - start
        bad = len(report.failed_cells) + report.lost_cells + report.duplicate_cells
        # The campaign CRC checks the group as one unit: on a mismatch no
        # cell of the group counts as verified.
        crc = cells.campaign_crc(report.results)
        if not self.verifier.ok(group % POOL_GROUPS, crc):
            bad = len(specs)
        phase.failed += min(bad, len(specs))
        phase.batch_s.append(elapsed)
        phase.drive_s.extend(r.wall_s for r in report.results)
        phase.ticks += sum(r.fingerprint[_TICKS_FIELD] for r in report.results)
        phase.pool_wall_s += report.wall_s
        phase.pool_busy_s += sum(r.wall_s for r in report.results)
        phase.retries += report.retries
        phase.speculative_launches += report.speculative_launches

    def traced_group(self, recorder: Recorder) -> Tuple[float, Dict[int, int]]:
        """Group 0 in-process through ``run_cell``, one drive at a time:
        worker-side spans cannot be collected from outside the pool."""
        results = []
        for spec in self.specs(0):
            with recorder.span("bench.drive", drive=spec.cell.drive_index):
                results.append(cells.run_cell(spec))
        busy = sum(r.wall_s for r in results)
        return busy, {0: cells.campaign_crc(results)}


def make(workload: str, seed: int) -> _Workload:
    classes = {cls.name: cls for cls in (Lockstep, Fleet)}
    return classes[workload](seed, load_pins(seed))
