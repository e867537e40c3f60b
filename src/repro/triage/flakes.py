"""Flake classification: seeded re-execution of violating cells.

A violation worth a corpus slot should be labeled before it is filed:
does it reproduce deterministically, or only under some simulation-seed
draws?  The protocol runs ``n_replicas`` executions of each violating
cell, all replicas of all cells through one
:meth:`~repro.fleetops.supervisor.FleetSupervisor.run` — in process, in
lockstep groups, or on the worker pool:

* **replica 0** is the *exact* original cell — same scene seed, same
  fault schedule, same simulation seed.  Cells are pure per spec, so
  this replica must violate; if it does not, something outside the seed
  contract is leaking and the cell is labeled ``unreproducible``.
* **replicas k > 0** perturb only the simulation seed (derived from
  ``SeedSequence((sim_seed, k, stream))``), keeping the scene and the
  fault schedule fixed.  A violation that survives every perturbation is
  ``deterministic`` — the schedule itself forces the failure.  One that
  vanishes under some draws is ``flaky`` — it needs the stochastic
  fault realizations (frame-drop coin flips, CAN loss draws) to line up.

Per-label MTTR-style stats (violation rate, first violating replica,
expected replays per reproduction) ride along for the triage report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seed-stream domain tag for flake-replica sim-seed derivation.
FLAKE_SEED_STREAM = 0xF7A4E

#: The label vocabulary, in decreasing order of reproducibility.
FLAKE_LABELS = ("deterministic", "flaky", "unreproducible")


def replica_cell(cell, k: int):
    """Replica *k* of *cell*: exact for k=0, sim-seed-perturbed after."""
    if k < 0:
        raise ValueError("replica index must be non-negative")
    if k == 0:
        return dataclasses.replace(cell, replica=0)
    perturbed = int(
        np.random.SeedSequence(
            (cell.sim_seed, k, FLAKE_SEED_STREAM)
        ).generate_state(1)[0]
    )
    return dataclasses.replace(cell, sim_seed=perturbed, replica=k)


@dataclass(frozen=True)
class FlakeClassification:
    """One cell's verdict under the re-execution protocol."""

    cell_id: str
    label: str
    n_replicas: int
    n_violating: int
    violation_rate: float
    #: Index of the first violating replica (-1: none violated).
    first_violation_replica: int
    #: MTTR-style expectation: replays needed per reproduction
    #: (``n_replicas`` when nothing reproduced).
    replays_per_violation: float
    mean_wall_s: float
    #: Worker-side tracebacks for replicas that errored instead of
    #: completing (surfaced via FleetRunReport.failure_details).
    errors: Tuple[str, ...] = ()


def classify_outcomes(
    cell_id: str,
    violated: Sequence[bool],
    walls: Sequence[float] = (),
    errors: Sequence[str] = (),
) -> FlakeClassification:
    """Pure classification from per-replica violation flags.

    ``violated[0]`` must correspond to replica 0 (the exact replay).
    """
    if not violated:
        raise ValueError("need at least one replica")
    flags = [bool(v) for v in violated]
    n = len(flags)
    n_violating = sum(flags)
    if not flags[0]:
        label = "unreproducible"
    elif n_violating == n:
        label = "deterministic"
    else:
        label = "flaky"
    first = flags.index(True) if n_violating else -1
    return FlakeClassification(
        cell_id=cell_id,
        label=label,
        n_replicas=n,
        n_violating=n_violating,
        violation_rate=n_violating / n,
        first_violation_replica=first,
        replays_per_violation=(n / n_violating) if n_violating else float(n),
        mean_wall_s=(sum(walls) / len(walls)) if walls else 0.0,
        errors=tuple(errors),
    )


def classify_flakes(
    cells: Sequence,
    n_replicas: int = 4,
    fleet=None,
) -> List[FlakeClassification]:
    """Run the re-execution protocol for every cell in *cells*.

    *fleet* is the :class:`~repro.fleetops.supervisor.FleetConfig` the
    replica grid runs under (None: the default, one worker, in
    process).  Replicas that error count as non-violating, with their
    traceback attached.
    """
    from ..fleetops.cells import CellSpec
    from ..fleetops.supervisor import FleetSupervisor

    if n_replicas < 1:
        raise ValueError("need at least one replica")
    specs: List[CellSpec] = []
    owners: Dict[str, Tuple[int, int]] = {}
    for i, cell in enumerate(cells):
        for k in range(n_replicas):
            replica = replica_cell(cell, k)
            spec = CellSpec(
                kind="triage", index=i * n_replicas + k, cell=replica
            )
            if spec.cell_id in owners:
                raise ValueError(
                    f"duplicate replica id {spec.cell_id}; classify "
                    "unique cells (dedup by fingerprint first)"
                )
            owners[spec.cell_id] = (i, k)
            specs.append(spec)

    flags: Dict[int, List[Optional[bool]]] = {
        i: [None] * n_replicas for i in range(len(cells))
    }
    walls: Dict[int, List[float]] = {i: [] for i in range(len(cells))}
    errors: Dict[int, List[str]] = {i: [] for i in range(len(cells))}
    report = FleetSupervisor(fleet).run(specs)
    for result in report.results:
        i, k = owners[result.cell_id]
        flags[i][k] = bool(result.record.violated)
        walls[i].append(result.wall_s)
    for cell_id, traceback_text in report.failure_details.items():
        i, _k = owners[cell_id]
        errors[i].append(traceback_text)

    classifications: List[FlakeClassification] = []
    for i, cell in enumerate(cells):
        per_replica = [bool(f) for f in flags[i]]  # None (lost) -> False
        classifications.append(
            classify_outcomes(
                cell.cell_id,
                per_replica,
                walls=walls[i],
                errors=errors[i],
            )
        )
    return classifications


def label_stats(
    classifications: Sequence[FlakeClassification],
) -> Dict[str, Dict[str, float]]:
    """Per-label aggregate stats for the triage report."""
    stats: Dict[str, Dict[str, float]] = {}
    for label in FLAKE_LABELS:
        members = [c for c in classifications if c.label == label]
        if not members:
            continue
        stats[label] = {
            "count": float(len(members)),
            "mean_violation_rate": (
                sum(c.violation_rate for c in members) / len(members)
            ),
            "mean_replays_per_violation": (
                sum(c.replays_per_violation for c in members) / len(members)
            ),
            "mean_wall_s": (
                sum(c.mean_wall_s for c in members) / len(members)
            ),
        }
    return stats
