"""The quarantined regression corpus: minimized counterexamples, forever.

Every failure the triage engine minimizes lands here as one CRC-sealed
JSON file per failure fingerprint — the same discipline as the campaign
journal (:mod:`repro.fleetops.journal`): a canonical-JSON CRC32 seal
over the record, a zlib+pickle payload for the cell and outcome, atomic
tmp-then-rename writes so a crash can never leave a half-written record,
and trusted-prefix semantics on load (a corrupt file is quarantined to a
``.corrupt`` sibling, never silently skipped, never fatal).

:func:`replay_corpus` is the ``corpus_replay`` runner CI sweeps: every
stored cell re-executes in process through
:meth:`~repro.fleetops.supervisor.FleetSupervisor.run`, like any
campaign's cells, and must
(a) violate the same invariant it was filed under and (b) reproduce the
stored drive fingerprint **bit for bit** — the strongest replay claim
the repo knows how to make.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fleetops.journal import _check_seal, _seal

CORPUS_VERSION = 1

#: Suffix a corrupt record is renamed to on load (quarantine, not loss).
CORRUPT_SUFFIX = ".corrupt"


class CorpusError(Exception):
    """A corpus record that cannot be trusted."""


@dataclass(frozen=True)
class CorpusRecord:
    """One minimized counterexample, sealed on disk."""

    fingerprint: str
    invariant: str
    #: The id of the harvested cell the violation was shrunk from: a
    #: ``triage:`` id, which ``parse_cell_id`` refuses rather than
    #: replaying some other drive.
    origin: str
    #: Flake label at filing time (deterministic / flaky / unreproducible).
    label: str
    #: The minimized TriageCell (re-runnable anywhere).
    cell: "object"
    #: The minimized cell's TriageOutcome at filing time.
    outcome: "object"
    #: The minimized drive's bit-exact fingerprint — replay must match.
    drive_fingerprint: Tuple
    reduction_ratio: float


def _encode(obj) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def _decode(payload: str):
    return pickle.loads(zlib.decompress(base64.b64decode(payload)))


def record_filename(fingerprint: str) -> str:
    return f"{fingerprint}.json"


def record_path(directory: str, record: CorpusRecord) -> str:
    return os.path.join(directory, record_filename(record.fingerprint))


def save_record(directory: str, record: CorpusRecord) -> str:
    """Atomically write *record* into *directory*; returns the path.

    Write-to-temp then ``os.replace`` — a reader (or a crash) sees
    either the old record or the new one, never a torn file.
    """
    os.makedirs(directory, exist_ok=True)
    sealed = _seal(
        {
            "v": CORPUS_VERSION,
            "fingerprint": record.fingerprint,
            "invariant": record.invariant,
            "origin": record.origin,
            "label": record.label,
            "reduction_ratio": record.reduction_ratio,
            "payload": _encode(
                (record.cell, record.outcome, record.drive_fingerprint)
            ),
        }
    )
    path = record_path(directory, record)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(sealed, handle, sort_keys=True, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_record(path: str) -> CorpusRecord:
    """Load and verify one sealed record; raises :class:`CorpusError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            sealed = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusError(f"unreadable corpus record {path!r}: {exc}")
    if not isinstance(sealed, dict) or not _check_seal(sealed):
        raise CorpusError(f"corpus record {path!r} fails its CRC seal")
    if sealed.get("v") != CORPUS_VERSION:
        raise CorpusError(
            f"corpus record {path!r} has version {sealed.get('v')!r}, "
            f"expected {CORPUS_VERSION}"
        )
    try:
        cell, outcome, drive_fp = _decode(sealed["payload"])
    except Exception as exc:
        raise CorpusError(f"corpus record {path!r} payload undecodable: {exc}")
    return CorpusRecord(
        fingerprint=sealed["fingerprint"],
        invariant=sealed["invariant"],
        origin=sealed["origin"],
        label=sealed["label"],
        cell=cell,
        outcome=outcome,
        drive_fingerprint=tuple(drive_fp),
        reduction_ratio=float(sealed["reduction_ratio"]),
    )


@dataclass
class CorpusState:
    """Everything a corpus sweep recovered from disk."""

    directory: str
    records: List[CorpusRecord] = field(default_factory=list)
    #: Paths quarantined this load (renamed to ``*.corrupt``).
    quarantined: List[str] = field(default_factory=list)

    @property
    def fingerprints(self) -> Tuple[str, ...]:
        return tuple(r.fingerprint for r in self.records)


def load_corpus(directory: str, quarantine: bool = True) -> CorpusState:
    """Load every record in *directory*, quarantining corrupt files.

    Records come back sorted by fingerprint (filename order), so a sweep
    is deterministic regardless of directory iteration order.
    """
    state = CorpusState(directory=directory)
    if not os.path.isdir(directory):
        return state
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            state.records.append(load_record(path))
        except CorpusError:
            if quarantine:
                os.replace(path, path + CORRUPT_SUFFIX)
            state.quarantined.append(path)
    return state


@dataclass(frozen=True)
class ReplayReport:
    """The ``corpus_replay`` sweep verdict."""

    n_records: int
    n_pass: int
    n_quarantined: int
    #: (fingerprint, why) for every record that failed to re-violate.
    failures: Tuple[Tuple[str, str], ...]

    @property
    def pass_rate(self) -> float:
        if self.n_records == 0:
            return 1.0
        return self.n_pass / self.n_records

    @property
    def ok(self) -> bool:
        return not self.failures


def replay_corpus(directory: str, quarantine: bool = True) -> ReplayReport:
    """Re-execute every corpus record and verify it still reproduces.

    A record passes when the re-run (a) violates the invariant it was
    filed under and (b) matches the stored drive fingerprint exactly.
    """
    from ..fleetops.cells import CellSpec
    from ..fleetops.supervisor import FleetSupervisor

    state = load_corpus(directory, quarantine=quarantine)
    report = FleetSupervisor().run(
        CellSpec(kind="triage", index=i, cell=record.cell)
        for i, record in enumerate(state.records)
    )
    results = {result.index: result for result in report.results}
    failures: List[Tuple[str, str]] = []
    n_pass = 0
    for i, record in enumerate(state.records):
        result = results.get(i)
        if result is None:
            detail = report.failure_details[record.cell.cell_id]
            failures.append(
                (
                    record.fingerprint,
                    f"replay raised {detail.strip().splitlines()[-1]}",
                )
            )
            continue
        outcome = result.record
        if not outcome.violated:
            failures.append(
                (record.fingerprint, "minimized cell no longer violates")
            )
        elif outcome.invariant != record.invariant:
            failures.append(
                (
                    record.fingerprint,
                    f"violates {outcome.invariant!r}, filed under "
                    f"{record.invariant!r}",
                )
            )
        elif tuple(result.fingerprint) != tuple(record.drive_fingerprint):
            failures.append(
                (record.fingerprint, "drive fingerprint diverged from filing")
            )
        else:
            n_pass += 1
    return ReplayReport(
        n_records=len(state.records),
        n_pass=n_pass,
        n_quarantined=len(state.quarantined),
        failures=tuple(failures),
    )
