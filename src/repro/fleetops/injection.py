"""Self-test fault injection for the fleet engine itself.

PR 1 pointed fault injection at the vehicle; this module points it at
the *campaign runner*: workers are killed mid-chunk with ``os._exit``
(no cleanup, no goodbye — the worker simply vanishes the way an OOM
kill or a segfault would take it), delayed past the straggler threshold
to trigger speculative re-execution, and the journal is truncated or
corrupted mid-record to prove crash-consistent resume.  Tests use these
hooks to demonstrate that the supervisor recovers every injected
failure with zero lost and zero duplicated cells.

The plan is declarative and picklable, so it crosses the process
boundary with the worker and keys off ``(cell_id, attempt)``: a cell
that crashes its worker on attempt 0 is expected to succeed on its
retry, exactly like a flaky host in a real fleet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

#: Exit code an injected crash dies with (distinguishable from real bugs).
INJECTED_CRASH_EXIT = 117


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Declarative worker-fault schedule, keyed by cell id.

    ``crash_cells`` name cells whose worker hard-exits mid-chunk on every
    attempt below ``crash_attempts`` (default: first attempt only, so
    the bounded retry recovers).  ``delay_cells`` map cell ids to an
    extra sleep, applied on attempts below ``delay_attempts`` — long
    enough a delay turns the cell into a straggler and provokes
    speculative re-execution.
    """

    crash_cells: Tuple[str, ...] = ()
    crash_attempts: int = 1
    delay_cells: Tuple[Tuple[str, float], ...] = ()
    delay_attempts: int = 1

    def __post_init__(self) -> None:
        if self.crash_attempts < 1:
            raise ValueError("crash_attempts must be >= 1")
        if self.delay_attempts < 1:
            raise ValueError("delay_attempts must be >= 1")

    @property
    def _delays(self) -> Dict[str, float]:
        return dict(self.delay_cells)

    def delay_for(self, cell_id: str, attempt: int) -> float:
        """Extra seconds this (cell, attempt) sleeps before running."""
        if attempt >= self.delay_attempts:
            return 0.0
        return self._delays.get(cell_id, 0.0)

    def should_crash(self, cell_id: str, attempt: int) -> bool:
        return attempt < self.crash_attempts and cell_id in self.crash_cells

    def crash_now(self) -> None:  # pragma: no cover - exits the process
        """Die the ungraceful way: no atexit, no flushing, no farewell."""
        os._exit(INJECTED_CRASH_EXIT)


# -- journal tampering ---------------------------------------------------------


def truncate_journal_tail(path: str, drop_bytes: int = 25) -> int:
    """Chop *drop_bytes* off the journal's end — a torn final record.

    Models a crash mid-append (power loss with the page half-written).
    Returns the resulting file size.
    """
    if drop_bytes <= 0:
        raise ValueError("drop_bytes must be positive")
    size = os.path.getsize(path)
    new_size = max(0, size - drop_bytes)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


def corrupt_journal_record(path: str, line_index: int = -1) -> None:
    """Flip bytes inside one journal line (bit rot / torn write).

    The line keeps its length and newline, so every *other* record still
    parses — recovery must detect the damage by checksum, not by shape.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"journal {path!r} is empty")
    target = lines[line_index]
    body = target.rstrip(b"\n")
    if len(body) < 8:
        raise ValueError("record too short to corrupt meaningfully")
    # Overwrite a mid-record span with junk of the same length.
    mid = len(body) // 2
    mangled = body[:mid] + b"#XCORRUPTX#"[: min(11, len(body) - mid)]
    mangled = mangled + body[len(mangled):]
    lines[line_index] = mangled + b"\n"
    with open(path, "wb") as fh:
        fh.writelines(lines)
