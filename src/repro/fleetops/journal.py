"""Crash-consistent append-only campaign journal (``journal.jsonl``).

The journal is the fleet engine's checkpoint/resume substrate: every
completed cell is appended as one self-checksummed JSON line, flushed
and fsynced before the supervisor considers the cell done.
A campaign killed at any instant — mid-line included — therefore leaves
a journal that is a *valid prefix* of its history, and resuming replays
exactly the cells that are missing: no cell is lost, no cell is counted
twice.

Record format (one JSON object per line)::

    {"v": 1, "type": "header", "campaign": <sig>, "n_cells": N, "meta": {...}, "crc": C}
    {"v": 1, "type": "cell", "cell_id": ..., "index": ..., "kind": ...,
     "attempt": ..., "worker": ..., "summary": {...}, "payload": <b64>, "crc": C}

``crc`` is the CRC32 of the record's canonical JSON with the ``crc`` key
removed; ``payload`` is the zlib-compressed pickle of the full
:class:`~repro.fleetops.cells.CellResult` (every campaign dataclass is
picklable by contract — see ``tests/fleetops/test_cells.py``).  Reading
stops at the first record that fails to parse or checksum: everything
before it is trusted, the broken tail is dropped and counted, and the
supervisor re-runs exactly those dropped cells.  Duplicate ``cell_id``
lines (a speculative double-completion racing a crash) keep the first
occurrence — first result wins, the same rule the supervisor applies
in memory.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from .cells import CellResult, CellSpec

#: Journal format version (bump on incompatible record changes).
JOURNAL_VERSION = 1


def campaign_signature(specs: Sequence[CellSpec]) -> str:
    """A stable identity for a cell grid: resume refuses a mismatch."""
    joined = "\n".join(spec.cell_id for spec in specs)
    return f"{len(specs)}:{zlib.crc32(joined.encode('utf-8')):08x}"


def _canonical(record: Dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _seal(record: Dict) -> Dict:
    record = dict(record)
    record.pop("crc", None)
    record["crc"] = zlib.crc32(_canonical(record))
    return record


def _check_seal(record: Dict) -> bool:
    if "crc" not in record:
        return False
    body = dict(record)
    crc = body.pop("crc")
    return isinstance(crc, int) and zlib.crc32(_canonical(body)) == crc


def _encode_result(result: CellResult) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def _decode_result(payload: str) -> CellResult:
    return pickle.loads(zlib.decompress(base64.b64decode(payload)))


@dataclass
class JournalState:
    """Everything a resume needs, recovered from a journal file."""

    path: str
    header: Optional[Dict] = None
    results: Dict[str, CellResult] = field(default_factory=dict)
    lines_read: int = 0
    #: Duplicate cell lines dropped (first occurrence kept).
    duplicates_dropped: int = 0
    #: Trailing lines dropped as corrupt/truncated (crash tail).
    tail_dropped: int = 0
    #: Byte length of the trusted prefix; a resume truncates the file
    #: here before appending, so the torn tail never shadows new records.
    valid_bytes: int = 0

    @property
    def campaign(self) -> Optional[str]:
        if self.header is None:
            return None
        return self.header.get("campaign")


class CampaignJournal:
    """Single-writer append-only journal for one campaign run."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    # -- writing ---------------------------------------------------------------

    def _append(self, record: Dict) -> None:
        line = json.dumps(_seal(record), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write_header(
        self,
        campaign: str,
        n_cells: int,
        meta: Optional[Dict] = None,
    ) -> None:
        self._append(
            {
                "v": JOURNAL_VERSION,
                "type": "header",
                "campaign": campaign,
                "n_cells": n_cells,
                "meta": meta or {},
            }
        )

    def append_cell(
        self, result: CellResult, attempt: int = 0, worker: int = -1
    ) -> None:
        """Checkpoint one completed cell (flushed before returning)."""
        self._append(
            {
                "v": JOURNAL_VERSION,
                "type": "cell",
                "cell_id": result.cell_id,
                "index": result.index,
                "kind": result.kind,
                "attempt": attempt,
                "worker": worker,
                "summary": {
                    k: result.summary[k] for k in sorted(result.summary)
                },
                "payload": _encode_result(result),
            }
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(path: str) -> JournalState:
    """Recover a journal, trusting the longest valid prefix.

    Any line that fails JSON parsing, checksum validation, or payload
    decoding ends the trusted prefix: it and every later line are
    dropped (``tail_dropped``), exactly as a crash mid-append would
    leave them.  Within the prefix, duplicate ``cell_id`` records keep
    the first occurrence.
    """
    state = JournalState(path=path)
    if not os.path.exists(path):
        return state
    with open(path, "rb") as fh:
        raw_lines = fh.readlines()
    offset = 0
    for lineno, raw in enumerate(raw_lines):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            # A bare newline can only be a torn write: stop trusting here.
            state.tail_dropped = len(raw_lines) - lineno
            break
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            state.tail_dropped = len(raw_lines) - lineno
            break
        if not isinstance(record, dict) or not _check_seal(record):
            state.tail_dropped = len(raw_lines) - lineno
            break
        if record.get("v") != JOURNAL_VERSION:
            state.tail_dropped = len(raw_lines) - lineno
            break
        rtype = record.get("type")
        if rtype == "header":
            if state.header is None:
                state.header = record
        elif rtype == "cell":
            try:
                result = _decode_result(record["payload"])
            except Exception:
                state.tail_dropped = len(raw_lines) - lineno
                break
            if result.cell_id in state.results:
                state.duplicates_dropped += 1
            else:
                state.results[result.cell_id] = result
        else:
            state.tail_dropped = len(raw_lines) - lineno
            break
        state.lines_read += 1
        offset += len(raw)
        state.valid_bytes = offset
    return state


def truncate_to_valid_prefix(state: JournalState) -> None:
    """Physically drop a recovered journal's torn tail before appending."""
    if state.tail_dropped <= 0:
        return
    with open(state.path, "r+b") as fh:
        fh.truncate(state.valid_bytes)
