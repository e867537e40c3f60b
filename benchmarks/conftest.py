"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures via the
experiment harness, asserts the shape claims, and writes the paper-vs-
measured table into ``benchmarks/results.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the regenerated tables
on disk next to the timing report.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"


@pytest.fixture
def record_table():
    """Write an experiment's formatted table into the results file.

    The table replaces its own experiment's block (the one headed
    ``== <experiment_id>:``) or, if there is none, is appended; every
    other block stays byte-identical, so a partial benchmark run leaves
    the rest of the file as it was.
    """

    def _record(result) -> None:
        text = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
        blocks = [block for block in text.split("\n\n") if block]
        header = f"== {result.experiment_id}:"
        table = result.format_table()
        for i, block in enumerate(blocks):
            if block.startswith(header):
                blocks[i] = table
                break
        else:
            blocks.append(table)
        RESULTS_PATH.write_text("".join(f"{block}\n\n" for block in blocks))

    return _record
