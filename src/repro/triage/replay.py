"""Serial replay of one named campaign cell, with optional tracing.

Every violation the invariant harness reports now prints a one-liner
like ``python examples/procgen_matrix.py --cell-id procgen:0:17:i1.0``.
This module is what that flag runs: rebuild the cell from its id
(:func:`repro.fleetops.cells.parse_cell_id`), execute it serially
through the same :func:`~repro.fleetops.cells.run_cell` path the
campaign used (bit-identical by the purity contract), print the verdict,
and optionally export a Perfetto trace of the cell's drive.
"""

from __future__ import annotations

from typing import Callable, Optional


def export_cell_trace(spec, trace_path: str):
    """Re-drive *spec*'s first drive with span tracing; export it as
    Chrome-trace JSON.

    The drive is built through the cell kind table, so every kind traces
    the drive its campaign ran; the tracer never touches an RNG, so the
    exported spans describe exactly that trajectory.  Returns the traced
    :class:`~repro.runtime.sov.DriveResult`.
    """
    from ..fleetops.cells import CELL_KINDS
    from ..observability.tracing import Tracer

    _context, drives = CELL_KINDS[spec.kind].build(spec.cell)
    sov, duration_s = drives[0]
    sov.attach_tracer(Tracer())
    result = sov.drive(duration_s)
    result.trace.export_json(trace_path)
    return result


def replay_cell(
    cell_id: str,
    trace_path: Optional[str] = None,
    echo: Callable[[str], None] = print,
):
    """Re-run the campaign cell named *cell_id* serially and report.

    Returns the :class:`~repro.fleetops.cells.CellResult` (bit-identical
    to what the campaign computed for this id).  With *trace_path*, also
    exports a Perfetto trace of the drive.
    """
    from ..fleetops.cells import parse_cell_id, run_cell

    spec = parse_cell_id(cell_id)
    echo(f"replaying {cell_id} (kind={spec.kind}, serial) ...")
    result = run_cell(spec)
    echo(
        "  "
        + " ".join(
            f"{key}={value:g}" for key, value in sorted(result.summary.items())
        )
    )
    violations = getattr(result.record, "violations", ())
    if violations:
        for violation in violations:
            echo(f"  VIOLATION {violation.invariant}: {violation.detail}")
    elif hasattr(result.record, "violations"):
        checked = getattr(result.record, "checked", ())
        echo(f"  all invariants hold ({', '.join(checked)})")
    echo(f"  drive fingerprint: {len(result.fingerprint)} fields, stable")
    if trace_path is not None:
        export_cell_trace(spec, trace_path)
        echo(f"  trace exported: {trace_path} (open in Perfetto)")
    return result
