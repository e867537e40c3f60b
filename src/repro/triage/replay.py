"""Serial replay of one named campaign cell, with optional tracing.

Every violation the invariant harness reports now prints a one-liner
like ``python examples/procgen_matrix.py --cell-id procgen:0:17:i1``.
This module is what that flag runs: rebuild the cell from its id
(:func:`repro.fleetops.cells.parse_cell_id`), execute it serially
through the same :func:`~repro.fleetops.cells.run_cell` path the
campaign used (bit-identical by the purity contract), print the verdict,
and — for cell kinds whose drive we can rebuild — export a Perfetto
trace of the failing drive.
"""

from __future__ import annotations

from typing import Callable, Optional


def export_cell_trace(spec, trace_path: str) -> bool:
    """Re-drive *spec* with span tracing and export Chrome-trace JSON.

    Supported for ``invariant`` and ``procgen`` cells (the kinds whose
    ids the violation reports print); returns False for kinds whose
    drive construction is owned elsewhere.  The traced drive uses the
    identical seeds — the tracer never touches an RNG — so the exported
    spans describe exactly the campaign's failing trajectory.
    """
    from ..scene.corridors import make_corridor_sov
    from ..scene.providers import resolve_scene

    cell = spec.cell
    budget_s = None
    if spec.kind == "invariant":
        scenario = resolve_scene(cell.name, cell.seed)
        budget_s = cell.deadline_budget_s
    elif spec.kind == "procgen":
        scenario = cell.space.sample(cell.generator_seed, cell.cell_index)
    else:
        return False
    sov = make_corridor_sov(scenario, safety_net=True, tracing_enabled=True)
    sov.enable_attribution(budget_s)
    result = sov.drive(scenario.duration_s)
    assert result.trace is not None
    result.trace.export_json(trace_path)
    return True


def replay_cell(
    cell_id: str,
    trace_path: Optional[str] = None,
    echo: Callable[[str], None] = print,
):
    """Re-run the campaign cell named *cell_id* serially and report.

    Returns the :class:`~repro.fleetops.cells.CellResult` (bit-identical
    to what the campaign computed for this id).  With *trace_path*, also
    exports a Perfetto trace of the drive when the kind supports it.
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
        if export_cell_trace(spec, trace_path):
            echo(f"  trace exported: {trace_path} (open in Perfetto)")
        else:
            echo(
                f"  (trace export not supported for {spec.kind!r} cells; "
                "replay verdict above is still bit-exact)"
            )
    return result
