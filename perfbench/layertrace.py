"""Outside-in layer tracing: wrap each layer's public calls, record spans.

The program under test is never edited.  :func:`traced` patches class and
module attributes so that the program's own call sites reach a timing
wrapper, and puts every original back when it exits.  Patching the class
(``MpcPlanner.plan``), not the instance, keeps ``type(planner) is
MpcPlanner`` true, so the batched stepper's fast-path test is not
diverted.  A module-level function is patched in every loaded ``repro``
module that bound it by name (``from ..scene.cache import cache_for``).

Per-rollout-step functions such as ``BicycleModel.step`` are not wrapped:
they run hundreds of thousands of times per drive group, and the wrapper
would dominate what it measures.

Spans are kept in memory (name, start, end, parent span, drive, work
count) and written at the end as Chrome trace_event JSON, which Perfetto
opens.  A span's self time is its duration minus its children's: one
thread runs the program, so children nest inside their parent and never
overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(module, attribute, layer, measure)``.  ``measure(args)`` gives the
#: work a call carries: requests per ``plan_requests`` call, candidate rows
#: per ``rollout_batch`` call.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.planning.mpc", "MpcPlanner.plan", "planning.plan", None),
    (
        "repro.runtime.batched",
        "plan_requests",
        "batched.plan_requests",
        lambda args: len(args[0]),
    ),
    ("repro.runtime.batched", "drive_batch", "batched.drive_batch", None),
    (
        "repro.runtime.kernels",
        "rollout_batch",
        "kernels.rollout_batch",
        lambda args: len(args[1]),
    ),
    ("repro.runtime.kernels", "collision_batch", "kernels.collision_batch", None),
    ("repro.runtime.kernels", "cost_batch", "kernels.cost_batch", None),
    ("repro.runtime.sov", "DriveLoop.begin_step", "sov.begin_step", None),
    ("repro.runtime.sov", "DriveLoop.finish_step", "sov.finish_step", None),
    ("repro.runtime.sov", "SystemsOnAVehicle.drive", "sov.drive", None),
    ("repro.scene.world", "World.advance", "scene.world_advance", None),
    ("repro.scene.providers", "resolve_scene", "scene.resolve_scene", None),
    ("repro.scene.corridors", "make_corridor_sov", "scene.make_corridor_sov", None),
    ("repro.scene.cache", "cache_for", "scene.cache_for", None),
    # Runs only on a cache miss, so its call count is the miss count.
    ("repro.scene.cache", "_build", "scene.cache_build", None),
    (
        "repro.runtime.dataflow",
        "SovDataflow.sample_iteration",
        "dataflow.sample_iteration",
        None,
    ),
    ("repro.runtime.canbus", "CanBus.send", "canbus.send", None),
    (
        "repro.observability.attribution",
        "DeadlineMissAttributor.observe",
        "observability.attribution",
        None,
    ),
    ("repro.robustness.health", "HealthMonitor.check", "robustness.health_check", None),
    (
        "repro.robustness.degradation",
        "DegradationStateMachine.update",
        "robustness.degradation_update",
        None,
    ),
    ("repro.testing.invariants", "drive_fingerprint", "testing.fingerprint", None),
    ("repro.fleetops.cells", "run_cell", "fleetops.run_cell", None),
)

#: The span around a whole traced run; its self time is benchmark glue.
ROOT = "bench.traced"


class Recorder:
    """Span store for one single-threaded traced run (parallel lists)."""

    def __init__(self) -> None:
        self.layer: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.drive: List[Optional[int]] = []
        self.work: List[int] = []
        self._stack: List[int] = []
        self._drive_of: Dict[int, int] = {}
        self._registered: List[object] = []

    def register(self, drive: int, *objects: object) -> None:
        """Charge calls made on any of *objects* to *drive*.

        The lockstep stepper interleaves sixteen drives, so a span's drive
        is read from the object the call is made on; a ``DriveLoop`` is
        looked up through its ``sov``.  Other spans inherit their parent's
        drive.
        """
        for obj in objects:
            if obj is not None:
                self._drive_of[id(obj)] = drive
                self._registered.append(obj)  # keeps each id unique

    def _open(
        self, layer: str, args: Sequence, work: int, drive: Optional[int]
    ) -> int:
        parent = self._stack[-1] if self._stack else -1
        if drive is None and args:
            drive = self._drive_of.get(id(getattr(args[0], "sov", args[0])))
        if drive is None and parent >= 0:
            drive = self.drive[parent]
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(parent)
        self.drive.append(drive)
        self.work.append(work)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self, fn: Callable, layer: str, measure: Optional[Callable] = None
    ) -> Callable:
        """*fn* with every call recorded as a *layer* span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = measure(args) if measure is not None else 0
            index = self._open(layer, args, work, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str, drive: Optional[int] = None) -> Iterator[None]:
        """A span around the benchmark's own code (the root, one drive)."""
        index = self._open(layer, (), 0, drive)
        try:
            yield
        finally:
            self._close(index)

    # -- analysis --------------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Each span's duration minus its children's durations."""
        child = [0] * len(self.layer)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        return [
            self.end[i] - self.start[i] - child[i]
            for i in range(len(self.layer))
        ]

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        """``layer -> {calls, self_ns, work}`` summed over spans."""
        out: Dict[str, Dict[str, int]] = {}
        for i, own in enumerate(self.self_ns()):
            row = out.setdefault(
                self.layer[i], {"calls": 0, "self_ns": 0, "work": 0}
            )
            row["calls"] += 1
            row["self_ns"] += own
            row["work"] += self.work[i]
        return out

    def count_children(self, layer: str, parent_layer: str) -> int:
        """Spans of *layer* whose direct parent is a *parent_layer* span."""
        return sum(
            1
            for i, parent in enumerate(self.parent)
            if self.layer[i] == layer
            and parent >= 0
            and self.layer[parent] == parent_layer
        )

    def export_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace_event JSON (one track per drive).

        Track 0 holds spans that belong to no single drive (the batched
        planner and kernels, the root); drive *d* is track ``d + 1``.
        """
        origin = min(self.start) if self.start else 0
        events: List[Dict] = []
        tracks = set()
        for i, layer in enumerate(self.layer):
            drive = self.drive[i]
            tid = 0 if drive is None else drive + 1
            tracks.add(tid)
            events.append(
                {
                    "name": layer,
                    "cat": layer.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (self.start[i] - origin) / 1000.0,
                    "dur": (self.end[i] - self.start[i]) / 1000.0,
                    "args": {"parent": self.parent[i], "drive": drive},
                }
            )
        for tid in sorted(tracks):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": "no drive" if tid == 0 else f"drive {tid - 1}"},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                handle,
                separators=(",", ":"),
            )


def _resolve(module_name: str, attribute: str) -> Tuple[List[Tuple[object, str]], object]:
    """Where *attribute* must be patched, and the object found there.

    Raises if a target is gone, so a renamed layer fails the traced run
    loudly instead of reading as zero calls.
    """
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        return [(owner, method)], owner.__dict__[method]
    original = getattr(module, attribute)
    owners = [
        (loaded, attribute)
        for name, loaded in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(loaded, "__dict__", {}).get(attribute) is original
    ]
    return owners, original


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Route every target through *recorder*; restore all on exit."""
    patches: List[Tuple[object, str, object]] = []
    try:
        for module_name, attribute, layer, measure in TARGETS:
            owners, original = _resolve(module_name, attribute)
            wrapped = recorder.wrap(original, layer, measure)
            for owner, name in owners:
                patches.append((owner, name, original))
                setattr(owner, name, wrapped)
        yield recorder
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


#: Reported layers: metric prefix -> the span layers it sums.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("planning.plan", ("planning.plan",)),
    ("batched.plan_requests", ("batched.plan_requests",)),
    ("batched.drive_batch", ("batched.drive_batch",)),
    ("kernels.rollout_batch", ("kernels.rollout_batch",)),
    ("kernels.collision_batch", ("kernels.collision_batch",)),
    ("kernels.cost_batch", ("kernels.cost_batch",)),
    ("sov.begin_step", ("sov.begin_step",)),
    ("sov.finish_step", ("sov.finish_step",)),
    ("sov.drive", ("sov.drive",)),
    ("scene.world_advance", ("scene.world_advance",)),
    ("scene.build", ("scene.resolve_scene", "scene.make_corridor_sov")),
    ("scene.cache_for", ("scene.cache_for", "scene.cache_build")),
    ("dataflow.sample_iteration", ("dataflow.sample_iteration",)),
    ("canbus.send", ("canbus.send",)),
    ("observability.attribution", ("observability.attribution",)),
    ("robustness.health_check", ("robustness.health_check",)),
    ("robustness.degradation_update", ("robustness.degradation_update",)),
    ("testing.fingerprint", ("testing.fingerprint",)),
    ("fleetops.run_cell", ("fleetops.run_cell",)),
    ("bench", (ROOT, "bench.drive", "bench.group")),
)


def layer_metrics(recorder: Recorder) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a finished traced run: ``name -> (value, unit)``.

    Self time is reported as a percentage of the traced wall (the root
    span), so a layer a workload never calls reads 0 %; ``trace.wall_s``
    converts it back to seconds.  ``<layer>.calls`` counts the first span
    layer of the group (``scene.build.calls`` counts resolved scenes).
    """
    rows = recorder.by_layer()
    empty = {"calls": 0, "self_ns": 0, "work": 0}
    wall_ns = sum(r["self_ns"] for r in rows.values())
    out: Dict[str, Tuple[float, str]] = {"trace.wall_s": (wall_ns / 1e9, "s")}
    for prefix, layers in LAYERS:
        self_ns = sum(rows.get(layer, empty)["self_ns"] for layer in layers)
        out[f"{prefix}.self_pct"] = (100.0 * self_ns / wall_ns, "%")
        if prefix != "bench":
            out[f"{prefix}.calls"] = (
                float(rows.get(layers[0], empty)["calls"]),
                "count",
            )
    requests = rows.get("batched.plan_requests", empty)
    fallbacks = recorder.count_children("planning.plan", "batched.plan_requests")
    out["planning.fallback_share"] = (
        fallbacks / requests["work"] if requests["work"] else 0.0,
        "ratio",
    )
    out["batched.requests_per_call"] = (
        requests["work"] / requests["calls"] if requests["calls"] else 0.0,
        "requests/call",
    )
    out["kernels.rows"] = (
        float(rows.get("kernels.rollout_batch", empty)["work"]),
        "count",
    )
    lookups = rows.get("scene.cache_for", empty)["calls"]
    misses = rows.get("scene.cache_build", empty)["calls"]
    out["scene.cache_hit_share"] = (
        (lookups - misses) / lookups if lookups else 0.0,
        "ratio",
    )
    out["sov.steps"] = out.pop("sov.finish_step.calls")
    return out
