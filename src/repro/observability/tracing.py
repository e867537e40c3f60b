"""Per-frame span tracing for the SoV loop (zero dependencies).

The closed-loop simulation runs in *simulated* time, so spans are not
measured with a wall clock: the code that knows when a piece of work
starts and ends in simulation time records those instants explicitly.
What the tracer adds is structure — parent links via context managers, a
per-control-tick :class:`FrameTrace` grouping, and an export to the
Chrome ``trace_event`` JSON format (the "JSON Array with metadata"
flavour) so a drive opens directly in Perfetto or ``chrome://tracing``.

Tracks map to CAN-bus/compute/reactive lanes: every span carries a
``track`` name which becomes a thread in the exported trace; complete
(``ph: "X"``) events on the same track nest by time containment, which is
exactly how Perfetto renders the sensing → perception → planning
pipeline inside a control tick.

Design constraints honoured here:

* **No randomness.**  The tracer never touches an RNG, so attaching it
  cannot perturb a seeded drive.
* **Cheap when absent.**  Call sites guard with ``if tracer is not
  None``; the uninstrumented loop allocates nothing.
* **Stable output.**  Exported JSON depends only on recorded spans, so a
  seeded drive exports a bit-stable trace.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Default process id in exported traces (one SoV = one process).
_PID = 1


@dataclass
class Span:
    """One unit of traced work in simulated time."""

    span_id: int
    name: str
    track: str
    start_s: float
    end_s: Optional[float] = None
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def finish(self, end_s: float) -> None:
        """Close the span at *end_s* (must not precede the start)."""
        if end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r} cannot end at {end_s} before its "
                f"start {self.start_s}"
            )
        self.end_s = end_s

    def annotate(self, **args: Any) -> None:
        """Attach key/value arguments (rendered by the trace viewer)."""
        self.args.update(args)

    def contains(self, other: "Span") -> bool:
        """Whether *other* nests inside this span's time interval."""
        if self.end_s is None or other.end_s is None:
            return False
        return self.start_s <= other.start_s and other.end_s <= self.end_s


@dataclass
class FrameTrace:
    """All spans of one control tick, keyed by the tick index."""

    tick: int
    start_s: float
    span_ids: List[int] = field(default_factory=list)
    deadline_missed: bool = False
    total_latency_s: Optional[float] = None
    budget_s: Optional[float] = None


class Tracer:
    """Collects spans and frames; exports Chrome ``trace_event`` JSON.

    Spans are opened either as context managers (parent links follow the
    with-nesting) or recorded whole with :meth:`record` when start and
    end are both already known (the common case in a simulation, where a
    command's delivery time is computed, not awaited).
    """

    def __init__(self, name: str = "sov") -> None:
        self.name = name
        self.spans: List[Span] = []
        self.frames: List[FrameTrace] = []
        self._stack: List[int] = []
        self._current_frame: Optional[FrameTrace] = None
        self._lanes: Dict[str, List[float]] = {}

    def lane(self, base: str, start_s: float, end_s: float) -> str:
        """Allocate a non-overlapping lane (track) for ``[start_s, end_s]``.

        Pipelined control ticks overlap in time (the mean iteration runs
        164 ms against a 100 ms period); complete events that partially
        overlap on one thread render garbled.  This first-fit allocator
        spreads overlapping spans over ``base``, ``base.1``, ``base.2``…
        so every lane stays strictly sequential — the standard way to
        draw pipeline occupancy in a Chrome trace.
        """
        ends = self._lanes.setdefault(base, [])
        for i, busy_until in enumerate(ends):
            if busy_until <= start_s:
                ends[i] = end_s
                return base if i == 0 else f"{base}.{i}"
        ends.append(end_s)
        i = len(ends) - 1
        return base if i == 0 else f"{base}.{i}"

    # -- recording -------------------------------------------------------------

    def begin_frame(self, tick: int, now_s: float) -> FrameTrace:
        """Open the per-control-tick grouping for subsequent spans."""
        frame = FrameTrace(tick=tick, start_s=now_s)
        self.frames.append(frame)
        self._current_frame = frame
        return frame

    def record(
        self,
        name: str,
        track: str,
        start_s: float,
        end_s: float,
        **args: Any,
    ) -> Span:
        """Record a completed span with explicit simulated times."""
        span = self._open(name, track, start_s, args)
        span.finish(end_s)
        self._stack.pop()
        return span

    @contextmanager
    def span(
        self, name: str, track: str, start_s: float, **args: Any
    ) -> Iterator[Span]:
        """Open a span; children recorded inside the block get parented.

        The block must call ``span.finish(end_s)``; a span left open is
        closed at the latest end of its children (or zero-length).
        """
        span = self._open(name, track, start_s, args)
        try:
            yield span
        finally:
            self._stack.pop()
            if span.end_s is None:
                children_end = [
                    s.end_s
                    for s in self.spans
                    if s.parent_id == span.span_id and s.end_s is not None
                ]
                span.finish(max(children_end, default=span.start_s))

    def instant(self, name: str, track: str, at_s: float, **args: Any) -> Span:
        """A zero-duration marker (a deadline miss, a dropped frame)."""
        return self.record(name, track, at_s, at_s, **args)

    def _open(
        self, name: str, track: str, start_s: float, args: Mapping[str, Any]
    ) -> Span:
        span = Span(
            span_id=len(self.spans),
            name=name,
            track=track,
            start_s=start_s,
            parent_id=self._stack[-1] if self._stack else None,
            args=dict(args),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        if self._current_frame is not None:
            self._current_frame.span_ids.append(span.span_id)
        return span

    # -- queries ---------------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def frame_spans(self, tick: int) -> List[Span]:
        for frame in self.frames:
            if frame.tick == tick:
                return [self.spans[i] for i in frame.span_ids]
        raise KeyError(f"no frame traced for tick {tick}")

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome ``trace_event`` JSON object.

        Complete events (``ph: "X"``) carry microsecond timestamps;
        tracks become named threads via ``thread_name`` metadata events,
        ordered by first appearance so the compute lane stays on top.
        """
        events: List[Dict[str, Any]] = []
        tracks: Dict[str, int] = {}
        for span in self.spans:
            if span.track not in tracks:
                tid = len(tracks) + 1
                tracks[span.track] = tid
                events.append(
                    {
                        "ph": "M",
                        "pid": _PID,
                        "tid": tid,
                        "name": "thread_name",
                        "args": {"name": span.track},
                    }
                )
            end_s = span.end_s if span.end_s is not None else span.start_s
            events.append(
                {
                    "ph": "X",
                    "pid": _PID,
                    "tid": tracks[span.track],
                    "name": span.name,
                    "ts": span.start_s * 1e6,
                    "dur": (end_s - span.start_s) * 1e6,
                    "args": dict(span.args),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tracer": self.name,
                "frames": len(self.frames),
                "deadline_misses": sum(
                    f.deadline_missed for f in self.frames
                ),
            },
        }

    def export_json(self, path: str) -> None:
        """Write the Chrome trace to *path* (open it in Perfetto)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


#: Overlap slop in exported-trace microseconds: seconds→µs conversion can
#: round the shared boundary of two contiguous spans to floats ~1e-8 µs
#: apart; anything under a nanosecond is contiguity, not overlap.
_OVERLAP_EPS_US = 1e-3


def validate_chrome_trace(trace: Mapping[str, Any]) -> List[str]:
    """Structural validation of an exported trace; returns problems.

    Checks the invariants Perfetto relies on: a ``traceEvents`` list,
    every ``X`` event with non-negative ``ts``/``dur`` and a known
    ``pid``/``tid``, and — per thread — that overlapping complete events
    strictly nest (no partial overlap, which viewers render garbled).
    An empty list means the trace is loadable.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    by_tid: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("X", "M", "i", "I"):
            problems.append(f"event {i}: unsupported phase {ph!r}")
            continue
        if ph != "X":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"event {i}: bad dur {dur!r}")
            continue
        key = (event.get("pid"), event.get("tid"))
        if key[0] is None or key[1] is None:
            problems.append(f"event {i}: missing pid/tid")
            continue
        by_tid.setdefault(key, []).append((ts, ts + dur, event.get("name", "")))
    for key, intervals in by_tid.items():
        # Containers first: equal starts sort longest-first so a pair
        # like [a, c] ⊃ [a, b] reads as nesting, not overlap.
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        for (s1, e1, n1), (s2, e2, n2) in zip(intervals, intervals[1:]):
            # Overlap without containment (up to conversion rounding).
            if s2 < e1 - _OVERLAP_EPS_US and e2 > e1 + _OVERLAP_EPS_US:
                problems.append(
                    f"track {key}: {n1!r} [{s1},{e1}) and {n2!r} "
                    f"[{s2},{e2}) overlap without nesting"
                )
    return problems
