"""OSM-like lane-graph map (paper Sec. II-B).

The paper: "we use a pre-constructed map that marks lanes ... we use
OpenStreetMap and frequently annotate it with semantic information of the
environment."  The vehicle maneuvers at lane granularity (1-3 m wide lanes,
Sec. III-D), so the map substrate is a directed graph of lane segments with
centerline geometry and semantic annotations, kept as an insertion-ordered
adjacency map (``networkx`` loads only for :meth:`LaneMap.route`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LaneSegment:
    """One directed lane segment with a polyline centerline."""

    segment_id: str
    centerline: Tuple[Tuple[float, float], ...]
    width_m: float = 2.0
    speed_limit_mps: float = 5.6
    annotations: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.centerline) < 2:
            raise ValueError("centerline needs at least two points")
        if not 0.5 <= self.width_m <= 5.0:
            raise ValueError("lane width out of plausible range")

    @property
    def length_m(self) -> float:
        return sum(
            math.hypot(b[0] - a[0], b[1] - a[1])
            for a, b in zip(self.centerline, self.centerline[1:])
        )

    @property
    def start(self) -> Tuple[float, float]:
        return self.centerline[0]

    @property
    def end(self) -> Tuple[float, float]:
        return self.centerline[-1]

    def point_at(self, s_m: float) -> Tuple[float, float]:
        """Point at arc-length *s_m* along the centerline (clamped)."""
        if s_m <= 0:
            return self.start
        remaining = s_m
        for a, b in zip(self.centerline, self.centerline[1:]):
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            if remaining <= seg_len and seg_len > 0:
                t = remaining / seg_len
                return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            remaining -= seg_len
        return self.end

    def heading_at(self, s_m: float) -> float:
        """Tangent heading at arc-length *s_m*."""
        remaining = max(0.0, s_m)
        for a, b in zip(self.centerline, self.centerline[1:]):
            seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
            if remaining <= seg_len:
                return math.atan2(b[1] - a[1], b[0] - a[0])
            remaining -= seg_len
        a, b = self.centerline[-2], self.centerline[-1]
        return math.atan2(b[1] - a[1], b[0] - a[0])

    def lateral_offset(self, x_m: float, y_m: float) -> float:
        """Unsigned distance from (x, y) to the centerline."""
        best = float("inf")
        for a, b in zip(self.centerline, self.centerline[1:]):
            best = min(best, _point_segment_distance((x_m, y_m), a, b))
        return best

    def contains(self, x_m: float, y_m: float) -> bool:
        """Whether (x, y) lies within the lane's half-width corridor."""
        return self.lateral_offset(x_m, y_m) <= self.width_m / 2.0


def _point_segment_distance(
    p: Tuple[float, float], a: Tuple[float, float], b: Tuple[float, float]
) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    if norm2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / norm2))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy)


class LaneMap:
    """A directed graph of lane segments with routing and annotation.

    Nodes are segment ids; an edge u->v means v is drivable after u
    (successor lane or an adjacent lane reachable by a lane change).
    Edges enumerate by source segment in insertion order, then in
    ``connect`` order; a repeated ``connect`` updates the edge's flag in
    place.  The planner's candidate lanes and the scene-cache
    fingerprint depend on that order.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, LaneSegment] = {}
        #: from -> {to: lane_change}.
        self._successors: Dict[str, Dict[str, bool]] = {}

    def add_segment(self, segment: LaneSegment) -> None:
        if segment.segment_id in self._segments:
            raise ValueError(f"duplicate segment id {segment.segment_id!r}")
        self._segments[segment.segment_id] = segment
        self._successors[segment.segment_id] = {}

    def connect(self, from_id: str, to_id: str, lane_change: bool = False) -> None:
        for sid in (from_id, to_id):
            if sid not in self._segments:
                raise KeyError(f"unknown segment {sid!r}")
        self._successors[from_id][to_id] = bool(lane_change)

    def lane_changes(self, segment_id: str) -> List[str]:
        """Segments reachable from *segment_id* by a lane change."""
        return [
            to_id
            for to_id, lane_change in self._successors[segment_id].items()
            if lane_change
        ]

    def edges(self) -> List[Tuple[str, str, bool]]:
        """Every ``(from_id, to_id, lane_change)`` edge."""
        return [
            (from_id, to_id, lane_change)
            for from_id, successors in self._successors.items()
            for to_id, lane_change in successors.items()
        ]

    def segment(self, segment_id: str) -> LaneSegment:
        return self._segments[segment_id]

    @property
    def segment_ids(self) -> List[str]:
        return list(self._segments)

    def annotate(self, segment_id: str, annotation: str) -> None:
        """Add a semantic annotation (the paper annotates OSM similarly)."""
        seg = self._segments[segment_id]
        self._segments[segment_id] = LaneSegment(
            segment_id=seg.segment_id,
            centerline=seg.centerline,
            width_m=seg.width_m,
            speed_limit_mps=seg.speed_limit_mps,
            annotations=seg.annotations + (annotation,),
        )

    def route(self, from_id: str, to_id: str) -> List[str]:
        """Shortest route by driven distance; raises if unreachable."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._segments)
        graph.add_edges_from((u, v) for u, v, _change in self.edges())
        try:
            return nx.shortest_path(
                graph,
                from_id,
                to_id,
                weight=lambda u, v, d: self._segments[v].length_m,
            )
        except nx.NetworkXNoPath:
            raise ValueError(f"no route from {from_id!r} to {to_id!r}") from None

    def locate(self, x_m: float, y_m: float) -> Optional[str]:
        """The segment whose corridor contains (x, y), nearest centerline
        first; None when off-map."""
        candidates = [
            (seg.lateral_offset(x_m, y_m), sid)
            for sid, seg in self._segments.items()
            if seg.contains(x_m, y_m)
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def route_length_m(self, route: Sequence[str]) -> float:
        return sum(self._segments[sid].length_m for sid in route)


def straight_corridor(
    length_m: float = 100.0, n_lanes: int = 2, lane_width_m: float = 2.5
) -> LaneMap:
    """A straight multi-lane corridor; lane i is offset i*width in y.

    Adjacent lanes are connected with lane-change edges in both directions,
    which is exactly the maneuver vocabulary of the paper's vehicles
    ("staying in a lane or switching lanes").
    """
    lane_map = LaneMap()
    for i in range(n_lanes):
        y = i * lane_width_m
        lane_map.add_segment(
            LaneSegment(
                segment_id=f"lane{i}",
                centerline=((0.0, y), (length_m, y)),
                width_m=lane_width_m,
            )
        )
    for i in range(n_lanes - 1):
        lane_map.connect(f"lane{i}", f"lane{i + 1}", lane_change=True)
        lane_map.connect(f"lane{i + 1}", f"lane{i}", lane_change=True)
    return lane_map


def campus_loop(radius_m: float = 40.0, n_points: int = 32) -> LaneMap:
    """A closed loop (the tourist-site circuit), split into 4 arcs."""
    lane_map = LaneMap()
    quarter = n_points // 4
    arc_ids = []
    for q in range(4):
        pts = []
        for k in range(quarter + 1):
            theta = 2.0 * math.pi * (q * quarter + k) / n_points
            pts.append((radius_m * math.cos(theta), radius_m * math.sin(theta)))
        sid = f"arc{q}"
        lane_map.add_segment(LaneSegment(segment_id=sid, centerline=tuple(pts)))
        arc_ids.append(sid)
    for q in range(4):
        lane_map.connect(arc_ids[q], arc_ids[(q + 1) % 4])
    return lane_map
