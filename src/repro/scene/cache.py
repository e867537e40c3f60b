"""Per-scenario invariant geometry, precomputed once per scene.

The scalar planner re-derives segment lengths, projection denominators,
and cumulative arc-lengths from raw centerline tuples on every rollout
step of every candidate of every tick.  All of that is invariant for the
life of a scene, so the batched stepper hoists it into a
:class:`SceneCache`: one :class:`~repro.runtime.kernels.LaneBatch` with
a row per lane segment, the row index of each segment id, and the
planner's candidate-lane list per segment.  The stepper gathers
candidate rows out of ``lanes`` by fancy indexing.

Caches are keyed by a **scene fingerprint** — a value-equality digest of
every segment's identity, centerline, width, and the lane-change edge
list, in insertion order (the scalar planner's ``locate`` tie-break and
adjacency enumeration both depend on that order, so it is part of the
scene's semantics).  Two maps with equal fingerprints are
interchangeable bit-for-bit; a mutated or regenerated map simply misses
and rebuilds.  Entries live in a small LRU so fleet campaigns that
cycle through hundreds of procgen scenes don't accumulate geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from ..runtime.kernels import LaneBatch, lane_batch
from .lanes import LaneMap

#: Maximum number of distinct scenes kept alive at once.
_LRU_CAPACITY = 64

SceneFingerprint = Tuple


def scene_fingerprint(lane_map: LaneMap) -> SceneFingerprint:
    """Value-equality digest of a lane map's planning-relevant state.

    Captures, in insertion order: each segment's id, centerline, and
    width (the inputs to ``locate`` / ``point_at`` / lane progress), and
    each graph edge with its ``lane_change`` flag (the input to the
    planner's adjacency enumeration).  Insertion order is significant:
    ``locate`` breaks lateral-offset ties by dict order and
    ``_adjacent_lanes`` enumerates ``lane_changes`` order, so reordering
    *is* a semantic change and must miss the cache.
    """
    segments = tuple(
        (sid, seg.centerline, seg.width_m)
        for sid, seg in lane_map._segments.items()
    )
    return (segments, tuple(lane_map.edges()))


@dataclass(frozen=True)
class SceneCache:
    """Precomputed invariant geometry for one lane map."""

    fingerprint: SceneFingerprint
    #: One row per segment, in map insertion order.
    lanes: LaneBatch
    #: sid -> its row in :attr:`lanes`.
    row_of: Dict[str, int]
    #: sid -> the planner's candidate list ``[sid] + adjacent`` in
    #: ``lane_changes`` order.
    candidates_of: Dict[str, Tuple[str, ...]]


def _build(lane_map: LaneMap, fingerprint: SceneFingerprint) -> SceneCache:
    sids = tuple(lane_map._segments)
    candidates_of = {sid: (sid, *lane_map.lane_changes(sid)) for sid in sids}
    return SceneCache(
        fingerprint=fingerprint,
        lanes=lane_batch([lane_map._segments[sid] for sid in sids]),
        row_of={sid: i for i, sid in enumerate(sids)},
        candidates_of=candidates_of,
    )


_lru: "OrderedDict[SceneFingerprint, SceneCache]" = OrderedDict()


def cache_for(lane_map: LaneMap) -> SceneCache:
    """The :class:`SceneCache` for *lane_map*, building on first sight.

    The fingerprint is recomputed on every call (cheap: a few tuple
    constructions over data the map already holds), so a mutated map —
    e.g. a regenerated procgen scene re-using a ``LaneMap`` instance —
    can never be served stale geometry.
    """
    fingerprint = scene_fingerprint(lane_map)
    cached = _lru.get(fingerprint)
    if cached is not None:
        _lru.move_to_end(fingerprint)
        return cached
    built = _build(lane_map, fingerprint)
    _lru[fingerprint] = built
    while len(_lru) > _LRU_CAPACITY:
        _lru.popitem(last=False)
    return built


def cache_stats() -> Dict[str, int]:
    """Introspection for tests: current LRU occupancy."""
    return {"entries": len(_lru), "capacity": _LRU_CAPACITY}


def clear_cache() -> None:
    """Drop all cached scenes (tests)."""
    _lru.clear()
