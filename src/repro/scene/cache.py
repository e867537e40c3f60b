"""Per-scenario invariant geometry, precomputed once per scene.

The scalar planner re-derives segment lengths, projection denominators,
and cumulative arc-lengths from raw centerline tuples on every rollout
step of every candidate of every tick.  All of that is invariant for the
life of a scene, so the batched stepper hoists it into a
:class:`SceneCache`: one :class:`~repro.runtime.kernels.LaneBatch` with
a row per lane segment, the row index of each segment id, and the
planner's candidate-lane list per segment, and each segment's
candidates as kernel rows (:class:`CandidateRows`).  A planning round
gathers its rows with one fancy index into the lanes of every scene in
the round, packed once per set of scenes (:func:`packed_lanes`).

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
from typing import Dict, FrozenSet, Iterable, Tuple

import numpy as np

from ..planning.mpc import MpcPlanner
from ..runtime.kernels import LaneBatch, lane_batch, pack_lanes
from .lanes import LaneMap

#: Maximum number of distinct scenes kept alive at once.
_LRU_CAPACITY = 64
#: Maximum number of packed lane tables (sets of scenes) kept at once.
_PACKED_CAPACITY = 16

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
class CandidateRows:
    """One segment's planning candidates as kernel rows: each candidate
    lane once per ``MpcPlanner.accel_candidates`` entry, lane-major, in
    the scalar planner's enumeration order."""

    #: Each candidate's lane, as a row of :attr:`SceneCache.lanes`.
    lanes: np.ndarray
    #: Each candidate's accel.
    accel: np.ndarray
    #: Whether each candidate changes lanes.
    change: np.ndarray


@dataclass(frozen=True, eq=False)
class SceneCache:
    """Precomputed invariant geometry for one lane map.

    Compared and hashed by identity: two caches of one fingerprint are
    interchangeable, but :func:`packed_lanes` keys its tables by the
    cache objects themselves.
    """

    fingerprint: SceneFingerprint
    #: One row per segment, in map insertion order.
    lanes: LaneBatch
    #: sid -> its row in :attr:`lanes`.
    row_of: Dict[str, int]
    #: sid -> the planner's candidate list ``[sid] + adjacent`` in
    #: ``lane_changes`` order.
    candidates_of: Dict[str, Tuple[str, ...]]
    #: sid -> its candidates as kernel rows.
    rows_of: Dict[str, CandidateRows]


def _candidate_rows(
    sid: str, candidates: Tuple[str, ...], row_of: Dict[str, int]
) -> CandidateRows:
    n_accels = len(MpcPlanner.accel_candidates)
    return CandidateRows(
        lanes=np.repeat(
            np.array([row_of[c] for c in candidates], dtype=np.intp), n_accels
        ),
        accel=np.tile(np.array(MpcPlanner.accel_candidates), len(candidates)),
        change=np.repeat(np.array([c != sid for c in candidates]), n_accels),
    )


def _build(lane_map: LaneMap, fingerprint: SceneFingerprint) -> SceneCache:
    sids = tuple(lane_map._segments)
    candidates_of = {sid: (sid, *lane_map.lane_changes(sid)) for sid in sids}
    row_of = {sid: i for i, sid in enumerate(sids)}
    return SceneCache(
        fingerprint=fingerprint,
        lanes=lane_batch([lane_map._segments[sid] for sid in sids]),
        row_of=row_of,
        candidates_of=candidates_of,
        rows_of={
            sid: _candidate_rows(sid, candidates_of[sid], row_of)
            for sid in sids
        },
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


_packed: "OrderedDict[FrozenSet[SceneCache], Tuple[LaneBatch, Dict[SceneCache, int]]]" = (
    OrderedDict()
)


def packed_lanes(
    caches: Iterable[SceneCache],
) -> Tuple[LaneBatch, Dict[SceneCache, int]]:
    """The lanes of every cache in *caches* as one table, with each
    cache's first row in it.

    Built once per set of caches and kept in a small LRU that holds the
    caches it is keyed by, so a key never outlives its objects.
    """
    key = frozenset(caches)
    packed = _packed.get(key)
    if packed is not None:
        _packed.move_to_end(key)
        return packed
    offsets: Dict[SceneCache, int] = {}
    row = 0
    for cache in key:
        offsets[cache] = row
        row += cache.lanes.width
    packed = (pack_lanes([cache.lanes for cache in offsets]), offsets)
    _packed[key] = packed
    while len(_packed) > _PACKED_CAPACITY:
        _packed.popitem(last=False)
    return packed


def cache_stats() -> Dict[str, int]:
    """Introspection for tests: current LRU occupancy."""
    return {"entries": len(_lru), "capacity": _LRU_CAPACITY}


def clear_cache() -> None:
    """Drop all cached scenes and packed tables (tests)."""
    _lru.clear()
    _packed.clear()
