"""Tests for the per-scenario geometry cache (fingerprint + LRU)."""

from __future__ import annotations

import pytest

from repro.scene.cache import (
    cache_for,
    cache_stats,
    clear_cache,
    scene_fingerprint,
)
from repro.scene.lanes import LaneMap, LaneSegment, straight_corridor


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _map_with(n_lanes: int = 2, length: float = 50.0) -> LaneMap:
    return straight_corridor(length_m=length, n_lanes=n_lanes)


def test_fingerprint_equal_for_equal_maps():
    assert scene_fingerprint(_map_with()) == scene_fingerprint(_map_with())


def test_fingerprint_differs_on_geometry_change():
    assert scene_fingerprint(_map_with(length=50.0)) != scene_fingerprint(
        _map_with(length=51.0)
    )
    assert scene_fingerprint(_map_with(n_lanes=2)) != scene_fingerprint(
        _map_with(n_lanes=3)
    )


def test_cache_hit_for_equal_maps():
    a = cache_for(_map_with())
    b = cache_for(_map_with())  # different instance, same geometry
    assert a is b
    assert cache_stats()["entries"] == 1


def test_mutated_map_misses_cache():
    lane_map = _map_with(n_lanes=1)
    before = cache_for(lane_map)
    lane_map.add_segment(
        LaneSegment(
            segment_id="spur",
            centerline=((0.0, 10.0), (50.0, 10.0)),
            width_m=2.5,
        )
    )
    after = cache_for(lane_map)
    assert after is not before
    assert "spur" in after.row_of


def test_lanes_hold_one_row_per_segment_in_map_order():
    lane_map = _map_with(n_lanes=3)
    cache = cache_for(lane_map)
    sids = lane_map.segment_ids
    assert cache.lanes.width == 3
    assert [cache.row_of[sid] for sid in sids] == [0, 1, 2]
    assert cache.lanes.segments == tuple(lane_map.segment(s) for s in sids)
    for row, sid in enumerate(sids):
        # lane i is offset i * lane_width in y.
        start = lane_map.segment(sid).centerline[0]
        assert (cache.lanes.ax[row, 0], cache.lanes.ay[row, 0]) == start


def test_candidates_follow_lane_change_edges():
    cache = cache_for(_map_with(n_lanes=3))
    # Middle lane can change to both neighbours; edge lanes to one.
    assert set(cache.candidates_of["lane1"]) == {"lane0", "lane1", "lane2"}
    assert cache.candidates_of["lane1"][0] == "lane1"
    assert set(cache.candidates_of["lane0"]) == {"lane0", "lane1"}


def test_lru_evicts_oldest():
    from repro.scene import cache as cache_mod

    for i in range(cache_mod._LRU_CAPACITY + 3):
        cache_for(_map_with(length=40.0 + i))
    assert cache_stats()["entries"] == cache_mod._LRU_CAPACITY
    # The oldest entries were evicted; rebuilding one misses (new object).
    rebuilt = cache_for(_map_with(length=40.0))
    assert rebuilt.fingerprint == scene_fingerprint(_map_with(length=40.0))
