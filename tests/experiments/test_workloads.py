"""Workload construction and caching for the figure drivers."""

import numpy as np

from repro.experiments.scale import SMOKE
from repro.experiments.workloads import (
    BASELINES,
    PROFILES,
    SCHEMES,
    _fleet_cached,
    fleet_for,
    stats_fleet_for,
)


def test_scheme_lists_consistent():
    assert set(BASELINES) | {"adapt"} == set(SCHEMES)
    assert len(PROFILES) == 3


def test_fleet_is_cached_identity():
    a = fleet_for("ali", SMOKE)
    b = fleet_for("ali", SMOKE)
    # Same underlying Trace objects (the lru_cache hit), fresh lists.
    assert a is not b
    assert all(x is y for x, y in zip(a, b))


def test_fleet_generation_writes_nothing_to_disk(tmp_path, monkeypatch):
    """Fleets are regenerated from their seed, never stored: building one
    from cold leaves the home and cache directories untouched."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("ADAPT_REPRO_CACHE_DIR", str(tmp_path))
    _fleet_cached.cache_clear()
    assert len(fleet_for("ali", SMOKE)) == SMOKE.num_volumes
    assert list(tmp_path.iterdir()) == []


def test_fleet_sizes_match_scale():
    fleet = fleet_for("msrc", SMOKE)
    assert len(fleet) == SMOKE.num_volumes
    for t in fleet:
        assert len(t) == SMOKE.volume_requests
        assert t.max_lba() < SMOKE.volume_blocks


def test_stats_fleet_is_lighter_but_wider():
    stats = stats_fleet_for("ali", SMOKE)
    main = fleet_for("ali", SMOKE)
    assert len(stats) == SMOKE.stats_volumes > len(main)
    assert len(stats[0]) < len(main[0])


def test_profiles_produce_distinct_fleets():
    a = fleet_for("ali", SMOKE)[0]
    t = fleet_for("tencent", SMOKE)[0]
    assert not np.array_equal(a.offsets, t.offsets)
