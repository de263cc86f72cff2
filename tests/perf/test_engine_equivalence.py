"""Scalar vs batched replay: bit-identical final state.

The batched engine's whole contract is that chunking is invisible: for
any policy and any trace, the final mapping table, traffic statistics,
per-group breakdowns, RAID accounting, and occupancy must equal the
scalar per-request loop's.  These tests enforce it on the GC-churny
differential store shape, where chunks are forced to split at GC
triggers and deadline fires constantly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)


def replay_pair(policy_name, trace, engine_kwargs=None, config=None):
    """Replay ``trace`` scalar and batched on fresh stores; return both."""
    cfg = config or differential_config()
    scalar = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    scalar.replay(trace, engine="scalar")
    cfg2 = config or differential_config()
    batched = LogStructuredStore(cfg2, make_policy(policy_name, cfg2))
    if engine_kwargs:
        from repro.perf.engine import BatchedReplayEngine
        BatchedReplayEngine(batched, **engine_kwargs).replay(trace)
    else:
        batched.replay(trace, engine="batched")
    return scalar, batched


def assert_states_equal(scalar, batched):
    assert (scalar.mapping == batched.mapping).all()
    s, b = vars(scalar.stats).copy(), vars(batched.stats).copy()
    sg, bg = s.pop("groups"), b.pop("groups")
    sr, br = s.pop("raid"), b.pop("raid")
    assert s == b
    assert vars(sr) == vars(br)
    for a, c in zip(sg, bg):
        assert vars(a) == vars(c), a.name
    assert (scalar.group_occupancy() == batched.group_occupancy()).all()
    batched.check_invariants()


@pytest.mark.parametrize("policy_name", available_policies())
def test_batched_matches_scalar_every_policy(policy_name):
    trace = default_workloads(num_requests=600)[0]
    scalar, batched = replay_pair(policy_name, trace)
    assert_states_equal(scalar, batched)
    # The trace is update-heavy enough to exercise GC on this shape.
    assert batched.stats.gc_blocks_written > 0


def test_batched_matches_scalar_update_heavy():
    trace = default_workloads(num_requests=600)[-1]  # YCSB-A
    for policy_name in ("sepgc", "adapt"):
        scalar, batched = replay_pair(policy_name, trace)
        assert_states_equal(scalar, batched)


@pytest.mark.parametrize("config_change", [
    {"sla_mode": "first"},
    {"coalesce_window_us": 0},
    {"sla_mode": "first", "coalesce_window_us": 0},
], ids=["first", "zero-window", "first-zero-window"])
@pytest.mark.parametrize("policy_name", available_policies())
def test_deadline_free_chunks_match_scalar(policy_name, config_change):
    """``sla_mode="first"`` and a zero window take the engine's
    deadline-free chunk path instead of the in-chunk fire prediction."""
    cfg = dataclasses.replace(differential_config(), **config_change)
    trace = default_workloads(num_requests=600)[0]
    scalar, batched = replay_pair(policy_name, trace, config=cfg)
    assert_states_equal(scalar, batched)
    assert batched.stats.gc_blocks_written > 0


def test_batched_engine_rejects_trace_recorder():
    """Exact per-event tracing cannot be batched; the engine says so."""
    from repro.obs.recorder import ObsRecorder
    from repro.perf.engine import BatchedReplayEngine
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               recorder=ObsRecorder(trace_events=True))
    with pytest.raises(ValueError, match="batch-capable"):
        BatchedReplayEngine(store)


def _auto_engine_used(store, trace, monkeypatch) -> bool:
    """Replay with engine='auto' and report whether the batched engine ran."""
    from repro.perf.engine import BatchedReplayEngine
    used = []
    orig = BatchedReplayEngine.replay

    def spy(self, *args, **kwargs):
        used.append(True)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(BatchedReplayEngine, "replay", spy)
    store.replay(trace, engine="auto")
    return bool(used)


def test_auto_engine_selects_batched_with_metrics_recorder(monkeypatch):
    """A default (batch-capable) recorder keeps the fast engine."""
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               recorder=ObsRecorder())
    assert _auto_engine_used(store, trace, monkeypatch)


def test_auto_engine_falls_back_with_trace_recorder(monkeypatch):
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               recorder=ObsRecorder(trace_events=True))
    assert not _auto_engine_used(store, trace, monkeypatch)
    cfg2 = differential_config()
    ref = LogStructuredStore(cfg2, make_policy("sepgc", cfg2))
    ref.replay(trace, engine="scalar")
    assert (store.mapping == ref.mapping).all()


def test_auto_engine_falls_back_for_custom_enabled_recorder(monkeypatch):
    """A third-party recorder that merely subclasses NullRecorder gets
    the scalar engine (per-event cadence) unless it opts into the bulk
    contract via batch_capable."""
    from repro.obs.recorder import NullRecorder

    class CustomRecorder(NullRecorder):
        enabled = True

    trace = default_workloads(num_requests=300)[0]
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               recorder=CustomRecorder())
    assert not _auto_engine_used(store, trace, monkeypatch)


def test_unknown_engine_rejected():
    trace = default_workloads(num_requests=100)[0]
    cfg = differential_config()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    with pytest.raises(ValueError, match="unknown replay engine"):
        store.replay(trace, engine="turbo")


def test_user_placement_gids_cover_actual_placements():
    """Every gid a policy actually returns must be inside its declared
    user-placement domain — the engine's capacity proofs quantify over
    that set only."""
    trace = default_workloads(num_requests=600)[0]
    for policy_name in available_policies():
        cfg = differential_config()
        store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
        domain = set(store.policy.user_placement_gids())
        assert domain <= set(range(len(store.groups)))
        seen: set[int] = set()
        orig = store.policy.place_user

        def spy(lba, now_us, _orig=orig, _seen=seen):
            gid = _orig(lba, now_us)
            _seen.add(gid)
            return gid

        store.policy.place_user = spy
        store.replay(trace, engine="scalar")
        assert seen <= domain, \
            f"{policy_name} placed into {seen - domain} outside its domain"
