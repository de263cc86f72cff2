"""Attribution engine equivalence: the invariant view is byte-identical.

The attribution contract splits the snapshot in two: ``chunk_bounds``
describes the batched engine's chunk construction (meaningless under
the scalar loop), while ``ledger`` and ``gc_provenance`` describe the
simulated store — which the engine-equivalence contract already forces
to be bit-identical.  :func:`invariant_view` must therefore serialize to
*identical JSON bytes* across engines for every policy, and attaching
the recorder must never perturb the replay itself.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.lss.store import LogStructuredStore
from repro.obs.attribution import AttributionRecorder, invariant_view
from repro.placement.registry import available_policies, make_policy
from repro.trace.model import OP_READ, OP_WRITE, Trace
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.perf.test_engine_equivalence import assert_states_equal

#: ali (index 0) and tencent (index 1) differential workloads, then a
#: bursty trace whose idle rests span several SLA windows.
_WORKLOADS = ("ali", "tencent", "idle-gaps")


def _idle_gap_trace(window_us: int) -> Trace:
    """Bursts of skewed small writes (and some reads) separated by idle
    rests of 2-12 SLA windows; inside a burst, requests arrive up to about
    half a window apart, with an occasional one-window pause.  On the
    differential store shape every multi-group policy reaches GC and
    fires deadlines on it, so batched chunks cross idle gaps between
    their increments."""
    rng = np.random.default_rng(7)
    rows = []
    t = 0
    hot = rng.permutation(1024)
    for _ in range(48):
        for _ in range(int(rng.integers(10, 40))):
            t += int(rng.integers(1, window_us // 2))
            if rng.random() < 0.1:
                t += window_us
            size = int(rng.integers(1, 5))
            if rng.random() < 0.7:
                off = int(hot[int(rng.integers(0, 96))])
            else:
                off = int(rng.integers(0, 1024))
            off = min(off, 1024 - size)
            op = OP_READ if rng.random() < 0.15 else OP_WRITE
            rows.append((t, op, off, size))
        t += int(rng.integers(2, 13)) * window_us
    return Trace.from_rows(rows, volume="idle-gaps")


def _workload(idx: int):
    if _WORKLOADS[idx] == "idle-gaps":
        return _idle_gap_trace(differential_config().coalesce_window_us)
    return default_workloads(num_requests=600)[idx]


def _replay_with_attribution(policy_name: str, trace, engine: str):
    cfg = differential_config()
    attr = AttributionRecorder()
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg),
                               attribution=attr)
    store.replay(trace, engine=engine)
    return store, attr


def _canonical(attr: AttributionRecorder) -> str:
    return json.dumps(invariant_view(attr.snapshot()), sort_keys=True)


@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_invariant_view_byte_identical_across_engines(policy_name,
                                                      workload_idx):
    trace = _workload(workload_idx)
    scalar_store, scalar_attr = _replay_with_attribution(
        policy_name, trace, "scalar")
    batched_store, batched_attr = _replay_with_attribution(
        policy_name, trace, "batched")
    assert_states_equal(scalar_store, batched_store)
    assert _canonical(scalar_attr) == _canonical(batched_attr)


@pytest.mark.parametrize("policy_name", ("sepgc", "adapt"))
def test_attribution_does_not_change_replay(policy_name):
    """Attaching the recorder must not perturb the batched replay."""
    trace = default_workloads(num_requests=600)[0]
    cfg = differential_config()
    bare = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    bare.replay(trace, engine="batched")
    instrumented, _ = _replay_with_attribution(policy_name, trace,
                                               "batched")
    assert_states_equal(bare, instrumented)


def test_chunk_bounds_exist_only_under_batched():
    trace = default_workloads(num_requests=600)[0]
    _, scalar_attr = _replay_with_attribution("sepgc", trace, "scalar")
    _, batched_attr = _replay_with_attribution("sepgc", trace, "batched")
    assert scalar_attr.snapshot()["chunk_bounds"]["chunks"] == 0
    batched = batched_attr.snapshot()["chunk_bounds"]
    assert batched["chunks"] > 0
    assert batched["chunks"] == sum(
        c["chunks"] for c in batched["causes"].values())
    assert batched["chunks"] == sum(
        batched["chunk_requests_hist"].values())


def test_provenance_epochs_survive_migration():
    """Valid blocks keep their birth epoch across GC migrations: every
    tagged live slot's epoch is a real user_seq issued before now."""
    import numpy as np
    from repro.lss.segment import ORIGIN_NONE
    trace = default_workloads(num_requests=800)[0]
    store, _ = _replay_with_attribution("adapt", trace, "batched")
    pool = store.pool
    tagged = pool.slot_origin_flat != ORIGIN_NONE
    assert tagged.any()
    epochs = pool.slot_epoch_flat[tagged]
    # Birth epochs are pre-increment user_seq values: [0, user_seq).
    assert int(epochs.min()) >= 0
    assert int(epochs.max()) < store.user_seq
    # Epochs of currently-valid slots are unique (one live copy per
    # logical write).
    valid = pool.slot_valid.reshape(-1) & tagged
    live = pool.slot_epoch_flat[valid]
    assert live.size == np.unique(live).size
