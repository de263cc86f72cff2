"""Overhead budget of the batch-capable recorders on batched replay."""

from __future__ import annotations

import time

import pytest

from repro.experiments.runner import store_config_for
from repro.experiments.scale import Scale
from repro.experiments.workloads import fleet_for
from repro.lss.store import LogStructuredStore
from repro.obs.attribution import AttributionRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy

SCALE = Scale("ovh", num_volumes=1, volume_blocks=8192,
              volume_requests=6000, stats_volumes=1,
              ycsb_blocks=8192, ycsb_writes=4000)

# recorder kind -> store keyword that attaches a fresh instance
RECORDERS = {
    "metrics": lambda: {"recorder": ObsRecorder()},
    "attribution": lambda: {"attribution": AttributionRecorder()},
}


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(RECORDERS))
def test_recorder_overhead_under_budget(kind):
    """The recorder must cost < 15% of batched replay throughput.

    Measured as the aggregate over the policy set on one workload,
    interleaving instrumented and uninstrumented repeats and keeping
    each cell's best run, so scheduling noise largely cancels; per-cell
    ratios on a loaded machine are too noisy to gate.
    """
    trace = fleet_for("ali", SCALE)[0]

    def one(policy, instrumented):
        cfg = store_config_for(SCALE.volume_blocks, seed=0)
        hooks = RECORDERS[kind]() if instrumented else {}
        store = LogStructuredStore(cfg, make_policy(policy, cfg), **hooks)
        t0 = time.perf_counter()
        store.replay(trace, engine="batched")
        return time.perf_counter() - t0

    total_off = total_on = 0.0
    for policy in ("sepgc", "adapt", "sepbit"):
        one(policy, False)  # warm-up: caches, lazy imports
        offs, ons = [], []
        for _ in range(3):
            offs.append(one(policy, False))
            ons.append(one(policy, True))
        total_off += min(offs)
        total_on += min(ons)
    overhead = total_on / total_off - 1.0
    assert overhead < 0.15, \
        f"{kind} overhead {overhead:.1%} exceeds the 15% budget"
