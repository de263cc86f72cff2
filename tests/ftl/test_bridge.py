"""Store-to-FTL bridge and the §3.1 multi-stream claim."""

import pytest

from repro.experiments.runner import store_config_for
from repro.ftl.bridge import StreamBridge, measure_device_wa
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.synthetic.ycsb import generate_ycsb_a


@pytest.fixture(scope="module")
def small_cfg():
    return LSSConfig(logical_blocks=4096, segment_blocks=64)


@pytest.fixture(scope="module")
def trace():
    return generate_ycsb_a(4096, 15_000, seed=6, read_ratio=0.0,
                           density=30.0)


def test_bridge_receives_every_flushed_block(small_cfg, trace):
    policy = make_policy("sepgc", small_cfg)
    store = LogStructuredStore(small_cfg, policy)
    bridge = StreamBridge(store, multi_stream=True)
    stats = store.replay(trace)
    # Every block the array wrote was programmed on the device.
    assert bridge.ftl.host_pages == stats.flash_blocks_written
    bridge.ftl.check_invariants()


def test_detach_stops_feed(small_cfg, trace):
    policy = make_policy("sepgc", small_cfg)
    store = LogStructuredStore(small_cfg, policy)
    bridge = StreamBridge(store, multi_stream=True)
    bridge.detach()
    store.replay(trace)
    assert bridge.ftl.host_pages == 0


def test_multi_stream_lowers_device_wa(small_cfg, trace):
    """§3.1: mapping groups to streams one-to-one reduces in-device WA."""
    multi = measure_device_wa("sepbit", trace, small_cfg, multi_stream=True)
    single = measure_device_wa("sepbit", trace, small_cfg,
                               multi_stream=False)
    assert multi.host_wa == pytest.approx(single.host_wa)  # same host run
    assert multi.device_wa <= single.device_wa + 1e-9
    assert multi.end_to_end_wa <= single.end_to_end_wa + 1e-9
    assert multi.label == "multi-stream"


def test_device_wa_at_least_one(small_cfg, trace):
    res = measure_device_wa("adapt", trace, small_cfg, multi_stream=True)
    assert res.device_wa >= 1.0
    assert res.end_to_end_wa >= res.host_wa


@pytest.fixture(scope="module")
def guard_trace():
    return generate_ycsb_a(2048, 10_000, density=30.0, read_ratio=0.0,
                           seed=21)


def _bridged_replay(scheme, trace, engine):
    cfg = store_config_for(2048)
    store = LogStructuredStore(cfg, make_policy(scheme, cfg))
    bridge = StreamBridge(store, multi_stream=True)
    store.replay(trace, engine=engine)
    return bridge.ftl


@pytest.mark.parametrize("scheme", ["sepgc", "dac"])
def test_flush_listeners_force_scalar_replay(scheme, guard_trace):
    """A store with flush listeners replays on the scalar loop.  The
    batched engine does not reproduce the scalar loop's listener calls:
    without this guard the host page count still matches, but the device
    WA drifts (sepgc 1.012 -> 1.004 on this input)."""
    auto = _bridged_replay(scheme, guard_trace, "auto")
    scalar = _bridged_replay(scheme, guard_trace, "scalar")
    assert auto.host_pages == scalar.host_pages
    assert auto.device_write_amplification() == \
        scalar.device_write_amplification()
    with pytest.raises(ValueError, match="flush listeners"):
        _bridged_replay(scheme, guard_trace, "batched")
