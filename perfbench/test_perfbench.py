"""Self-tests of the repo benchmark (``python3 -m pytest perfbench``).

They run each workload shrunk to one short volume, so the whole file
takes well under a minute; the full-size workloads run only through
``run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time

import pytest

import compare
import replaybench as rb
from layertrace import LayerTracer
from repro.lss.store import LogStructuredStore
from repro.obs import profile as obs_profile

BENCHMARK_JSON = os.path.join(rb.ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str, requests: int = 6_000) -> rb.Workload:
    return dataclasses.replace(rb.WORKLOADS[name], volumes=1,
                               traced_volumes=1, requests=requests)


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(rb.WORKLOADS))
def test_auto_engine_matches_scalar_on_a_gc_prefix(name):
    w = rb.WORKLOADS[name]
    traces = rb.generate_traces(dataclasses.replace(w, volumes=3), 3)
    prefix = rb.crosscheck_input(w, traces)
    full = next(t for t in traces if t.volume == prefix.volume)
    assert len(prefix) < len(full)  # a prefix that fills the store
    store = rb.make_store(w, w.policies[0])
    store.replay(prefix, engine="scalar")
    assert store.stats.gc_passes > 0
    assert rb.crosscheck(w, prefix) == []


def test_scalar_crosscheck_catches_a_diverging_engine(monkeypatch):
    w = small("msrc-adapt-instrumented")
    traces = rb.generate_traces(w, 3)
    real = LogStructuredStore.replay

    def skewed(self, trace, finalize=True, engine="auto"):
        stats = real(self, trace, finalize=finalize, engine=engine)
        if engine == "auto":
            stats.gc_passes += 1
        return stats

    monkeypatch.setattr(LogStructuredStore, "replay", skewed)
    errors = rb.crosscheck(w, traces[0][:2_000])
    assert errors and "differ from engine=scalar" in errors[0]


def test_corrupted_store_counts_as_a_failed_replay(monkeypatch):
    w = small("tencent-baselines", requests=2_000)
    traces = rb.generate_traces(w, 3)
    real = LogStructuredStore.replay

    def corrupting(self, trace, finalize=True, engine="auto"):
        stats = real(self, trace, finalize=finalize, engine=engine)
        mapped = (self.mapping >= 0).nonzero()[0]
        self.mapping[mapped[0]] = self.mapping[mapped[1]]
        return stats

    out = rb.Outcome()
    rb.replay_cell(w, traces, (0, "sepgc"), out)
    assert (out.attempted, out.failed) == (1, 0)
    monkeypatch.setattr(LogStructuredStore, "replay", corrupting)
    rb.replay_cell(w, traces, (0, "dac"), out)
    assert (out.attempted, out.failed) == (2, 1)
    assert "store invariants" in out.errors[0]


def test_raising_replay_counts_as_failed(monkeypatch):
    w = small("tencent-baselines", requests=500)
    traces = rb.generate_traces(w, 3)

    def boom(self, trace, finalize=True, engine="auto"):
        raise RuntimeError("injected")

    monkeypatch.setattr(LogStructuredStore, "replay", boom)
    out = rb.Outcome()
    rb.replay_cell(w, traces, (0, "mida"), out)
    assert out.failed == 1 and "injected" in out.errors[0]


def test_another_seed_gives_another_trace_fingerprint():
    w = small("msrc-adapt-instrumented", requests=1_000)
    a = rb.fingerprint(w, 1, rb.generate_traces(w, 1))
    a2 = rb.fingerprint(w, 1, rb.generate_traces(w, 1))
    b = rb.fingerprint(w, 2, rb.generate_traces(w, 2))
    assert a["trace_sha256"] == a2["trace_sha256"]
    assert a["trace_sha256"] != b["trace_sha256"]
    assert a["config_sha256"] == b["config_sha256"]


def test_tracer_restores_every_patched_attribute():
    from repro.trace.synthetic import cloud
    from repro.lss.group import Group
    before = (dict(vars(LogStructuredStore)), dict(vars(Group)),
              cloud.generate_volume, obs_profile.current())
    with LayerTracer() as tracer:
        assert LogStructuredStore.tick is not before[0]["tick"]
        assert tracer._patches
    after = (dict(vars(LogStructuredStore)), dict(vars(Group)),
             cloud.generate_volume, obs_profile.current())
    assert after == before


def test_self_time_check_flags_an_overrun():
    tracer = LayerTracer()
    tracer._account("x")[0] = 10
    tracer.installed_ns = 5
    assert "more than the traced wall" in tracer.check_self_times()


def test_nested_wrappers_partition_time_and_count_outermost_calls():
    tracer = LayerTracer()
    inner = tracer._fine(lambda: time.sleep(0.002), "inner")

    def recurse(depth):
        if depth:
            return outer(depth - 1)
        return inner()

    outer = tracer._fine(recurse, "outer")
    t0 = time.perf_counter_ns()
    outer(2)
    wall = time.perf_counter_ns() - t0
    assert (tracer.calls("outer"), tracer.calls("inner")) == (1, 1)
    assert tracer.self_seconds("inner") >= 0.002
    assert (tracer.self_seconds("outer") + tracer.self_seconds("inner")
            <= wall / 1e9)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One shrunk traced run per workload: (workload, result, path)."""
    out = {}
    for name in sorted(rb.WORKLOADS):
        path = str(tmp_path_factory.mktemp("trace") / f"{name}.trace.json")
        out[name] = (rb.run_traced(small(name), 5, path), path)
    return out


def test_traced_runs_are_correct(traced):
    for name, (result, _path) in traced.items():
        assert result["outcome"].failed == 0, (name,
                                               result["outcome"].errors)


def test_trace_file_loads_in_analyze_cli(traced, capsys):
    from repro.cli import main as cli_main
    _result, path = traced["msrc-adapt-instrumented"]
    assert cli_main(["analyze", "--trace", path]) == 0
    assert "replay" in capsys.readouterr().out


def test_layers_do_work_where_expected(traced):
    msrc = traced["msrc-adapt-instrumented"][0]["metrics"]
    for name in ("core.ladder_records", "core.demotion_lookups",
                 "placement.calls", "perf.engine.chunks",
                 "lss.store.tick_calls", "obs.recorder_calls"):
        assert msrc[name][0] > 0, name
    # The shrunk read-heavy msrc volume never fills the store; the
    # tencent one does, so GC is checked there.
    ten = traced["tencent-baselines"][0]["metrics"]
    for name in ("lss.gc.victims", "lss.victim.selects", "perf.expand.s"):
        assert ten[name][0] > 0, name
    assert ten["core.ladder_records"][0] == 0


def test_emitted_names_are_valid_and_declared(traced, declared):
    untraced = rb.run_untraced(small("tencent-baselines", 2_000), 5, 0)
    assert untraced["outcome"].failed == 0, untraced["outcome"].errors
    assert untraced["metrics"]["blocks_per_calib"][0] > 0
    e2e = {m["name"] for m in declared["end_to_end"]}
    layer = {m["name"] for m in declared["per_layer"]}
    assert set(untraced["metrics"]) == e2e
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    for result, _path in traced.values():
        assert set(result["metrics"]) == layer
    for result in [untraced] + [r for r, _p in traced.values()]:
        for name, (_value, unit) in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert unit == units[name], name
    for name in units:
        assert NAME.fullmatch(name), name


def test_compare_refuses_records_of_different_traces():
    w = small("msrc-adapt-instrumented", requests=1_000)
    rec = {s: {"trace": 0, "fingerprint":
               rb.fingerprint(w, s, rb.generate_traces(w, s)),
               "exact": {"wa": 2.0}, "metrics": {}} for s in (1, 2)}
    lines, code = compare.compare(rec[1], rec[2])
    assert code == 2 and "refusing" in lines[0]
    lines, code = compare.compare(rec[1], dict(rec[1], exact={"wa": 2.5}))
    assert code == 1
