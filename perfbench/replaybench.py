"""Replay workloads, output checks and result fingerprints of the repo
benchmark (see README.md in this directory).

A workload is a set of (volume trace, placement policy) cells.  The
traces come from :func:`repro.trace.synthetic.cloud.generate_fleet`
called with the benchmark's seed (never through the on-disk trace
cache); each cell replays through the public
:class:`~repro.lss.store.LogStructuredStore` API on a fresh store.

:func:`run_untraced` measures the end-to-end metrics with tracing off;
:func:`run_traced` measures one untraced pass and one pass under
:class:`layertrace.LayerTracer` and derives the per-layer metrics.
Both check every replay's output outside the timer and count a replay
that raises or fails a check as failed.
"""

from __future__ import annotations

import dataclasses
import gc as pygc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import store_config_for
from repro.experiments.scale import DEFAULT
from repro.common.rng import tenant_rng
from repro.experiments.workloads import BASELINES, FLEET_SEED
from repro.lss.store import LogStructuredStore
from repro.obs.attribution import CAUSE_CANDIDATE, AttributionRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.trace.model import OP_WRITE, Trace
from repro.trace.synthetic import cloud

from layertrace import ChunkLog, LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which volumes, which policies, which store
    configuration, and which recorders ride along."""

    name: str
    profile: str
    policies: tuple[str, ...]
    victim: str
    volumes: int
    #: Volumes replayed by the traced run (a prefix of the fleet).
    traced_volumes: int
    instrumented: bool = False
    requests: int = DEFAULT.volume_requests


WORKLOADS = {w.name: w for w in (
    Workload("tencent-baselines", "tencent", BASELINES, "greedy",
             volumes=3, traced_volumes=1),
    Workload("msrc-adapt-instrumented", "msrc", ("adapt",), "cost-benefit",
             volumes=16, traced_volumes=3, instrumented=True),
)}

#: The engine cross-check replays a prefix of the first volume whose
#: writes fill the store's physical space this many times (so GC runs).
CROSSCHECK_FILLS = 1.5
#: Seed of the volumes' profile draws: the experiments' fleet seed, so
#: the benchmark's volumes have the figure drivers' profiles.
SPEC_SEED = FLEET_SEED
#: Set-up repetitions per run, spread over the timed window so that
#: their median sees the same host as the replays; ``setup_s`` is it.
SETUP_REPEATS = 7
#: Loop count of the calibration kernel (about 40 ms on a 2020s x86
#: server core).
CALIBRATION_ITERS = 500_000


# ----------------------------------------------------------------------
# inputs and stores
# ----------------------------------------------------------------------
def generate_traces(w: Workload, seed: int) -> list[Trace]:
    """The workload's volume traces for ``seed``.

    This is :func:`cloud.generate_fleet`'s per-volume loop with the two
    seeds split: each volume's profile draw (rate, skew, read ratio) is
    keyed on :data:`SPEC_SEED`, so the workload's mix of volumes is
    fixed, while its request stream is keyed on ``seed``.  With
    ``seed == SPEC_SEED`` the traces equal ``generate_fleet``'s.
    ``generate_volume`` is looked up through the module so the traced
    run's wrapper sees each call.
    """
    profile = cloud.profile_by_name(w.profile)
    traces = []
    for i in range(w.volumes):
        name = f"{profile.name}-{i:03d}"
        spec = cloud.VolumeSpec.draw(profile, name, DEFAULT.volume_blocks,
                                     w.requests,
                                     tenant_rng(SPEC_SEED, name, "spec"))
        traces.append(cloud.generate_volume(
            spec, rng=tenant_rng(seed, name, "data")))
    return traces


def cells(w: Workload, traces: list[Trace]) -> list[tuple[int, str]]:
    return [(v, p) for v in range(len(traces)) for p in w.policies]


def store_config(w: Workload):
    return store_config_for(DEFAULT.volume_blocks, victim=w.victim)


def make_store(w: Workload, policy: str,
               attribution: AttributionRecorder | None = None
               ) -> LogStructuredStore:
    """A fresh store for one replay.  Instrumented workloads get the
    default metrics recorder and an attribution recorder, as
    ``adapt-repro obs --attribution`` does."""
    cfg = store_config(w)
    recorder = None
    if w.instrumented:
        recorder = ObsRecorder()
        if attribution is None:
            attribution = AttributionRecorder()
    return LogStructuredStore(cfg, make_policy(policy, cfg),
                              recorder=recorder, attribution=attribution)


def setup(w: Workload, seed: int) -> tuple[list[Trace], float]:
    """Generate the traces and build one store per cell.  Returns the
    traces and the seconds it took."""
    pygc.collect()
    t0 = time.perf_counter()
    traces = generate_traces(w, seed)
    _stores = [make_store(w, p) for _v, p in cells(w, traces)]
    dt = time.perf_counter() - t0
    return traces, dt


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def trace_hashes(traces: list[Trace]) -> list[str]:
    out = []
    for t in traces:
        h = hashlib.sha256(t.volume.encode())
        for arr in (t.timestamps, t.ops, t.offsets, t.sizes):
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        out.append(h.hexdigest())
    return out


def _git_revision() -> str | None:
    # Only the checkout's own repository: git would otherwise report
    # whatever repository encloses a plain source tree.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


def _source_sha256() -> str:
    """Hash of every program source file: the code revision where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(w: Workload, seed: int, traces: list[Trace]) -> dict:
    """What a result was measured on: the trace content, the store
    configuration, the seed, the code and the interpreter."""
    per_volume = trace_hashes(traces)
    config = dataclasses.asdict(store_config(w))
    return {
        "workload": w.name,
        "seed": seed,
        "trace_sha256": hashlib.sha256(
            "".join(per_volume).encode()).hexdigest(),
        "volume_sha256": dict(zip((t.volume for t in traces), per_volume)),
        "config_sha256": hashlib.sha256(
            repr(sorted(config.items())).encode()).hexdigest(),
        "config": config,
        "policies": list(w.policies),
        "volumes": w.volumes,
        "requests_per_volume": w.requests,
        "instrumented": w.instrumented,
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def stats_signature(stats) -> tuple:
    """Every counter of a replay's StoreStats, per-group traffic included:
    two replays of one input must agree on all of it."""
    return (tuple(sorted(stats.summary().items())),
            tuple(dataclasses.astuple(g) for g in stats.groups))


def check_replay(store: LogStructuredStore) -> list[str]:
    """Errors in a finished replay's output (empty when it is correct)."""
    errors = []
    try:
        store.check_invariants()
    except AssertionError as exc:
        errors.append(f"store invariants: {exc}")
    stats = store.stats
    if stats.user_blocks_written != stats.user_blocks_requested:
        errors.append(f"user blocks written {stats.user_blocks_written} "
                      f"!= requested {stats.user_blocks_requested}")
    return errors


def crosscheck_input(w: Workload, traces: list[Trace]) -> Trace:
    """The engine cross-check's input: the shortest prefix of the first
    volume whose writes fill the physical space :data:`CROSSCHECK_FILLS`
    times, so GC runs in it.  Read-heavy volumes that never write that
    much are skipped; if all are, the most-written whole volume."""
    need = CROSSCHECK_FILLS * store_config(w).physical_blocks
    for trace in traces:
        written = np.cumsum(np.where(trace.ops == OP_WRITE, trace.sizes, 0))
        if written[-1] >= need:
            return trace[:int(np.searchsorted(written, need)) + 1]
    return max(traces, key=lambda t: t.total_write_blocks())


def crosscheck(w: Workload, trace: Trace) -> list[str]:
    """Replay ``trace`` under ``engine="auto"`` and ``engine="scalar"``
    for every policy: the timed engine must give the reference loop's
    stats."""
    errors = []
    for policy in w.policies:
        sigs = {}
        for engine in ("auto", "scalar"):
            store = make_store(w, policy)
            try:
                store.replay(trace, engine=engine)
            except Exception as exc:  # reported like a failed replay
                errors.append(f"{policy} {engine}: replay raised "
                              f"{type(exc).__name__}: {exc}")
                continue
            errors += [f"{policy} {engine}: {e}"
                       for e in check_replay(store)]
            sigs[engine] = stats_signature(store.stats)
        if len(sigs) == 2 and sigs["auto"] != sigs["scalar"]:
            errors.append(f"{policy}: engine=auto stats differ from "
                          f"engine=scalar on {trace.volume}"
                          f"[:{len(trace)}]")
    return errors


# ----------------------------------------------------------------------
# timed replays
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Host seconds of one run of the calibration kernel: fixed
    pure-Python integer arithmetic that shares no code with the program
    and allocates no garbage-collected objects, so only the host's
    current speed moves it.  On a shared host that speed drifts by up
    to 2x over tens of seconds; replay time over kernel time does not
    (see README.md, "Calibrated throughput")."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Outcome:
    """Replays attempted and failed, errors, and per-cell results."""

    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    #: cell -> successful replay seconds
    times: dict = dataclasses.field(default_factory=dict)
    #: cell -> the same replays' seconds over the mean calibration
    #: kernel time just before and just after each
    calibrated: dict = dataclasses.field(default_factory=dict)
    #: cell -> stats signature of its first successful replay
    exact: dict = dataclasses.field(default_factory=dict)
    #: cell -> user blocks requested
    blocks: dict = dataclasses.field(default_factory=dict)
    #: cell -> (user, flash, padding, gc) blocks
    traffic: dict = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check(self, errors: list[str]) -> None:
        """Count one checked step, failed when it reported errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


def replay_cell(w: Workload, traces: list[Trace], cell: tuple[int, str],
                out: Outcome, attribution=None,
                tracer: LayerTracer | None = None) -> LogStructuredStore:
    """Replay one cell on a fresh store, timing only ``store.replay``;
    check its output, record it in ``out`` and return the store."""
    v, policy = cell
    trace = traces[v]
    label = f"{trace.volume}/{policy}"
    store = make_store(w, policy, attribution)
    pygc.collect()
    out.attempted += 1
    try:
        if tracer is None:
            t0 = time.perf_counter()
            store.replay(trace)
            dt = time.perf_counter() - t0
        else:
            with tracer.span("replay", volume=trace.volume, policy=policy):
                t0 = time.perf_counter()
                store.replay(trace)
                dt = time.perf_counter() - t0
    except Exception as exc:  # a raising replay is a failed replay
        out.fail(f"{label}: replay raised {type(exc).__name__}: {exc}")
        return store
    problems = check_replay(store)
    sig = stats_signature(store.stats)
    if out.exact.setdefault(cell, sig) != sig:
        problems.append("stats differ from an earlier replay of the "
                        "same input")
    if problems:
        out.fail(f"{label}: " + "; ".join(problems))
        return store
    stats = store.stats
    out.times.setdefault(cell, []).append(dt)
    out.blocks[cell] = stats.user_blocks_requested
    out.traffic[cell] = (stats.user_blocks_requested,
                         stats.flash_blocks_written,
                         stats.padding_blocks_written,
                         stats.gc_blocks_written)
    return store


def warm_up(w: Workload, traces: list[Trace], cell: tuple[int, str],
            out: Outcome, attribution=None) -> None:
    """One untimed replay of ``cell`` before timing starts: the first
    replays in a process run measurably slower (heap growth, first-call
    set-up), which users of a long-running replay do not pay each time.
    Its output is checked like any replay and seeds the cell's
    identity check."""
    warm = Outcome()
    replay_cell(w, traces, cell, warm, attribution)
    out.check(warm.errors)
    out.exact.update(warm.exact)


def exact_ratios(out: Outcome) -> dict[str, float]:
    """Traffic-weighted WA, padding and GC ratios over the cells."""
    user, flash, pad, gcb = (sum(t[i] for t in out.traffic.values())
                             for i in range(4))
    return {"wa": flash / user if user else 0.0,
            "padding_ratio": pad / flash if flash else 0.0,
            "gc_ratio": gcb / flash if flash else 0.0}


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w: Workload, seed: int, seconds: float) -> dict:
    """Set-up, cross-check, then round-robin replays over the cells until
    every cell ran once and ``seconds`` have passed.  The set-up is
    repeated :data:`SETUP_REPEATS` times in all, the later ones between
    replays at even intervals of the timed window, and must give the
    same traces each time.  Returns the result record."""
    traces, first_setup = setup(w, seed)
    hashes = trace_hashes(traces)
    setup_times = [first_setup]
    out = Outcome()
    out.check(crosscheck(w, crosscheck_input(w, traces)))
    todo = cells(w, traces)
    warm_up(w, traces, todo[0], out)

    def setup_again() -> None:
        again, dt = setup(w, seed)
        setup_times.append(dt)
        out.check([] if trace_hashes(again) == hashes else
                  ["trace generation is not deterministic for one seed"])

    kernels = [calibration_s()]
    start = time.perf_counter()
    replays = 0
    while replays < len(todo) or time.perf_counter() - start < seconds:
        cell = todo[replays % len(todo)]
        done = len(out.times.get(cell, ()))
        replay_cell(w, traces, cell, out)
        kernels.append(calibration_s())
        if len(out.times.get(cell, ())) > done:
            out.calibrated.setdefault(cell, []).append(
                out.times[cell][-1] / ((kernels[-2] + kernels[-1]) / 2))
        replays += 1
        if (time.perf_counter() - start >= seconds * len(setup_times)
                / SETUP_REPEATS and len(setup_times) < SETUP_REPEATS):
            setup_again()
            kernels.append(calibration_s())
    while len(setup_times) < SETUP_REPEATS:
        setup_again()
    measured = time.perf_counter() - start
    # Per-cell means (each cell weighs the same however often it ran);
    # throughput over the cells that succeeded.
    mean = {c: statistics.mean(ts) for c, ts in out.times.items()}
    mean_cal = {c: statistics.mean(ts) for c, ts in out.calibrated.items()}
    total_blocks = sum(out.blocks[c] for c in mean)
    total_s = sum(mean.values())
    total_cal = sum(mean_cal.values())
    metrics = {
        "blocks_per_calib": (total_blocks / total_cal if total_cal else 0.0,
                             "blocks/calib"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    ratios = exact_ratios(out)
    metrics.update((k, (v, "ratio")) for k, v in ratios.items())
    return {
        "fingerprint": fingerprint(w, seed, traces),
        "metrics": metrics,
        "exact": ratios,
        "outcome": out,
        # Printed and recorded, but not bounded: host drift moves it.
        "unbounded": {"blocks_per_s": (
            total_blocks / total_s if total_s else 0.0, "blocks/s")},
        "detail": {
            "measured_s": measured,
            "setup_times_s": setup_times,
            "calibration_s": kernels,
            "replays": replays,
            "cells": {f"{traces[v].volume}/{p}":
                      {"mean_s": s, "mean_calib": mean_cal[(v, p)],
                       "blocks": out.blocks[(v, p)],
                       "replays": len(out.times[(v, p)])}
                      for (v, p), s in mean.items()},
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def run_traced(w: Workload, seed: int, trace_path: str) -> dict:
    """One untraced and one traced pass over the first
    ``w.traced_volumes`` volumes; per-layer metrics from the traced one.
    Writes the Chrome trace to ``trace_path``.

    Every replay here attaches a :class:`ChunkLog`, for the chunk
    metrics, so on the workloads without recorders attribution is on in
    both passes and ``tracing_overhead`` compares like with like: it
    measures the wrappers only."""
    from repro.obs.analyze import analyze, load_chrome_trace

    tracer = LayerTracer()
    with tracer:
        traces = generate_traces(w, seed)
    out = Outcome()
    out.check(crosscheck(w, crosscheck_input(w, traces)))
    todo = [c for c in cells(w, traces) if c[0] < w.traced_volumes]
    warm_up(w, traces, todo[0], out, ChunkLog())
    for cell in todo:
        replay_cell(w, traces, cell, out, attribution=ChunkLog())
    untraced_s = sum(out.times[c][0] for c in todo if c in out.times)

    traced = Outcome()
    traced.exact = dict(out.exact)  # tracing must not change any output
    counters: dict[str, int] = {}
    widths: list[int] = []
    scalar_blocks = 0
    causes: dict[str, int] = {}
    with tracer:
        for cell in todo:
            log = ChunkLog()
            store = replay_cell(w, traces, cell, traced, attribution=log,
                                tracer=tracer)
            if cell not in traced.times:
                continue
            _read_counters(store, counters)
            widths += log.chunk_blocks
            scalar_blocks += log.scalar_blocks
            for cause, agg in log.chunk_causes.items():
                causes[cause] = causes.get(cause, 0) + agg[0]
    traced_s = sum(traced.times[c][0] for c in todo if c in traced.times)
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.errors += traced.errors

    problem = tracer.check_self_times()
    out.check([problem] if problem else [])
    fp = fingerprint(w, seed, traces)
    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    tracer.write_chrome_trace(trace_path, {"fingerprint": fp})
    try:
        report = analyze(trace=load_chrome_trace(trace_path))
        out.check([] if report["profile"]["ranked"]
                  else [f"analyze found no phases in {trace_path}"])
    except (OSError, ValueError, KeyError) as exc:
        out.check([f"analyze cannot load {trace_path}: {exc}"])

    overhead = traced_s / untraced_s if untraced_s else 0.0
    metrics = layer_metrics(tracer, counters, widths, scalar_blocks,
                            causes, overhead)
    return {"fingerprint": fp, "metrics": metrics, "outcome": out,
            "exact": exact_ratios(traced),
            "detail": {"traced_cells": len(todo), "untraced_s": untraced_s,
                       "traced_s": traced_s,
                       "dropped_spans": tracer.dropped_spans,
                       "trace_file": os.path.relpath(trace_path, ROOT)}}


def _read_counters(store: LogStructuredStore, acc: dict) -> None:
    """Add the counts the program keeps itself to ``acc``."""
    stats = store.stats
    policy = store.policy
    agg = getattr(policy, "aggregator", None)
    dem = getattr(policy, "demotion", None)
    values = {
        "user_blocks": stats.user_blocks_requested,
        "flash_blocks": stats.flash_blocks_written,
        "padding_blocks": stats.padding_blocks_written,
        "gc_migrated": stats.gc_blocks_migrated,
        "gc_victims": stats.gc_segments_reclaimed,
        "chunk_flushes": sum(g.chunk_flushes for g in stats.groups),
        "deadline_flushes": sum(g.deadline_flushes for g in stats.groups),
        "agg_shadow_appends": agg.shadow_appends if agg else 0,
        "agg_declined": agg.declined if agg else 0,
        "demotion_lookups": dem.lookups if dem else 0,
        "demotions": dem.demotions if dem else 0,
        "adaptations": len(getattr(policy, "adaptation_log", ())),
    }
    for k, v in values.items():
        acc[k] = acc.get(k, 0) + v


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: LayerTracer, c: dict, widths: list[int],
                  scalar_blocks: int, causes: dict,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit).  ``*_s`` are self times."""
    s = tr.self_seconds
    n = tr.counts.get
    g = c.get
    chunks = len(widths)
    place_calls = tr.calls("placement")
    gc_victims = g("gc_victims", 0)
    attempts = g("agg_shadow_appends", 0) + g("agg_declined", 0)
    return {
        "trace.generate_s": (s("trace.generate"), "s"),
        "perf.expand.s": (s("perf.expand"), "s"),
        "perf.engine.chunk_build_s": (s("perf.engine.chunk_build"), "s"),
        "perf.engine.apply_s": (s("perf.engine.apply"), "s"),
        "perf.engine.scalar_burst_s": (s("perf.engine.scalar_burst"), "s"),
        "perf.engine.chunks": (chunks, "count"),
        "perf.engine.blocks_per_chunk_p50": (
            statistics.median(widths) if widths else 0.0, "blocks"),
        "perf.engine.batched_block_share": (
            _ratio(sum(widths), sum(widths) + scalar_blocks), "ratio"),
        "perf.engine.narrowing_share": (
            _ratio(causes.get(CAUSE_CANDIDATE, 0), chunks), "ratio"),
        "placement.s": (s("placement"), "s"),
        "placement.calls": (place_calls, "count"),
        "placement.blocks_per_call": (
            _ratio(n("placement.blocks", 0), place_calls), "blocks"),
        "core.sampler_s": (s("core.sampler"), "s"),
        "core.sampled_share": (_ratio(n("core.sampler_sampled", 0),
                                      n("core.sampler_examined", 0)),
                               "ratio"),
        "core.distance_s": (s("core.distance"), "s"),
        "core.ladder_s": (s("core.ladder"), "s"),
        "core.ladder_records": (n("core.ladder_records", 0), "count"),
        "core.demotion_s": (s("core.demotion"), "s"),
        "core.demotion_lookups": (g("demotion_lookups", 0), "count"),
        "core.demotion_hit_ratio": (_ratio(g("demotions", 0),
                                           g("demotion_lookups", 0)),
                                    "ratio"),
        "core.aggregation_s": (s("core.aggregation"), "s"),
        "core.aggregation_attempts": (attempts, "count"),
        "core.aggregation_success_ratio": (
            _ratio(g("agg_shadow_appends", 0), attempts), "ratio"),
        "core.adaptations": (g("adaptations", 0), "count"),
        "lss.store.write_s": (s("lss.store.write"), "s"),
        "lss.store.tick_s": (s("lss.store.tick"), "s"),
        "lss.store.tick_calls": (tr.calls("lss.store.tick"), "count"),
        "lss.store.tick_fires": (n("lss.store.tick_fires", 0), "count"),
        "lss.store.finalize_s": (s("lss.store.finalize"), "s"),
        "lss.group.append_s": (s("lss.group.append"), "s"),
        "lss.group.flush_s": (s("lss.group.flush"), "s"),
        "lss.group.appended_blocks": (
            g("flash_blocks", 0) - g("padding_blocks", 0), "blocks"),
        "lss.group.chunk_flushes": (g("chunk_flushes", 0), "count"),
        "lss.group.deadline_flushes": (g("deadline_flushes", 0), "count"),
        "lss.group.padding_blocks": (g("padding_blocks", 0), "blocks"),
        "lss.segment.invalidate_s": (s("lss.segment.invalidate"), "s"),
        "lss.segment.invalidated_blocks": (
            n("lss.segment.invalidated_blocks", 0), "blocks"),
        "lss.gc.runs": (tr.calls("lss.gc"), "count"),
        "lss.gc.victims": (gc_victims, "count"),
        "lss.gc.migrate_s": (s("lss.gc"), "s"),
        "lss.gc.migrated_blocks": (g("gc_migrated", 0), "blocks"),
        "lss.gc.valid_per_victim": (_ratio(g("gc_migrated", 0), gc_victims),
                                    "blocks"),
        "lss.victim.select_s": (s("lss.victim.select"), "s"),
        "lss.victim.selects": (tr.calls("lss.victim.select"), "count"),
        "obs.recorder_s": (s("obs.recorder"), "s"),
        "obs.recorder_calls": (tr.calls("obs.recorder"), "count"),
        "obs.attribution_s": (s("obs.attribution"), "s"),
        "replay.self_s": (s("replay"), "s"),
        "tracing_overhead": (overhead, "ratio"),
    }
