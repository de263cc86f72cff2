"""Per-layer self-time tracer for the replay benchmark.

The tracer times the calls into each layer's public functions from the
outside: :meth:`LayerTracer.install` swaps timing wrappers into class
and module attributes, records every swap, and :meth:`uninstall` puts
the originals back.  Nothing under ``src/`` knows it is being traced.

Accounting is by *self time*: every wrapped call pushes a frame on one
stack, and on return its duration minus the time of the wrapped calls
nested inside it is charged to its layer key, while its whole duration
is charged to the caller's child total.  Self times therefore partition
the time of the outermost spans, so their sum can never exceed the
traced wall time (:meth:`LayerTracer.check_self_times`).

Per-block calls (placement, appends, invalidations, ticks, sampler
probes, ...) only aggregate into per-key time and counts.  Coarse calls
also keep a span record (name, start, duration, id, parent id): one
replay, one trace-generation call, one GC run, one tick that fired a
deadline, and the engine's expand / scalar-burst / finalize phases.
Engine phases arrive through the program's own
:class:`~repro.obs.profile.PhaseProfiler` hook: :class:`PhaseBridge`
is installed with ``profile.set_current`` and forwards each phase span
into the tracer's stack.  Spans export as Chrome ``trace_event`` JSON,
the format ``adapt-repro analyze --trace`` loads.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.core.aggregation import CrossGroupAggregator
from repro.core.demotion import ProactiveDemotion
from repro.core.distance import DistanceTracker
from repro.core.policy import AdaptPolicy
from repro.core.sampling import SpatialSampler
from repro.core.threshold import ThresholdLadder
from repro.lss.gc import GarbageCollector
from repro.lss.group import Group
from repro.lss.segment import SegmentPool
from repro.lss.store import LogStructuredStore
from repro.lss.victim import VictimPolicy
from repro.obs import profile as obs_profile
from repro.obs.attribution import CAUSE_SCALAR_FALLBACK, AttributionRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.base import PlacementPolicy
from repro.trace.synthetic import cloud

#: PhaseProfiler phase name -> (layer key, keep a span record?).
#: chunk_build and apply run once per chunk, so they only aggregate.
PHASE_LAYERS = {
    "expand": ("perf.expand", True),
    "chunk_build": ("perf.engine.chunk_build", False),
    "apply": ("perf.engine.apply", False),
    "scalar_burst": ("perf.engine.scalar_burst", True),
    "gc": ("lss.gc", True),
    "finalize": ("lss.store.finalize", True),
}

#: Span records kept for the Chrome trace; later spans still aggregate
#: but are counted in ``LayerTracer.dropped_spans``.
MAX_SPANS = 50_000

_UNSET = object()


class ChunkLog(AttributionRecorder):
    """Attribution sink that also keeps every chunk's written-block count.

    The program's recorder keeps power-of-two width histograms only; the
    benchmark needs the exact per-chunk widths for a true median.
    """

    def __init__(self) -> None:
        super().__init__()
        self.chunk_blocks: list[int] = []
        self.scalar_blocks = 0

    def on_chunk(self, cause: str, requests: int, blocks: int) -> None:
        super().on_chunk(cause, requests, blocks)
        if cause == CAUSE_SCALAR_FALLBACK:
            self.scalar_blocks += blocks
        else:
            self.chunk_blocks.append(blocks)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class _Span:
    """Context-manager form of a coarse wrapper (replay root spans and
    PhaseProfiler phases)."""

    __slots__ = ("_tracer", "_acc", "_name", "_keep", "_args", "_sid",
                 "_t0")

    def __init__(self, tracer: "LayerTracer", key: str, name: str,
                 keep: bool, args: dict) -> None:
        self._tracer = tracer
        self._acc = tracer._account(key)
        self._name = name
        self._keep = keep
        self._args = args

    def __enter__(self) -> "_Span":
        tr = self._tracer
        self._sid = tr._open_span()
        self._t0 = tr._enter(self._acc)
        return self

    def __exit__(self, *exc: Any) -> bool:
        tr = self._tracer
        dur = tr._exit(self._acc, self._t0)
        tr._close_span(self._sid, self._name, self._t0, dur,
                       self._args if self._keep else None, self._keep)
        return False


class PhaseBridge(obs_profile.PhaseProfiler):
    """A PhaseProfiler whose spans are tracer spans.

    Stores capture the process-global profiler at construction, so the
    bridge must be installed (``profile.set_current``) before the traced
    stores are built; :meth:`LayerTracer.install` does both.
    """

    def __init__(self, tracer: "LayerTracer") -> None:
        super().__init__(max_events=0)
        self._tracer = tracer

    def span(self, name: str, **args: Any) -> _Span:
        key, keep = PHASE_LAYERS.get(name, (name, True))
        return _Span(self._tracer, key, name, keep, args)


class LayerTracer:
    """Wrapper-based per-layer accounting with a span list bounded by
    :data:`MAX_SPANS`."""

    def __init__(self) -> None:
        #: Child-time accumulator per open frame; index 0 is the root.
        self._stack: list[int] = [0]
        #: key -> [self_ns, outermost calls, open depth]
        self._acc: dict[str, list[int]] = {}
        #: Named work counters filled by the wrappers' count callbacks.
        self.counts: dict[str, int] = {}
        #: (name, start_ns, dur_ns, span id, parent id, args)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._open: list[int] = [0]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []
        self._profiler_before = None
        self._t0_ns = time.perf_counter_ns()
        self._installed_at = 0
        #: Wall time spent installed (summed over install/uninstall).
        self.installed_ns = 0

    # ------------------------------------------------------------------
    # accounting primitives
    # ------------------------------------------------------------------
    def _account(self, key: str) -> list[int]:
        acc = self._acc.get(key)
        if acc is None:
            acc = self._acc[key] = [0, 0, 0]
        return acc

    def _enter(self, acc: list[int]) -> int:
        """Open a frame charged to ``acc``; returns its start time."""
        acc[2] += 1
        self._stack.append(0)
        return time.perf_counter_ns()

    def _exit(self, acc: list[int], t0: int) -> int:
        """Close the frame opened at ``t0``: charge its self time to
        ``acc``, its whole duration to the enclosing frame, and count an
        outermost call of the key.  Returns the duration."""
        dur = time.perf_counter_ns() - t0
        stack = self._stack
        acc[0] += dur - stack.pop()
        stack[-1] += dur
        acc[2] -= 1
        if acc[2] == 0:
            acc[1] += 1
        return dur

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open_span(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._open.append(sid)
        return sid

    def _close_span(self, sid: int, name: str, t0: int, dur: int,
                    args: dict | None, keep: bool) -> None:
        self._open.pop()
        if not keep:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, t0 - self._t0_ns, dur, sid,
                               self._open[-1], args or {}))
        else:
            self.dropped_spans += 1

    def span(self, key: str, name: str | None = None, **args: Any) -> _Span:
        """A kept span around arbitrary benchmark code (a replay)."""
        return _Span(self, key, name or key, True, args)

    def self_seconds(self, key: str) -> float:
        acc = self._acc.get(key)
        return acc[0] / 1e9 if acc else 0.0

    def calls(self, key: str) -> int:
        acc = self._acc.get(key)
        return acc[1] if acc else 0

    def layer_table(self) -> dict[str, dict]:
        """key -> {"self_s", "calls"} for every key that ran."""
        return {k: {"self_s": v[0] / 1e9, "calls": v[1]}
                for k, v in sorted(self._acc.items())}

    def check_self_times(self) -> str | None:
        """An error message if self times sum past the installed wall."""
        total = sum(v[0] for v in self._acc.values())
        if total > self.installed_ns:
            return (f"layer self times sum to {total / 1e9:.6f} s, more "
                    f"than the traced wall {self.installed_ns / 1e9:.6f} s")
        return None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _fine(self, fn: Callable, key: str,
              count: Callable | None = None) -> Callable:
        """Aggregate-only wrapper.  ``count(tracer, args, result)`` runs
        after each successful outermost call of the key, so a batch call
        that loops over the scalar one (the base ``place_user_batch``)
        counts its blocks once."""
        acc = self._account(key)
        enter, exit_ = self._enter, self._exit
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = enter(acc)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(acc, t0)
            if count is not None and acc[2] == 0:
                count(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _coarse(self, fn: Callable, key: str, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with _Span(tracer, key, name, True, {}):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _tick(self, fn: Callable) -> Callable:
        """``LogStructuredStore.tick``: aggregate every call; keep a span
        and count a fire only when a deadline was due.  The due check is
        the heap-top read ``tick`` itself starts with, made before the
        timer starts."""
        acc = self._account("lss.store.tick")
        enter, exit_ = self._enter, self._exit
        tracer = self

        def wrapper(store, now_us):
            nd = store.next_deadline()
            if nd is None or now_us < nd:
                t0 = enter(acc)
                try:
                    return fn(store, now_us)
                finally:
                    exit_(acc, t0)
            tracer._bump("lss.store.tick_fires")
            with _Span(tracer, "lss.store.tick", "tick.fire",
                       True, {"now_us": now_us}):
                return fn(store, now_us)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        before = owner.__dict__.get(attr, _UNSET) \
            if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, before))
        setattr(owner, attr, wrapper)

    def _wrap_defined(self, classes: list[type], names: tuple[str, ...],
                      key: str, count: Callable | None = None) -> None:
        """Wrap each of ``names`` where one of ``classes`` defines it, so
        inherited methods are wrapped exactly once."""
        for cls in classes:
            for name in names:
                fn = cls.__dict__.get(name)
                if callable(fn):
                    self._patch(cls, name, self._fine(fn, key, count))

    def _wrappers(self) -> None:
        blocks1 = _counter("placement.blocks", lambda a, r: 1)
        self._patch(cloud, "generate_volume",
                    self._coarse(cloud.generate_volume, "trace.generate",
                                 "trace.generate"))
        # Importing repro.placement loaded every baseline class.
        policies = _subclasses(PlacementPolicy)
        self._wrap_defined(policies, ("place_user",), "placement", blocks1)
        self._wrap_defined(
            policies, ("place_user_batch",), "placement",
            _counter("placement.blocks", lambda a, r: len(a[1])))
        self._wrap_defined(
            [SpatialSampler], ("is_sampled",), "core.sampler",
            _counter2("core.sampler_examined", lambda a, r: 1,
                      "core.sampler_sampled", lambda a, r: int(bool(r))))
        self._wrap_defined(
            [SpatialSampler], ("is_sampled_batch",), "core.sampler",
            _counter2("core.sampler_examined", lambda a, r: len(a[1]),
                      "core.sampler_sampled", lambda a, r: int(r.sum())))
        self._wrap_defined([DistanceTracker], ("access", "access_many"),
                           "core.distance")
        self._wrap_defined(
            [ThresholdLadder], ("record",), "core.ladder",
            _counter("core.ladder_records", lambda a, r: 1))
        self._wrap_defined(
            [ThresholdLadder], ("record_batch",), "core.ladder",
            _counter("core.ladder_records", lambda a, r: len(a[1])))
        self._wrap_defined([ThresholdLadder], ("adapt",), "core.ladder")
        self._wrap_defined([ProactiveDemotion],
                           ("demotion_target", "demotion_targets",
                            "account_batch", "on_gc_block"),
                           "core.demotion")
        self._wrap_defined([CrossGroupAggregator],
                           ("try_aggregate", "absorb_before_padding"),
                           "core.aggregation")
        self._wrap_defined([AdaptPolicy], ("before_padding_flush",),
                           "core.aggregation")
        self._patch(LogStructuredStore, "tick",
                    self._tick(LogStructuredStore.tick))
        self._wrap_defined([LogStructuredStore],
                           ("write_block", "apply_user_batch"),
                           "lss.store.write")
        self._wrap_defined([Group],
                           ("append_user", "append_gc", "append_shadow",
                            "append_user_run", "append_gc_run"),
                           "lss.group.append")
        self._wrap_defined([Group],
                           ("poll_deadline", "fire_deadline_fast",
                            "force_flush"),
                           "lss.group.flush")
        self._wrap_defined(
            [SegmentPool], ("invalidate",), "lss.segment.invalidate",
            _counter("lss.segment.invalidated_blocks", lambda a, r: 1))
        self._wrap_defined(
            [SegmentPool], ("invalidate_many",), "lss.segment.invalidate",
            _counter("lss.segment.invalidated_blocks",
                     lambda a, r: len(a[1])))
        self._patch(SegmentPool, "invalidate_all",
                    self._invalidate_all(SegmentPool.invalidate_all))
        self._wrap_defined([GarbageCollector], ("clean_segment",), "lss.gc")
        self._wrap_defined(_subclasses(VictimPolicy), ("select",),
                           "lss.victim.select")
        self._wrap_defined(
            [ObsRecorder],
            tuple(n for n in vars(ObsRecorder)
                  if n.startswith("on_") or n in ("gauge", "count",
                                                  "inc_many")),
            "obs.recorder")
        self._wrap_defined([AttributionRecorder, ChunkLog],
                           ("on_chunk", "on_scalar_burst", "on_gc_victim",
                            "on_finalize"),
                           "obs.attribution")

    def _invalidate_all(self, fn: Callable) -> Callable:
        # The count is the victim's valid slots, read before they clear.
        inner = self._fine(fn, "lss.segment.invalidate")
        tracer = self

        def wrapper(pool, seg):
            tracer._bump("lss.segment.invalidated_blocks",
                         int(pool.valid_count[seg]))
            return inner(pool, seg)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrappers()
        self._profiler_before = obs_profile.current()
        obs_profile.set_current(PhaseBridge(self))
        self._installed_at = time.perf_counter_ns()
        return self

    def uninstall(self) -> None:
        self.installed_ns += time.perf_counter_ns() - self._installed_at
        obs_profile.set_current(self._profiler_before)
        for owner, attr, before in reversed(self._patches):
            if before is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self, other: dict | None = None) -> dict:
        """Chrome ``trace_event`` JSON: kept spans as complete events,
        the per-layer self-time table in ``otherData``."""
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        for name, start, dur, sid, parent, args in self.spans:
            events.append({
                "name": name, "ph": "X", "cat": "layer", "pid": 0,
                "tid": 0, "ts": start / 1000.0, "dur": dur / 1000.0,
                "args": {"id": sid, "parent": parent, **args}})
        data = {"profile_events_dropped": self.dropped_spans,
                "max_events": MAX_SPANS,
                "layers": self.layer_table(),
                "counts": dict(sorted(self.counts.items()))}
        if other:
            data.update(other)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": data}

    def write_chrome_trace(self, path: str, other: dict | None = None) -> str:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.chrome_trace(other), f, separators=(",", ":"))
            f.write("\n")
        return path


def _counter(name: str, units: Callable) -> Callable:
    def count(tracer: LayerTracer, args: tuple, result: Any) -> None:
        tracer._bump(name, units(args, result))
    return count


def _counter2(name_a: str, units_a: Callable,
              name_b: str, units_b: Callable) -> Callable:
    def count(tracer: LayerTracer, args: tuple, result: Any) -> None:
        tracer._bump(name_a, units_a(args, result))
        tracer._bump(name_b, units_b(args, result))
    return count
