"""Batched replay engine and performance tooling.

``repro.perf`` is the simulator's fast path: it turns a trace into a flat
block stream once (:mod:`~repro.perf.expand`) and replays it in
GC-safe/deadline-safe chunks that are bit-identical to the scalar
per-request loop (:mod:`~repro.perf.engine`).

See ``docs/performance.md`` for the design and the equivalence argument.
Throughput is measured outside the package, by the repository benchmark
in ``perfbench/``.
"""

from repro.perf.batch import duplicate_chains
from repro.perf.engine import BatchedReplayEngine
from repro.perf.expand import ExpandedTrace, expand_trace

__all__ = [
    "BatchedReplayEngine",
    "ExpandedTrace",
    "duplicate_chains",
    "expand_trace",
]
