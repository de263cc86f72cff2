"""The batched replay engine.

Replays a trace through a :class:`~repro.lss.store.LogStructuredStore` in
vectorized chunks while staying **bit-identical** to the scalar
per-request loop.  The scalar path interleaves three kinds of events per
block — placement, GC, SLA deadline flushes — so naive batching would let
policy state observed by later blocks drift.  The engine relies on two
proofs about the simulator:

* **Placement is flush-invariant.**  No policy's ``place_user`` reads any
  state mutated by chunk flushes, padding flushes, aggregation, or
  segment seals; placement depends only on policy-local per-LBA metadata
  and ``user_seq``.  A whole chunk can therefore be placed up front
  (:meth:`PlacementPolicy.place_user_batch`) even when SLA deadline
  flushes will fire *inside* it — the flushes change where blocks land
  and the traffic accounting, not which group any block goes to.
* **Placement is NOT GC-invariant** (GC hooks move per-LBA metadata), so
  chunks must be provably GC-free.  Chunks are grown by *increments*
  (:meth:`_build_chunk`): before placing an increment the engine proves,
  for **any** placement of its blocks, that the chunk still cannot trip
  ``GarbageCollector.needed()``; after placing it the bound is
  re-tightened from the actual group ids.  Placed increments are never
  rolled back, so policy metadata advances exactly once per block and no
  rewind is ever needed.  When not even one request passes the check the
  engine runs a short scalar burst, where GC fires natively.

Deadline flushes inside a chunk are reproduced exactly: given the placed
group ids, the per-group pending/timer evolution between fires is pure
arithmetic (``idle`` SLA mode restarts a group's timer at each append and
a chunk-capacity flush clears it), so the engine predicts the next fire
from live buffer state (:meth:`_group_fire`), applies blocks up to the
first request at or past that deadline, runs the store's real ``tick()``
there (firing order, padding, and ADAPT's cross-group aggregation all go
through the legacy machinery), then re-reads buffer state and repeats.
Under ``sla_mode="first"`` or a zero window the engine instead uses
conservative deadline-free chunks bounded by the earliest armed deadline
and ``first_ts + window``.

The chunk-construction and fire-prediction arithmetic deliberately runs
on plain Python ints and lists: the group counts involved are tiny (a
handful of groups, a few dozen requests per SLA window), where NumPy's
per-call dispatch costs more than the work itself.  NumPy is reserved
for the genuinely wide operations — placement, appends, invalidation.

While the engine drives the store it sets ``store.batched_mode``, which
gates the vectorized GC-migration path in
:meth:`~repro.lss.gc.GarbageCollector.clean_segment` and the bulk flush
accounting in :meth:`~repro.lss.group.Group.append_user_run`; the scalar
engine never sets it and keeps the pure per-block reference path.

Preconditions: no flush listeners (the FTL bridge), and observability
either disabled or **batch-capable** (the default
:class:`~repro.obs.ObsRecorder`): the engine and the store's bulk append
paths then feed the recorder chunk-aggregated hooks whose metric totals
are bit-identical to the scalar per-event hooks — the obs-on
engine-equivalence suite compares ``MetricsRegistry.snapshot()`` across
engines to prove it.  Recorders demanding the exact per-event stream
(``trace_events=True``) are rejected; ``store.replay(engine="auto")``
checks all of this and falls back to the scalar loop.  The invariant
auditor is supported at chunk cadence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.obs.attribution import (
    CAUSE_DEADLINE_HORIZON,
    CAUSE_DEADLINE_RESERVE,
    CAUSE_GC_CAPACITY,
    CAUSE_MAX_BLOCKS,
    CAUSE_MAX_REQUESTS,
    CAUSE_TRACE_END,
)
from repro.perf.expand import expand_trace
from repro.trace.model import OP_WRITE, Trace

_NO_FIRE = None

#: Scalar-burst length between re-probes of the batched path.  A burst
#: ends early once GC restores the high watermark; the cap bounds how
#: long the engine stays scalar when the pool hovers between watermarks
#: without GC being triggerable.
_BURST_REQUESTS = 32


class BatchedReplayEngine:
    """Chunked, vectorized replay bound to one store.

    Args:
        store: the target store (fresh or mid-stream; the engine only
            assumes the store's own invariants hold).
        max_chunk_blocks: upper bound on written blocks per chunk, limiting
            transient allocations on huge GC-quiet traces.
        max_chunk_requests: optional upper bound on requests per chunk.
            Chunk feasibility is prefix-closed (a shorter chunk consumes
            strictly less capacity), so ANY cap yields identical final
            state — the property suite sweeps this to prove batch
            boundaries are semantically invisible.
    """

    def __init__(self, store, max_chunk_blocks: int = 65536,
                 max_chunk_requests: int | None = None) -> None:
        if store.flush_listeners:
            raise ValueError(
                "batched replay requires no flush listeners; "
                "use replay(engine='scalar')")
        if store._obs_on and not store.obs.batch_capable:
            raise ValueError(
                "batched replay requires a batch-capable recorder; "
                "per-event observability (trace_events=True) needs "
                "replay(engine='scalar')")
        if max_chunk_blocks < 1:
            raise ValueError("max_chunk_blocks must be >= 1")
        if max_chunk_requests is not None and max_chunk_requests < 1:
            raise ValueError("max_chunk_requests must be >= 1")
        self.store = store
        self.max_chunk_blocks = max_chunk_blocks
        self.max_chunk_requests = max_chunk_requests
        cb = store.config.chunk.chunk_blocks
        #: Worst-case appended blocks per fire site of one group.  A
        #: deadline fire with ``p`` pending blocks pads ``cb - p`` slots;
        #: cross-group aggregation can additionally shadow at most the
        #: ``p`` pending blocks into another group before the pad, so the
        #: two together consume at most ``cb`` appends — and exactly
        #: ``cb - p <= cb - 1`` without an aggregator.
        self._fire_unit = cb \
            if getattr(store.policy, "aggregator", None) is not None \
            else cb - 1
        #: Per-gid flag: does the group hold an SLA coalescing window?
        self._is_sla = [False] * len(store.groups)
        for g in store._sla_groups:
            self._is_sla[g.gid] = True
        #: Groups user placement can route to (the policy's declared
        #: contract): the adversarial capacity bounds quantify over these
        #: only — a group outside the set can never be drained by a chunk.
        self._user_gids = sorted(store.policy.user_placement_gids())
        #: Chunk-bound attribution sink (NULL_ATTRIBUTION by default).
        #: The chunk builders classify, per chunk, which constraint
        #: terminated it and stash it in ``_chunk_cause``; the replay
        #: loop reports it with the chunk's width.  All of it is behind
        #: the cached ``_attr_on`` boolean.
        self._attr = store.attribution
        self._attr_on = store._attr_on
        self._chunk_cause = CAUSE_TRACE_END

    # ------------------------------------------------------------------
    # replay loop
    # ------------------------------------------------------------------
    def replay(self, trace: Trace, finalize: bool = True):
        store = self.store
        prof = store.profiler
        with prof.span("expand"):
            ex = expand_trace(trace, store.config.logical_blocks)
        n = ex.num_requests
        window = store.config.coalesce_window_us
        cb = store.config.chunk.chunk_blocks
        stats = store.stats
        has_sla = bool(store._sla_groups)
        idle_sla = has_sla and store.config.sla_mode == "idle" \
            and window > 0
        # Plain-int columns: the chunk-construction arithmetic and the
        # scalar bursts never touch NumPy scalars.
        self._cols = (trace.ops.tolist(), trace.offsets.tolist(),
                      trace.sizes.tolist(), ex.timestamps.tolist())
        ts = self._cols[3]
        bs = self._bs = ex.block_start.tolist()
        self._btl = ex.block_ts.tolist()
        self._wb = ex.writes_before.tolist()
        # Single-user-group fast build (SepGC/MiDA-shaped policies): with
        # every user block provably bound for one group, chunk capacity is
        # a closed form over write-gap prefix sums instead of the
        # incremental adversarial construction.
        single = (idle_sla or not has_sla) and len(self._user_gids) == 1
        if single:
            widx = np.flatnonzero(trace.ops == OP_WRITE)
            wts = ex.timestamps[widx]
            gaps = np.zeros(widx.shape[0], dtype=np.int64)
            if widx.shape[0] > 1:
                gaps[1:] = np.diff(wts) >= window
            self._widx = widx.tolist()
            self._wts = wts.tolist()
            self._wgap = np.cumsum(gaps).tolist()
        obs_on = store._obs_on
        attr_on = self._attr_on
        attr = self._attr
        store.batched_mode = True
        try:
            i = 0
            while i < n:
                store.tick(ts[i])
                with prof.span("chunk_build"):
                    if single:
                        j, gids = self._build_chunk_single(ex, i, window)
                    elif idle_sla or not has_sla:
                        j, gids = self._build_chunk(ex, i, window)
                    else:
                        j = self._deadline_free_span(ex, i, ts[i], window)
                        gids = None
                if j <= i:
                    # Not even the current request is provably GC-free:
                    # scalar burst, where GC fires natively.  The tick for
                    # request i already ran above — re-ticking could
                    # double-fire a deadline the policy re-armed during
                    # the first scan.
                    with prof.span("scalar_burst"):
                        i2 = self._scalar_burst(i)
                    if attr_on:
                        attr.on_scalar_burst(i2 - i, bs[i2] - bs[i])
                    i = i2
                    continue
                # -- apply the chunk ---------------------------------------
                nwrites = self._wb[j] - self._wb[i]
                nreads = (j - i) - nwrites
                stats.write_requests += nwrites
                stats.read_requests += nreads
                if obs_on and nreads:
                    store.obs.on_read_bulk(nreads, ts[j - 1])
                wb0, wb1 = bs[i], bs[j]
                if wb1 > wb0:
                    lbas = ex.lbas[wb0:wb1]
                    bts = ex.block_ts[wb0:wb1]
                    if gids is None:
                        gids = store.policy.place_user_batch(
                            lbas, bts, store.user_seq)
                    splitter = self._make_splitter(ex, i, j, gids, window,
                                                   cb) if idle_sla else None
                    with prof.span("apply"):
                        store.apply_user_batch(lbas, bts, gids,
                                               splitter=splitter)
                elif idle_sla:
                    # Read-only chunk: no appends can arm anything new, but
                    # already-armed deadlines still fire at the scalar ticks.
                    t_end = ts[j - 1]
                    while True:
                        nd = store.next_deadline()
                        if nd is None or nd > t_end:
                            break
                        store.tick(ts[bisect_left(ts, nd)])
                store.now_us = ts[j - 1]
                if attr_on:
                    attr.on_chunk(self._chunk_cause, j - i, wb1 - wb0)
                i = j
        finally:
            store.batched_mode = False
        if finalize:
            store.finalize()
        return stats

    # ------------------------------------------------------------------
    # incremental chunk construction
    # ------------------------------------------------------------------
    def _build_chunk(self, ex, i: int, window: int):
        """Grow a provably GC-free chunk of requests ``[i, j)`` by placed
        increments; return ``(j, gids)``.

        Each increment spans strictly less than one SLA window, so none of
        its own appends can become a deadline-fire site *inside* the
        increment — the chunk's worst-case fire overhead is computable
        from already-placed blocks alone (pre-chunk pending ``sites``,
        promoted gaps between placed touches, and the trailing gap),
        making the pre-placement check exact on overhead and adversarial
        only on where the increment's blocks land.  After an increment is
        placed the per-group counts, last touches, and fire sites are
        updated from the actual group ids, so the next increment starts
        from a tight bound instead of a whole-chunk worst case.

        Returns ``(i, None)`` when not even the first request fits.
        """
        store = self.store
        pool = store.pool
        sb = pool.segment_blocks
        slack = pool.free_segments - store.config.gc_free_low - 1
        if slack < 0:
            return i, None
        bs = self._bs
        ts = self._cols[3]
        btl = self._btl
        n = ex.num_requests
        if self.max_chunk_requests is not None:
            n = min(n, i + self.max_chunk_requests)
        ngroups = len(store.groups)
        is_sla = self._is_sla
        fire_unit = self._fire_unit
        max_blocks = self.max_chunk_blocks
        # Post-tick snapshot: per-group open-segment headroom, and one
        # reserved fire for every SLA group entering the chunk with
        # pending blocks (its pre-chunk timer may expire mid-chunk).
        fill = pool.fill
        head = [0] * ngroups
        for g in store.groups:
            if g.open_seg is not None:
                head[g.gid] = sb - int(fill[g.open_seg])
        sites = sum(1 for g in store._sla_groups
                    if g.buffer.pending_blocks)
        counts = [0] * ngroups
        last_tb = [0] * ngroups
        wb_chunk = bs[i]

        user_gids = self._user_gids
        nuser = len(user_gids)

        def cap_parts(t_end: int) -> tuple[int, int]:
            """``(capacity, fire_reserve)`` for additional blocks placed on
            any user-placeable group such that free segments provably stay
            above the GC low watermark; capacity is ``-1`` when already
            placed blocks alone exhaust the slack.  Splitting the two
            terms lets attribution tell a reserve-bound stall apart from
            a raw-capacity one."""
            a_user = 0
            h1 = []
            trail = 0
            for g in user_gids:
                over = counts[g] - head[g]
                if over > 0:
                    a_user += (over + sb - 1) // sb
                    h1.append((-over) % sb + 1)
                else:
                    h1.append(1 - over)
                if is_sla[g] and counts[g] > 0 \
                        and t_end - last_tb[g] >= window:
                    trail += 1
            allowed = slack - a_user
            if allowed < 0:
                return -1, 0
            # Cheapest schedule forcing allowed + 1 allocations: open
            # groups in ascending first-allocation cost (headroom + 1),
            # then whole segments; one block less is safe anywhere.
            h1.sort()
            k = allowed + 1
            cap = h1[0] - 1
            if k > 1:
                take = min(k - 1, nuser - 1)
                for f in h1[1:1 + take]:
                    cap += f if f < sb else sb
                cap += (k - 1 - take) * sb
            return cap, (sites + trail) * fire_unit

        def x_max(t_end: int) -> int:
            """Max additional blocks, placed on any user-placeable group,
            that provably keep free segments above the GC low watermark."""
            cap, reserve = cap_parts(t_end)
            return cap - reserve if cap >= 0 else -1

        placed: list[np.ndarray] = []
        has_sla = bool(store._sla_groups)
        attr_on = self._attr_on
        cause = None
        j = i
        while j < n and bs[j] - wb_chunk < max_blocks:
            if has_sla:
                hi = min(bisect_left(ts, ts[j] + window), n)
            else:
                hi = n
            hi = self._cap_blocks(j, hi, max_blocks - (bs[j] - wb_chunk))
            if hi <= j:
                # The next request's blocks alone blow the block budget.
                cause = CAUSE_MAX_BLOCKS
                break
            wb_j = bs[j]
            # Binary search the largest feasible request span.
            if bs[hi] - wb_j <= x_max(ts[hi - 1]):
                k = hi
            else:
                lo = j
                while lo < hi - 1:
                    mid = (lo + hi) // 2
                    if bs[mid] - wb_j <= x_max(ts[mid - 1]):
                        lo = mid
                    else:
                        hi = mid
                k = lo
            if k <= j:
                if attr_on:
                    # Would one more request have fit without the
                    # worst-case fire reserve?
                    c_cap, c_res = cap_parts(ts[j])
                    need = bs[j + 1] - bs[j]
                    if c_cap >= 0 and need <= c_cap \
                            and need > c_cap - c_res:
                        cause = CAUSE_DEADLINE_RESERVE
                    else:
                        cause = CAUSE_GC_CAPACITY
                break
            wb_k = bs[k]
            if wb_k > wb_j:
                gids = store.policy.place_user_batch(
                    ex.lbas[wb_j:wb_k], ex.block_ts[wb_j:wb_k],
                    store.user_seq + (wb_j - wb_chunk))
                placed.append(gids)
                n_inc = wb_k - wb_j
                g0 = int(gids[0])
                if n_inc == 1 or (int(gids[n_inc - 1]) == g0
                                  and not (gids != g0).any()):
                    # Single-group increment (the common case for
                    # few-group policies): O(1) bookkeeping.
                    if is_sla[g0] and counts[g0] > 0 \
                            and btl[wb_j] - last_tb[g0] >= window:
                        sites += 1
                    counts[g0] += n_inc
                    last_tb[g0] = btl[wb_k - 1]
                else:
                    # A group already touched in the chunk whose rest
                    # before a touch here spans a full window is promoted
                    # to a fire site.  Within one increment rests stay
                    # below a window, so only a group's first touch here
                    # can qualify.
                    b = wb_j
                    for g in gids.tolist():
                        tb = btl[b]
                        b += 1
                        if is_sla[g] and counts[g] > 0 \
                                and tb - last_tb[g] >= window:
                            sites += 1
                        counts[g] += 1
                        last_tb[g] = tb
            j = k
        if attr_on:
            if cause is None:
                # Loop-condition exit: either the (possibly capped)
                # request horizon or the block budget ran out.
                if j >= n:
                    cause = CAUSE_MAX_REQUESTS if n < ex.num_requests \
                        else CAUSE_TRACE_END
                else:
                    cause = CAUSE_MAX_BLOCKS
            self._chunk_cause = cause
        if j <= i:
            return i, None
        if not placed:
            return j, None
        gids = placed[0] if len(placed) == 1 else np.concatenate(placed)
        return j, gids

    def _build_chunk_single(self, ex, i: int, window: int):
        """Closed-form chunk for policies whose user placement domain is
        one group; return ``(j, gids)``.

        All of a chunk's user blocks land in group ``g0``, so the
        adversarial capacity bound collapses: the chunk consumes
        ``written_blocks + fire_sites * fire_unit`` slots of ``g0``'s
        headroom plus ``slack`` whole segments, and the fire sites are an
        exact count — one reserved per SLA group entering with pending
        blocks, plus every gap of at least one window between the chunk's
        consecutive write requests (precomputed prefix sums), plus the
        trailing gap.  One feasibility probe is O(1), the chunk is found
        with a single binary search, and placement happens once.
        """
        store = self.store
        pool = store.pool
        slack = pool.free_segments - store.config.gc_free_low - 1
        if slack < 0:
            return i, None
        sb = pool.segment_blocks
        g0 = self._user_gids[0]
        grp = store.groups[g0]
        head0 = sb - int(pool.fill[grp.open_seg]) \
            if grp.open_seg is not None else 0
        cap = head0 + slack * sb
        bs = self._bs
        ts = self._cols[3]
        n = ex.num_requests
        if self.max_chunk_requests is not None:
            n = min(n, i + self.max_chunk_requests)
        max_blocks = self.max_chunk_blocks
        if not store._sla_groups:
            # No SLA windows anywhere: capacity is consumed by writes only.
            j = min(self._cap_blocks(i, n, min(cap, max_blocks)), n)
            if self._attr_on:
                if j >= ex.num_requests:
                    self._chunk_cause = CAUSE_TRACE_END
                elif j >= n:
                    self._chunk_cause = CAUSE_MAX_REQUESTS
                elif cap <= max_blocks:
                    self._chunk_cause = CAUSE_GC_CAPACITY
                else:
                    self._chunk_cause = CAUSE_MAX_BLOCKS
        else:
            fu = self._fire_unit
            sites0 = sum(1 for g in store._sla_groups
                         if g.buffer.pending_blocks)
            widx = self._widx
            wts = self._wts
            wgp = self._wgap
            w0 = bisect_left(widx, i)

            def feasible(j: int) -> bool:
                a = bs[j] - bs[i]
                if a > max_blocks:
                    return False
                w1 = bisect_left(widx, j)
                if w1 <= w0:
                    return True  # read-only span consumes nothing
                sites = sites0 + wgp[w1 - 1] - wgp[w0]
                if ts[j - 1] - wts[w1 - 1] >= window:
                    sites += 1
                return a + sites * fu <= cap

            if feasible(n):
                j = n
            else:
                lo, hi = i, n
                while lo < hi - 1:
                    mid = (lo + hi) // 2
                    if feasible(mid):
                        lo = mid
                    else:
                        hi = mid
                j = lo
            if self._attr_on:
                # Binary-search invariant: feasible(j), not feasible(j+1)
                # (when j < n) — re-derive which check failed.
                if j >= ex.num_requests:
                    self._chunk_cause = CAUSE_TRACE_END
                elif j >= n:
                    self._chunk_cause = CAUSE_MAX_REQUESTS
                else:
                    a = bs[j + 1] - bs[i]
                    if a > max_blocks:
                        self._chunk_cause = CAUSE_MAX_BLOCKS
                    elif a > cap:
                        self._chunk_cause = CAUSE_GC_CAPACITY
                    else:
                        self._chunk_cause = CAUSE_DEADLINE_RESERVE
        if j <= i:
            return i, None
        wb0, wb1 = bs[i], bs[j]
        if wb1 <= wb0:
            return j, None
        gids = store.policy.place_user_batch(
            ex.lbas[wb0:wb1], ex.block_ts[wb0:wb1], store.user_seq)
        return j, gids

    def _deadline_free_span(self, ex, i: int, t_i: int,
                            window: int) -> int:
        """Conservative chunk for ``"first"`` mode or a zero window: span
        requests strictly below both the earliest armed deadline and
        ``first_ts + window`` (deadlines armed inside land at or beyond
        that), capped so worst-case placement cannot trip GC."""
        store = self.store
        ts = self._cols[3]
        horizon = t_i + window
        nd = store.next_deadline()
        if nd is not None and nd < horizon:
            horizon = nd
        j_h = bisect_left(ts, horizon)
        if j_h <= i:
            j_h = i + 1  # window == 0: one request per chunk
        j = j_h
        if self.max_chunk_requests is not None:
            j = min(j, i + self.max_chunk_requests)
        gc_safe = self._gc_safe_blocks()
        budget = min(gc_safe, self.max_chunk_blocks)
        jc = self._cap_blocks(i, j, budget)
        if self._attr_on:
            if jc < j:
                self._chunk_cause = CAUSE_GC_CAPACITY \
                    if gc_safe <= self.max_chunk_blocks \
                    else CAUSE_MAX_BLOCKS
            elif jc >= ex.num_requests:
                self._chunk_cause = CAUSE_TRACE_END
            elif jc < j_h:
                self._chunk_cause = CAUSE_MAX_REQUESTS
            else:
                self._chunk_cause = CAUSE_DEADLINE_HORIZON
        return jc

    def _gc_safe_blocks(self) -> int:
        """Largest block count that cannot trip the GC low watermark.

        ``needed()`` fires once free segments drop to ``gc_free_low``; the
        cheapest way a placement could get there is to fill every group's
        open-segment headroom first (one allocation each after
        ``headroom + 1`` appends), then whole segments.  One block below
        the cheapest schedule that forces ``free - gc_free_low``
        allocations is therefore safe under *any* placement.
        """
        store = self.store
        pool = store.pool
        allocs = pool.free_segments - store.config.gc_free_low - 1
        if allocs < 0:
            return 0
        sb = pool.segment_blocks
        firsts = sorted(
            (1 if store.groups[g].open_seg is None
             else sb - int(pool.fill[store.groups[g].open_seg]) + 1)
            for g in self._user_gids)
        k = allocs + 1
        cost = sum(firsts[:k]) + max(0, k - len(firsts)) * sb
        return cost - 1

    def _cap_blocks(self, i: int, j: int, budget: int) -> int:
        """Shrink ``j`` so the span's written blocks fit ``budget``."""
        bs = self._bs
        wb0 = bs[i]
        if bs[j] - wb0 <= budget:
            return j
        return bisect_right(bs, wb0 + budget) - 1

    # ------------------------------------------------------------------
    # scalar fallback
    # ------------------------------------------------------------------
    def _scalar_burst(self, i: int) -> int:
        """Replay requests through the scalar path until GC restores the
        high watermark (or a short cap passes), then return the next
        request index.  The caller already ticked request ``i``'s time."""
        store = self.store
        stats = store.stats
        pool = store.pool
        high = store.config.gc_free_high
        obs_on = store._obs_on
        ops, offs, szs, ts = self._cols
        n = len(ops)
        stop = min(n, i + _BURST_REQUESTS)
        first = True
        # Per-block user-write hooks would dominate the burst; defer them
        # into one bulk report (engine preconditions guarantee the
        # recorder is batch-capable whenever obs is on).
        store._defer_user_obs = obs_on
        written = 0
        last_lba = -1
        t = 0
        try:
            while i < n:
                t = ts[i]
                if not first:
                    store.tick(t)
                first = False
                if ops[i] != OP_WRITE:
                    stats.read_requests += 1
                    if obs_on:
                        store.obs.on_read(offs[i], t)
                else:
                    stats.write_requests += 1
                    off = offs[i]
                    for lba in range(off, off + szs[i]):
                        store.write_block(lba, t)
                    written += szs[i]
                    last_lba = off + szs[i] - 1
                i += 1
                if pool.free_segments >= high or i >= stop:
                    break
        finally:
            store._defer_user_obs = False
        if obs_on and written:
            store.obs.on_user_write_bulk(written, last_lba, t)
        return i

    # ------------------------------------------------------------------
    # in-chunk deadline fires
    # ------------------------------------------------------------------
    def _make_splitter(self, ex, i: int, j: int, gids: np.ndarray,
                       window: int, cb: int):
        """Build the ``apply_user_batch`` splitter for an idle-mode chunk.

        The splitter is called with the next unapplied block offset and
        returns ``(end_block, tick_ts)``: apply blocks up to ``end_block``
        then (unless ``tick_ts`` is None) run ``store.tick(tick_ts)``.
        Fire prediction is exact: between fires, each SLA group's
        pending count grows by one per routed block (mod the chunk
        capacity, which clears the timer) and its deadline is its last
        append plus the window; at each predicted fire the store's real
        tick runs and live buffer state is re-read, so aggregation and
        multi-group fires need no modelling here.
        """
        store = self.store
        ts = self._cols[3]
        bs = self._bs
        bs0 = bs[i]
        block_ts = self._btl[bs0:bs[j]]
        nb = len(block_ts)
        t_end = ts[j - 1]
        # Per-SLA-group block positions within the chunk, ascending.
        sla_groups = store._sla_groups
        positions = [np.flatnonzero(gids == g.gid).tolist()
                     for g in sla_groups]

        def splitter(pos_block: int) -> tuple[int, int | None]:
            fire = _NO_FIRE
            for group, pos in zip(sla_groups, positions):
                f = _group_fire(group, pos, pos_block, block_ts, t_end,
                                window, cb)
                if f is not None and (fire is None or f < fire):
                    fire = f
            if fire is _NO_FIRE:
                return nb, None
            k = bisect_left(ts, fire)
            return bs[k] - bs0, ts[k]

        return splitter


def _group_fire(group, pos: list, pos_block: int, block_ts: list,
                t_end: int, window: int, cb: int) -> int | None:
    """Earliest deadline of ``group`` that a scalar tick would fire
    before the group's next append (or the chunk's end), assuming no
    other fire happens first — or ``None``.

    Walks the group's future chunk positions with early exit: only the
    FIRST live fire matters, and in fire-dense workloads it is near the
    cursor, so the walk is O(distance to that fire) rather than
    O(remaining chunk).
    """
    buf = group.buffer
    m = len(pos)
    k0 = bisect_left(pos, pos_block)
    deadline = buf.deadline_us
    if deadline is not None:
        next_touch = block_ts[pos[k0]] if k0 < m else t_end
        if next_touch >= deadline:
            return deadline
    pending = buf.pending_blocks
    for w in range(k0, m):
        pending += 1
        if pending == cb:
            pending = 0  # capacity flush clears the timer
        tb = block_ts[pos[w]]
        nt = block_ts[pos[w + 1]] if w + 1 < m else t_end
        if pending and nt >= tb + window:
            return tb + window
    return None


__all__ = ["BatchedReplayEngine"]
