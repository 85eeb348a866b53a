"""Batched fault replay: classify once, admit in bulk.

The event-level :class:`~repro.swap.executor.SwapExecutor` walks a trace
one access at a time through the DES — faithful, but ~10⁵–10⁶ events per
million accesses.  For a run starting from a cold stack, every one of
those events is predetermined by the trace and the LRU policy alone:
nothing the DES resolves (device service times, channel waits) feeds back
into *which* accesses hit, fault, or evict.  This module exploits that by
splitting the run into two phases:

**Phase 1 — vectorized classification** (:func:`classify_trace`).  The
anonymous sub-trace is pushed through the batched two-generation replay
(:meth:`~repro.mem.lru.ActiveInactiveLRU.replay`), misses split into cold
allocations vs capacity faults via one previous-occurrence pass, and the
in-order victim stream split into writebacks vs clean drops by replaying
the swap-cache ownership rules over one sorted key per event (see
:func:`_classify_evictions`).  The same machinery derives the exact miss
count for **every** capacity from one Mattson reuse pass
(:func:`trace_mrc`), so capacity sweeps cost one classification, not one
replay per point.

**Phase 2 — windowed admission** (:func:`replay_run_multi`).  Each
tenant's faults and writebacks become one aggregate admission step per
fixed window of ``_WINDOW`` accesses, and :func:`_admit` serves every
tenant's steps concurrently through the event engine — a device channel
grant, then :meth:`~repro.devices.base.FarMemoryDevice._serve` over the
shared stage pipes — so a million-access trace costs a few hundred
steps, and a tenant running alone resolves each step inline.  A
single-tenant run is the N = 1 case, and the hybrid planner
(:mod:`repro.swap.plan`) hands each admitted chunk to the same function.
Counters come out bit-identical to the event loop — classification is
timing-independent, so contention reorders I/O completions but never
which accesses hit, fault, or evict — and ``sim_time`` matches the
per-access loop to 1e-9 at one tenant; under contention the window is
the admission quantum (DESIGN.md §3.2).

Phase 2 takes phase 1 through a ``classify`` hook; a co-tenant sweep that
replays the same tenant slices over and over passes one
:class:`ClassificationMemo` so each slice is classified once.

:func:`_engine` picks the engine for both
:meth:`~repro.swap.executor.SwapExecutor.run` and
:func:`~repro.swap.executor.run_tenants`; the reference per-access loop
is a call of its own, :func:`~repro.swap.executor.run_event`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.base import FarMemoryDevice
from repro.errors import ConfigurationError
from repro.faults.device import FaultyDevice
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page import PageOp
from repro.mem.reuse import MissRatioCurve, _prev_occurrence
from repro.swap.pathmodel import FAULT_COST
from repro.trace.schema import PageTrace

__all__ = ["ReplayClassification", "SpanClassification", "ClassificationMemo",
           "classify_trace", "classify_span", "trace_mrc", "replay_run_multi",
           "REPLAY_VERSION"]

#: Bumped whenever classification output could change; part of the
#: on-disk classification cache key.
REPLAY_VERSION = 1

#: Accesses per aggregate admission window in phase 2.  Small enough that
#: per-window latency attribution stays meaningful, large enough that a
#: million-access trace needs only a few hundred admission steps.
_WINDOW = 4096  # simlint: ignore[UNIT001] -- access count, not bytes

#: Classifications of traces with at least this many anonymous accesses
#: are persisted; below it a cache load saves too little over the pass.
#: Measured break-even (``_classify_uncached`` vs ``cache.load_replay``,
#: ms, median of 5, capacity = distinct pages / 2, shared 2-core Xeon
#: host), classify uniform / zipf-1.1 vs load uniform / zipf: 2.0 / 1.6
#: vs 2.4 / 2.2 at 1 k accesses, 3.1 / 2.7 vs 2.3 / 2.0 at 2 k, 5.3 / 4.7
#: vs 2.4 / 2.1 at 4 k, 18 / 12 vs 2.5 / 2.3 at 16 k, 111 / 53 vs 3.0 /
#: 2.3 at 64 k, 190 / 105 vs 6.0 / 4.6 at 256 k; stores cost about what
#: loads do.  4096 is the first power of two where classifying costs at
#: least twice a load on both shapes (in 4 of 5 repeats; 2048 in none).
_CACHE_MIN_ANON = 4096  # simlint: ignore[UNIT001] -- access count, not bytes


class _DerivedCounts:
    """Counts both classification dataclasses derive from their
    ``fault_pos``, ``evict_pos`` and ``clean`` columns."""

    @property
    def faults(self) -> int:
        """Capacity faults (== swap-ins: every fault fetches its page)."""
        return int(self.fault_pos.shape[0])

    @property
    def evictions(self) -> int:
        """Victims produced by reclaim."""
        return int(self.evict_pos.shape[0])

    @property
    def clean_drops(self) -> int:
        """Victims freed without writeback (valid swap-cache copy)."""
        return int(self.clean.sum())

    @property
    def swap_outs(self) -> int:
        """Victims written back to the far backend."""
        return self.evictions - self.clean_drops


@dataclass
class ReplayClassification(_DerivedCounts):
    """Phase-1 output: every access and victim classified, end state known.

    Positions are indices into the *anonymous sub-trace* (the executor
    never routes file-backed accesses to the swap stack, so anonymous
    coordinates are the only ones the DES admission needs).
    """

    n_accesses: int          #: full trace length, file-backed included
    file_skips: int          #: accesses skipped as file-backed
    hits: int                #: LRU hits (either generation)
    cold_allocations: int    #: first touches — zero-fill, no far traffic
    fault_pos: np.ndarray    #: positions of capacity faults (swap-ins)
    evict_pos: np.ndarray    #: positions that triggered each eviction
    evict_page: np.ndarray   #: the victim page of each eviction
    clean: np.ndarray        #: per eviction: dropped without writeback?
    far_end: np.ndarray      #: pages holding a valid far copy at end of run
    final_active: np.ndarray    #: active-list contents at end, LRU-first
    final_inactive: np.ndarray  #: inactive-list contents at end, LRU-first
    touched: np.ndarray      #: distinct anonymous pages accessed
    lru_promotions: int      #: two-generation promotion count
    lru_demotions: int       #: two-generation demotion count


@dataclass
class SpanClassification(_DerivedCounts):
    """Phase-1 output for one *span* of a segmented run.

    The warm-start analogue of :class:`ReplayClassification`, produced by
    :func:`classify_span` for the hybrid planner (``repro.swap.plan``):
    positions are indices into the span's anonymous sub-trace, and the
    split between cold allocations and capacity faults is made against
    the seam state (previously-touched pages fault; unknown pages are
    cold) rather than against the span alone.
    """

    n_anon: int              #: anonymous accesses in the span
    fault_pos: np.ndarray    #: positions of capacity faults (swap-ins)
    evict_pos: np.ndarray    #: positions that triggered each eviction
    evict_page: np.ndarray   #: the victim page of each eviction
    clean: np.ndarray        #: per eviction: dropped without writeback?
    far_end: np.ndarray      #: complete far-copy set at span end (sorted)
    new_touched: np.ndarray  #: pages first touched in this span, span order
    cold_pos: np.ndarray     #: positions of those first touches

    @property
    def cold_allocations(self) -> int:
        """Never-touched first touches — zero-fill, no far traffic."""
        return int(self.cold_pos.shape[0])

    @property
    def hits(self) -> int:
        """LRU hits (either generation): every access that did not miss."""
        return self.n_anon - self.faults - self.cold_allocations

    def prefix(self, cut: int, pages: np.ndarray, ops: np.ndarray,
               far0: np.ndarray) -> "SpanClassification":
        """The classification of the span's first ``cut`` accesses.

        Classification is prefix-stable: an access's outcome, and whether
        an eviction is clean, depend only on what came before it.  So
        every column is this one's cut by position and the counts follow
        from them; only the span-end far set comes from a fresh eviction
        scan over the prefix (``pages``/``ops`` are the whole span's,
        ``far0`` its seam far set).  Equal, field for field, to
        :func:`classify_span` of the prefix from the same seam state.
        """
        k_f = int(np.searchsorted(self.fault_pos, cut))
        k_e = int(np.searchsorted(self.evict_pos, cut))
        k_c = int(np.searchsorted(self.cold_pos, cut))
        evict_pos = self.evict_pos[:k_e]
        evict_page = self.evict_page[:k_e]
        clean, far_end = _classify_evictions(pages[:cut], ops[:cut], evict_pos,
                                             evict_page, cut, far0)
        return SpanClassification(
            n_anon=cut,
            fault_pos=self.fault_pos[:k_f],
            evict_pos=evict_pos,
            evict_page=evict_page,
            clean=clean,
            far_end=far_end,
            new_touched=self.new_touched[:k_c],
            cold_pos=self.cold_pos[:k_c],
        )


def _in_sorted(arr: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership mask of ``arr`` against a *sorted unique* ``table``."""
    if table.size == 0:
        return np.zeros(arr.shape, dtype=bool)
    idx = np.searchsorted(table, arr)
    idx[idx == table.size] = 0  # out-of-range probes; equality rejects
    return table[idx] == arr


def classify_span(
    pages: np.ndarray,
    ops: np.ndarray,
    lru: ActiveInactiveLRU,
    touched: np.ndarray,
    far0: np.ndarray,
    epoch_states: list | None = None,
) -> SpanClassification:
    """Classify one span of a run, resuming from seam state.

    ``lru`` is the *live* cache — the warm replay advances its lists and
    statistics in place, so the caller's LRU ends in exactly the state
    the event loop would leave.  ``touched`` (sorted, unique) is the set
    of pages ever touched before the span: a span-first miss of a known
    page is a capacity fault (its page lives in far memory), of an
    unknown page a cold allocation.  ``far0`` (sorted, unique) is the
    far-copy set at the seam, threaded into the eviction scan as virtual
    evictions (see :func:`_classify_evictions`).

    With empty seam state this reduces bit-for-bit to the cold-start
    classification — :func:`_classify_uncached` delegates here — and the
    seam-handoff property test pins the splice invariant: classify the
    whole trace, or split at any boundary and resume, same answer.

    ``epoch_states`` is passed through to the LRU's replay (the hybrid
    planner's partial-fit hook, see :meth:`ActiveInactiveLRU.replay`).
    """
    n_anon = int(pages.shape[0])
    log = lru.replay(pages, epoch_states)
    if n_anon:
        # the LRU's scan kernel already ran the previous-occurrence pass
        prev = log.prev if log.prev is not None else _prev_occurrence(pages, n_anon)
        log.prev = None
        miss_pos = np.flatnonzero(~log.hits)
        first = prev[miss_pos] < 0
        del prev
        first_idx = miss_pos[first]
        first_pages = pages[first_idx]
        known = _in_sorted(first_pages, touched)
        fault_pos = miss_pos[~first]
        if known.any():
            # span-first misses of already-touched pages fault too
            fault_pos = np.sort(np.concatenate([fault_pos, first_idx[known]]))
        fault_pos = np.ascontiguousarray(fault_pos)
        cold_pos = np.ascontiguousarray(first_idx[~known])
        new_touched = np.ascontiguousarray(first_pages[~known])
    else:
        fault_pos = cold_pos = new_touched = np.empty(0, dtype=np.int64)
    clean, far_end = _classify_evictions(
        pages, ops, log.evict_pos, log.evict_page, n_anon, far0
    )
    return SpanClassification(
        n_anon=n_anon,
        fault_pos=fault_pos,
        evict_pos=log.evict_pos,
        evict_page=log.evict_page,
        clean=clean,
        far_end=far_end,
        new_touched=new_touched,
        cold_pos=cold_pos,
    )


def _classify_evictions(
    pages: np.ndarray,
    ops: np.ndarray,
    evict_pos: np.ndarray,
    evict_page: np.ndarray,
    n: int,
    far0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the victim stream into writebacks vs clean drops; find the
    pages still holding a valid far copy at end of run.

    Replays the executor's swap-cache ownership rules without the DES: a
    page gains a far copy at every eviction (writeback, or retained clean
    copy) and loses it at the first STORE access afterwards (the executor
    invalidates the diverged copy).  So eviction *k* of page *v* is a
    clean drop iff an earlier eviction of *v* exists and no STORE access
    to *v* happened after it — where a STORE at the evicting position
    itself counts against eviction *k* (the self-eviction path dirties
    before reclaim drains), while a STORE at the *previous* eviction's
    position was already consumed by that eviction.  Likewise *v* holds a
    valid far copy at end of run iff it was ever evicted and its last
    STORE does not postdate its last eviction.

    ``far0`` (sorted, unique, possibly empty) carries seam state for the
    segmented hybrid engine: pages holding a valid far copy *before* the
    span.  Each is a *virtual eviction* preceding every real event — real
    positions shift by +1 and the virtual rows sit at pseudo-position 0,
    so a seam copy behaves exactly like a copy acquired by an eviction at
    position -1: the first span STORE invalidates it, an eviction before
    any STORE is a clean drop.  The returned ``far_end`` is then the
    *complete* far set at span end, carried copies included.

    Resolved by one sort: each STORE access, seam copy and eviction is
    one int64 key ``page * stride + 2 * position + kind`` (kind 0 for a
    store, 1 for an eviction, so a store sorts before an eviction at the
    same position).  Sorted, each page's events form one run in time
    order, and the rules above become neighbour tests: an eviction is
    clean iff the row before it is an eviction of the same page (no store
    in between), and a page ends with a far copy iff its last row is an
    eviction.  Positions of real evictions are increasing (an access
    evicts at most one page), which maps clean rows back to the victim
    stream.  Page ids too wide to pack are ranked first.
    """
    n_e = int(evict_pos.shape[0])
    n_f = int(far0.shape[0])
    if n_e == 0 and n_f == 0:
        return np.zeros(0, dtype=bool), np.empty(0, dtype=np.int64)
    pages = np.asarray(pages, dtype=np.int64)
    s_pos = np.flatnonzero(ops == int(PageOp.STORE))
    n_s = int(s_pos.shape[0])
    stride = 2 * (n + 2)
    ids = [a for a in (pages, far0, evict_page) if a.size]
    lo = min(int(a.min()) for a in ids)
    hi = max(int(a.max()) for a in ids)
    uniq = None
    if max(hi, -lo) + 1 > (2**63 - 1) // stride:
        uniq = np.unique(np.concatenate(ids))
        pages = np.searchsorted(uniq, pages)
        far0 = np.searchsorted(uniq, far0)
        evict_page = np.searchsorted(uniq, evict_page)
    key = np.empty(n_s + n_f + n_e, dtype=np.int64)
    seg = key[:n_s]
    np.take(pages, s_pos, out=seg)
    seg *= stride
    s_pos += 1
    s_pos *= 2
    seg += s_pos
    del s_pos
    seg = key[n_s:n_s + n_f]
    np.multiply(far0, stride, out=seg)
    seg += 1
    seg = key[n_s + n_f:]
    np.multiply(evict_page, stride, out=seg)
    seg += evict_pos
    seg += evict_pos
    seg += 3
    key.sort()
    ev = np.empty(key.shape[0], dtype=bool)
    np.bitwise_and(key, 1, out=ev, casting="unsafe")
    page = key // stride
    same = page[1:] == page[:-1]
    # a clean row: an eviction right after an eviction of the same page
    # (virtual seam rows open their run, so every clean row is real)
    clean_row = ev[1:] & ev[:-1] & same
    clean_pos = (key[1:][clean_row] % stride) // 2 - 1
    del key
    clean = np.zeros(n_e, dtype=bool)
    clean[np.searchsorted(evict_pos, clean_pos)] = True
    # far set at span end: pages whose run ends with an eviction
    last_row = np.append(~same, True)
    last_row &= ev
    far_end = page[last_row]
    if uniq is not None:
        far_end = uniq[far_end]
    return clean, far_end


def classify_trace(
    trace: PageTrace, capacity: int, active_ratio: float = 0.5,
    use_cache: bool = True,
) -> ReplayClassification:
    """Phase 1: resolve every access and victim of a cold-start run.

    Pure function of (trace contents, capacity, active_ratio) — it builds
    its own scratch LRU — which is what makes the result persistable in
    the content-addressed artifact cache (:mod:`repro.cache`): repeated
    experiment sweeps over the same (trace, capacity) skip the pass
    entirely.  Traces below ``_CACHE_MIN_ANON`` (4096) anonymous accesses
    bypass the cache: under it a load costs more than half the pass it
    would save.
    """
    from repro import cache

    mask = trace.anon_mask
    cached_ok = (
        use_cache and cache.cache_enabled() and int(mask.sum()) >= _CACHE_MIN_ANON
    )
    digest = trace.content_digest() if cached_ok else None
    if cached_ok:
        hit = cache.load_replay(digest, capacity, active_ratio)
        if hit is not None:
            return hit
    result = _classify_uncached(trace, mask, capacity, active_ratio)
    if cached_ok:
        cache.store_replay(digest, capacity, active_ratio, result)
    return result


def _classify_uncached(
    trace: PageTrace, mask: np.ndarray, capacity: int, active_ratio: float
) -> ReplayClassification:
    pages = np.ascontiguousarray(trace.pages[mask])
    ops = np.ascontiguousarray(trace.ops[mask])
    n = int(trace.pages.shape[0])
    n_anon = int(pages.shape[0])
    lru = ActiveInactiveLRU(capacity=capacity, active_ratio=active_ratio)
    empty = np.empty(0, dtype=np.int64)
    span = classify_span(pages, ops, lru, touched=empty, far0=empty)
    active, inactive = lru.state_arrays()
    return ReplayClassification(
        n_accesses=n,
        file_skips=n - n_anon,
        hits=span.hits,
        cold_allocations=span.cold_allocations,
        fault_pos=span.fault_pos,
        evict_pos=span.evict_pos,
        evict_page=span.evict_page,
        clean=span.clean,
        far_end=span.far_end,
        final_active=active,
        final_inactive=inactive,
        touched=span.new_touched,
        lru_promotions=lru.promotions,
        lru_demotions=lru.demotions,
    )


class ClassificationMemo:
    """In-memory :func:`classify_trace` memo owned by one co-tenant sweep.

    A drop-in ``classify`` hook for :func:`replay_run_multi` and the
    executors that route to it: called as
    ``memo(trace, capacity, active_ratio)``, it classifies each
    distinct ``(trace.content_digest(), capacity, active_ratio)`` — the
    identity :func:`repro.cache.replay_key` persists under — once, and
    hands every later caller the same result.  Sweeps replay the same
    short tenant slices over and over (solo baselines, growing groups,
    shared vs isolated pairs).  The disk cache persists the slices that
    reach ``_CACHE_MIN_ANON``; the memo still spares a sweep the disk
    round trip on every repeat, and does all the reuse when the cache is
    off or a slice sits below the floor.

    Classification is a pure function of that key, so reuse changes no
    outcome.  The result is shared between tenants, so its arrays are
    returned read-only.  Scope a memo to one sweep: it holds every entry
    until dropped (DESIGN.md §3.2).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int, float], ReplayClassification] = {}

    def __call__(self, trace: PageTrace, capacity: int,
                 active_ratio: float = 0.5) -> ReplayClassification:
        key = (trace.content_digest(), capacity, active_ratio)
        cls = self._entries.get(key)
        if cls is None:
            cls = classify_trace(trace, capacity, active_ratio)
            for value in vars(cls).values():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
            self._entries[key] = cls
        return cls


def trace_mrc(trace: PageTrace) -> MissRatioCurve:
    """Exact-LRU miss counts for **every** capacity from one reuse pass.

    Mattson's sweep over the anonymous sub-trace: the curve's
    :meth:`~repro.mem.reuse.MissRatioCurve.misses_at` answers any
    capacity in O(1), and matches a per-access exact-LRU replay
    (``tests.oracles.LRUCache``) miss-for-miss (the cross-check test pins
    this).
    """
    return MissRatioCurve(pages=trace.pages[trace.anon_mask])


def _book_counters(res, accesses: int, file_skips: int, cls) -> None:
    """Add one classified stretch's execution counters to ``res``.

    ``cls`` is a :class:`ReplayClassification` or a
    :class:`SpanClassification`; ``accesses`` and ``file_skips`` count the
    stretch's full-trace accesses.  The clean batch engine
    (:func:`_apply_classification`) and the hybrid planner's batch
    segments both book here, so the two share one counter surface.
    """
    res.accesses += accesses
    res.file_skips += file_skips
    res.hits += cls.hits
    res.cold_allocations += cls.cold_allocations
    res.faults += cls.faults
    res.swap_ins += cls.faults
    res.swap_outs += cls.swap_outs
    res.clean_drops += cls.clean_drops


def _apply_classification(executor, cls: ReplayClassification) -> None:
    """Book a classification's counters and end state onto ``executor``.

    Everything timing-independent: execution counters, LRU contents and
    statistics, the touched set.
    """
    _book_counters(executor.result, cls.n_accesses, cls.file_skips, cls)
    lru = executor.lru
    lru.restore_state(cls.final_active, cls.final_inactive)
    lru.hits += cls.hits
    lru.misses += cls.cold_allocations + cls.faults
    lru.promotions += cls.lru_promotions
    lru.demotions += cls.lru_demotions
    lru.evictions += cls.evictions
    executor._touched.update(cls.touched.tolist())


# ---------------------------------------------------------------------------
# Phase 2: windowed admission through the event engine
# ---------------------------------------------------------------------------


@dataclass
class _AdmissionStep:
    """One aggregate admission of a window's faults or writebacks."""

    pre: float      #: serial kernel-side delay before the channel request
    command: float  #: serial command phase occupying the channel
    moved: int      #: payload bytes crossing every stage pipe
    count: int      #: page operations admitted by this step
    write: bool     #: writeback (write) vs fault fill (read)


class _TenantPlan:
    """One tenant's phase-2 admission steps.

    ``cls`` is a :class:`ReplayClassification` (a whole cold run) or a
    :class:`SpanClassification` (one hybrid batch chunk) covering
    ``n_anon`` anonymous accesses; either way the steps are admitted on
    the executor's active backend.
    """

    __slots__ = ("executor", "device", "steps", "latencies")

    def __init__(self, executor, cls, n_anon: int) -> None:
        self.executor = executor
        frontend = executor.frontend
        self.device = frontend.module(frontend.active_backend).device
        g = executor.config.granularity
        self.steps: list[_AdmissionStep] = []
        if cls.faults or cls.swap_outs:
            n_windows = (n_anon + _WINDOW - 1) // _WINDOW
            faults = np.bincount(cls.fault_pos // _WINDOW, minlength=n_windows)
            wbs = np.bincount(cls.evict_pos[~cls.clean] // _WINDOW,
                              minlength=n_windows)
            for k_fault, k_wb in zip(faults.tolist(), wbs.tolist()):
                if k_fault:
                    self.steps.append(_AdmissionStep(
                        pre=k_fault * FAULT_COST,
                        command=self.device.batch_command_cost(k_fault, False, g),
                        moved=k_fault * g, count=k_fault, write=False))
                if k_wb:
                    self.steps.append(_AdmissionStep(
                        pre=0.0,
                        command=self.device.batch_command_cost(k_wb, True, g),
                        moved=k_wb * g, count=k_wb, write=True))
        #: per fault step: (mean latency, fault count, completion time)
        self.latencies: list[tuple[float, int, float]] = []


def _batch_supported(device) -> bool:
    """Whether batched admission serves this device as its DES path would.

    Admission prices each step's command phase with the base-class
    :meth:`~FarMemoryDevice.batch_command_cost` and serves it through the
    base-class stage pipes.  A single :class:`FaultyDevice` wrapper is
    unwrapped first: outside its windows its DES path is the wrapped
    device's (the gate draws nothing, the latency factor is exactly 1.0,
    no stall is added), and no batch admission runs inside a window.  A
    device that overrides the DES I/O path (``_io``) itself runs on the
    per-access loop.
    """
    if type(device) is FaultyDevice:
        device = device.inner
    t = type(device)
    return (t._io is FarMemoryDevice._io
            and t.batch_command_cost is FarMemoryDevice.batch_command_cost
            and t.stage_pipes is FarMemoryDevice.stage_pipes)


def _admit(sim, plans: list[_TenantPlan]) -> list[float]:
    """Admit every tenant's steps concurrently through the event engine.

    One coroutine per tenant: a fault step pays its serial kernel cost,
    then every step takes a channel from the device's pool and serves its
    aggregate command phase and payload through
    :meth:`FarMemoryDevice._serve` — O(windows) DES events per tenant
    instead of O(accesses), and a tenant running alone resolves each step
    inline (:meth:`Simulator.skip`).  Each step books the device's ops
    and wire bytes; each fault step
    also books its mean latency, count and completion time on
    ``plan.latencies`` (the hybrid planner replays its monitor feed from
    them) and in the fault-latency stats.  Returns per-tenant durations.
    """
    t_start = sim.now
    ends = [t_start] * len(plans)

    def admit(i, plan):
        device = plan.device
        pool = device.channel_pool
        add_repeat = plan.executor.result.fault_latency.add_repeat
        for st in plan.steps:
            t0 = sim.now
            if not st.write and not sim.skip(st.pre):
                yield sim.timeout(st.pre)
            grant = pool.try_acquire()
            if grant is None:
                grant = yield pool.request()
            yield from device._serve(st.command, st.moved, st.write)
            pool.release(grant)
            device.ops += st.count
            if st.write:
                device.bytes_written += st.moved
            else:
                device.bytes_read += st.moved
                mean = (sim.now - t0) / st.count
                plan.latencies.append((mean, st.count, sim.now))
                add_repeat(mean, st.count)
        ends[i] = sim.now

    procs = [sim.process(admit(i, plan), name=f"exec:replay:{i}")
             for i, plan in enumerate(plans)]
    sim.run(until=sim.all_of(procs))
    return [end - t_start for end in ends]


def _tenant_group(executors, traces) -> tuple[list, list]:
    """Check one tenant group — non-empty, one trace per executor, distinct
    executors, one shared simulator — and return it as two lists."""
    executors = list(executors)
    traces = list(traces)
    if not executors or len(executors) != len(traces):
        raise ConfigurationError(
            f"need one trace per executor, got {len(executors)} executor(s) "
            f"and {len(traces)} trace(s)"
        )
    if len({id(ex) for ex in executors}) != len(executors):
        raise ConfigurationError("tenant executors must be distinct")
    sim = executors[0].sim
    if any(ex.sim is not sim for ex in executors):
        raise ConfigurationError("tenant executors must share one simulator")
    return executors, traces


def _engine(executors) -> str:
    """The engine a tenant group runs on: ``"batch"``, ``"hybrid"`` or
    ``"event"``.

    The one dispatcher behind :meth:`~repro.swap.executor.SwapExecutor.run`
    and :func:`~repro.swap.executor.run_tenants`.  ``event`` when any
    tenant's stack is warm or its simulator busy, or when any tenant's
    active device fails :func:`_batch_supported`.  Otherwise ``batch``
    when no tenant has a failover controller or live fault windows; with
    such hazards, ``hybrid`` for one tenant and ``event`` for a contended
    group.
    """
    if not all(
        ex._cold_idle()
        and _batch_supported(ex.frontend.module(ex.frontend.active_backend).device)
        for ex in executors
    ):
        return "event"
    if not any(ex.failover is not None or ex._fault_injected() for ex in executors):
        return "batch"
    return "hybrid" if len(executors) == 1 else "event"


def replay_run_multi(executors, traces, classify=None):
    """Batched replay of N >= 1 tenants contending on shared backends.

    Equivalent to running every executor's per-access event loop
    *concurrently* on the shared simulator: per-tenant counters and end
    state are bit-identical (phase-1 facts — LRU decisions never read the
    clock).  Per-tenant ``sim_time`` comes from windowed admission
    through the event engine (:func:`_admit`): at one tenant it matches
    the per-access loop to 1e-9; under contention the window is the
    admission quantum (DESIGN.md §3.2).

    The group must be one :func:`_engine` sends to ``batch``.  ``classify``
    produces each tenant's phase 1 with :func:`classify_trace`'s signature
    (a :class:`ClassificationMemo` shares it across a sweep); ``None``
    means :func:`classify_trace`, looked up at call time so a wrapped or
    patched module function sees every call.
    """
    executors, traces = _tenant_group(executors, traces)
    if _engine(executors) != "batch":
        raise ConfigurationError(
            "replay_run_multi needs cold executors on an idle simulator, "
            "without failover or live fault windows, on devices batched "
            "admission models"
        )
    sim = executors[0].sim
    if classify is None:
        classify = classify_trace
    classifications = [
        classify(tr, ex.lru.capacity, ex.lru.active_ratio)
        for ex, tr in zip(executors, traces)
    ]
    plans = []
    for ex, cls in zip(executors, classifications):
        _apply_classification(ex, cls)
        plans.append(_TenantPlan(ex, cls, cls.n_accesses - cls.file_skips))
    durations = _admit(sim, plans)
    for ex, cls, duration in zip(executors, classifications, durations):
        if cls.far_end.size:
            ex.frontend.adopt_far_pages(cls.far_end.tolist())
        ex.result.sim_time = duration
        if sim.sanitize:
            ex.assert_page_conservation()
    return [ex.result for ex in executors]
