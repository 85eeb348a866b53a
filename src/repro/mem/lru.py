"""Exact LRU structures mirroring the kernel's reclaim lists.

:class:`LRUCache` is a plain exact-LRU set with eviction callbacks — the
workhorse for event-level fault simulation.  :class:`ActiveInactiveLRU`
models Linux's two-generation scheme: pages enter the inactive list, are
promoted on a second touch, and reclaim scans inactive before active —
which is what gives co-located workloads on a *shared* swap channel their
mutual interference (a burst from one tenant flushes the other's inactive
list; the paper's Fig 17 quantifies the resulting latency).

Both structures also offer *batched replay* over a whole page-id array:

* :func:`lru_replay` resolves exact LRU fully vectorized from one reuse-
  distance pass (hit iff stack distance < capacity; the k-th eviction
  pairs with the k-th access whose next reuse distance reaches capacity);
* :meth:`ActiveInactiveLRU.replay` walks the two-generation lists in
  epochs of ``E = min(capacity - max_active, max_active) - 1`` accesses.
  Reclaim and demotion each pop a list head, which within an epoch is a
  pointer into the list as it stood at the epoch start, stepping over
  entries a touch moved away.  Every pointer step costs one access and
  each start list is longer than ``E`` steps, so no pointer runs off its
  start list into pages moved there within the epoch: a page touched in
  an epoch is neither evicted nor demoted in it.  Re-touches are hits
  resolved in bulk, and only the first touch per distinct page per epoch
  (plus a missed page's promoting second touch) needs sequential
  treatment.  This holds while the active list starts within its
  ``max_active`` share; a shrinking ``resize()`` can break that, and
  such calls take the per-access loop.  Large epochs (``E >=
  _KERNEL_EPOCH``) run two integer pointer scans per epoch; smaller ones
  a dict-based sweep, or the loop on tiny caches.

Replays are bit-identical to the per-access loops (the equivalence tests
lock this in) but an order of magnitude cheaper on skewed traces — they
are what the batched fault-replay engine (:mod:`repro.swap.replay`) is
built on.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from typing import Hashable

import numpy as np

__all__ = ["LRUCache", "ActiveInactiveLRU", "LRUReplayLog", "lru_replay"]

#: Below this epoch length the vectorized two-generation replay falls back
#: to the per-access loop — numpy overhead beats the win on tiny caches.
_MIN_EPOCH = 32

#: Epoch sweeps stop paying off once this fraction of a warm epoch's
#: accesses are first/second touches (each one is sequential work anyway);
#: past it the replay hands the rest of the trace to the inline loop.
_LOOP_DENSITY = 0.15

#: From this epoch length on, replay resolves epochs with the two-pointer
#: scan kernel instead of the sweep/loop pair.  Its fixed numpy cost per
#: epoch is O(capacity), so it only wins on large caches.  Measured
#: crossover on 200 k-access uniform / zipf / hot-set traces (kernel speed
#: relative to the sweep/loop pair, shared 2-core Xeon host): 0.14-0.29x
#: at E = 63, 0.36-0.90x at 255, 0.96-1.62x at 1023, 1.03-1.37x at 2047,
#: 1.29-1.95x at 4095, 2.2-2.6x at 8191.  4096 is the first power of two
#: where the kernel wins on every trace shape by a margin.
_KERNEL_EPOCH = 4096  # simlint: ignore[UNIT001] -- epoch length in accesses, not bytes

#: Page ids below this multiple of the id count index the kernel's state
#: array directly; larger or negative ids are first densified with
#: ``np.unique``.
_DIRECT_ID_SPAN = 4

#: First-touch position of an epoch-start entry not touched in the epoch.
_UNTOUCHED = np.iinfo(np.int64).max


class LRUReplayLog:
    """Outcome of a batched replay: per-access hits plus the victim stream.

    ``hits[t]`` is True iff access ``t`` hit; eviction ``k`` was triggered
    by the access at ``evict_pos[k]`` and removed page ``evict_page[k]``
    (positions are non-decreasing — the in-order victim export the swap
    replay engine classifies into writebacks and clean drops).
    """

    __slots__ = ("hits", "evict_pos", "evict_page", "prev")

    def __init__(self, hits: np.ndarray, evict_pos: np.ndarray, evict_page: np.ndarray,
                 prev: np.ndarray | None = None) -> None:
        self.hits = hits
        self.evict_pos = evict_pos
        self.evict_page = evict_page
        #: previous-occurrence array of the replayed pages, when the
        #: replay computed one (the scan kernel does); else None
        self.prev = prev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LRUReplayLog n={self.hits.shape[0]} hits={int(self.hits.sum())} "
            f"evictions={self.evict_pos.shape[0]}>"
        )


def lru_replay(pages: np.ndarray, capacity: int) -> LRUReplayLog:
    """Replay ``pages`` through an exact LRU of ``capacity``, vectorized.

    Equivalent to feeding every page to :meth:`LRUCache.access` and
    recording hits and eviction victims, but resolved from one reuse-
    distance pass (Mattson): an access hits iff its stack distance is
    below ``capacity``; evictions start at the ``capacity+1``-th miss and
    the k-th eviction removes the page of the k-th access whose *next*
    reuse distance is >= ``capacity`` (or that is never re-accessed) —
    under exact LRU victims leave in the order of their last touch.
    """
    from repro.mem.reuse import COLD, _prev_occurrence, reuse_distances

    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    pages = np.ascontiguousarray(np.asarray(pages, dtype=np.int64))
    n = int(pages.shape[0])
    dist = reuse_distances(pages)
    hits = dist < capacity  # COLD sorts above any real capacity
    miss_pos = np.flatnonzero(~hits)
    evict_pos = np.ascontiguousarray(miss_pos[capacity:])
    if evict_pos.size == 0:
        return LRUReplayLog(hits, evict_pos, np.empty(0, dtype=np.int64))
    prev = _prev_occurrence(pages, n)
    warm = np.flatnonzero(prev >= 0)
    # next_dist[t] = stack distance of the next access to pages[t]
    next_dist = np.full(n, COLD, dtype=np.int64)  # never re-accessed
    next_dist[prev[warm]] = dist[warm]
    candidates = np.flatnonzero(next_dist >= capacity)
    evict_page = np.ascontiguousarray(pages[candidates[: evict_pos.size]])
    return LRUReplayLog(hits, evict_pos, evict_page)


class LRUCache:
    """An exact LRU over hashable keys with a fixed capacity (in entries)."""

    def __init__(
        self,
        capacity: int,
        on_evict: Callable[[Hashable], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        self._od: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._od)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._od

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit, False on miss (key inserted)."""
        if key in self._od:
            self._od.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._od[key] = None
        if len(self._od) > self.capacity:
            victim, _ = self._od.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        return False

    def discard(self, key: Hashable) -> bool:
        """Drop ``key`` without counting an eviction; True if present."""
        if key in self._od:
            del self._od[key]
            return True
        return False

    def resize(self, capacity: int) -> list[Hashable]:
        """Change capacity; returns victims evicted by a shrink (LRU first)."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        victims = []
        while len(self._od) > self.capacity:
            victim, _ = self._od.popitem(last=False)
            self.evictions += 1
            victims.append(victim)
            if self.on_evict is not None:
                self.on_evict(victim)
        return victims

    @property
    def hit_rate(self) -> float:
        """Hits / accesses so far (0.0 before any access)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def keys(self) -> list[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._od.keys())


class ActiveInactiveLRU:
    """Linux-style two-list LRU: inactive (probation) + active (protected).

    * a missing page is inserted at the tail of **inactive**;
    * a hit in inactive **promotes** to active (second-chance);
    * a hit in active refreshes recency;
    * when total size exceeds capacity, reclaim pops the head of inactive;
      if inactive is empty, the head of active is **demoted** first
      (shrink_active_list behaviour).

    ``active_ratio`` bounds the protected share, as the kernel's
    inactive_ratio heuristic does.
    """

    def __init__(
        self,
        capacity: int,
        active_ratio: float = 0.5,
        on_evict: Callable[[Hashable], None] | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if not 0.0 < active_ratio < 1.0:
            raise ValueError(f"active_ratio must be in (0, 1), got {active_ratio}")
        self.capacity = capacity
        self.active_ratio = active_ratio
        self.on_evict = on_evict
        self._active: OrderedDict[Hashable, None] = OrderedDict()
        self._inactive: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.demotions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._active) + len(self._inactive)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._active or key in self._inactive

    @property
    def active_size(self) -> int:
        """Entries on the protected list."""
        return len(self._active)

    @property
    def inactive_size(self) -> int:
        """Entries on the probation list."""
        return len(self._inactive)

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; True on hit (either list), False on miss."""
        if key in self._active:
            self._active.move_to_end(key)
            self.hits += 1
            return True
        if key in self._inactive:
            del self._inactive[key]
            self._active[key] = None
            self.promotions += 1
            self.hits += 1
            self._balance()
            return True
        self.misses += 1
        self._inactive[key] = None
        self._reclaim()
        return False

    def _balance(self) -> None:
        """Demote from active while it exceeds its allowed share."""
        max_active = int(self.capacity * self.active_ratio)
        while len(self._active) > max(1, max_active):
            victim, _ = self._active.popitem(last=False)
            self._inactive[victim] = None
            self.demotions += 1

    def _reclaim(self) -> None:
        while len(self) > self.capacity:
            if not self._inactive:
                victim, _ = self._active.popitem(last=False)
                self._inactive[victim] = None
                self.demotions += 1
                continue
            victim, _ = self._inactive.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)

    # -- batched replay ----------------------------------------------------
    def replay(self, pages: np.ndarray) -> LRUReplayLog:
        """Touch every page in ``pages`` in order, batched.

        Bit-identical to calling :meth:`access` per element — same final
        list contents *and order*, same counters — but the common case is
        resolved in numpy epochs.  Victims are returned in the log rather
        than delivered through ``on_evict`` (which must be unset: a
        callback observes interleaved state the batch path skips over).

        Epoch invariant: cut the trace into epochs of ``E =
        min(capacity - max_active, max_active) - 1`` accesses and freeze
        both lists at each epoch start.  Reclaim is a pointer into the
        frozen inactive list: it steps over entries a touch promoted and
        evicts the next.  Demotion is a pointer into the frozen active
        list: it steps over touched entries and demotes the next.  Every
        pointer step is paid for by one access of the epoch — the miss or
        promotion that pops, or the touch that moved the skipped entry —
        and each frozen list is longer than the steps its pointer can take
        in ``E`` accesses.  So neither pointer runs off its frozen list or
        reaches a page appended within the epoch: a page touched in an
        epoch is neither evicted nor demoted in it, and only each page's
        first touch per epoch (plus the promoting second touch of a missed
        page) needs resolving.

        Precondition for both epoch paths: the call starts with at most
        ``max_active`` pages on the active list, which bounds the active
        pointer's steps and leaves the inactive list long enough.  Only a
        shrinking :meth:`resize` (or a :meth:`restore_state` of such a
        state) breaks it; those calls take the per-access loop, which is
        exact for any state.  Epochs of at least ``_KERNEL_EPOCH``
        accesses go to the two-scan kernel (:meth:`_replay_kernel`);
        shorter ones to the epoch sweep (:meth:`_replay_epochs`), or to
        the inline loop on tiny caches and low-locality traces.
        """
        if self.on_evict is not None:
            raise ValueError("replay() with an on_evict callback; victims are returned in the log")
        pages = np.ascontiguousarray(np.asarray(pages, dtype=np.int64))
        n = int(pages.shape[0])
        cap = self.capacity
        max_active = max(1, int(cap * self.active_ratio))
        epoch = min(cap - max_active, max_active) - 1
        precondition = len(self._active) <= max_active
        if n and precondition and epoch >= _KERNEL_EPOCH:
            return self._replay_kernel(pages, epoch, max_active)
        hits_mask = np.zeros(n, dtype=bool)
        ev_pos_parts: list[np.ndarray] = []
        ev_page_parts: list[np.ndarray] = []
        use_epochs = precondition and epoch >= _MIN_EPOCH
        if use_epochs and len(self) == cap:
            # Warm low-locality pre-check: with full lists the epoch path
            # bails to the inline loop once a single epoch's first/second-
            # touch density exceeds _LOOP_DENSITY, after paying an
            # O(capacity) state build.  The first epoch's distinct count is
            # a lower bound on its touch events, so when even that exceeds
            # the threshold, skip the epoch machinery entirely.  Which path
            # runs is a pure perf choice: both produce identical lists and
            # counters by contract.
            probe = pages[:min(epoch, n)]
            use_epochs = np.unique(probe).size <= _LOOP_DENSITY * probe.size
        if not use_epochs:
            self._replay_loop(pages, 0, n, hits_mask, ev_pos_parts, ev_page_parts)
        else:
            i = self._replay_epochs(pages, 0, n, epoch, max_active,
                                    hits_mask, ev_pos_parts, ev_page_parts)
            if i < n:  # low-locality trace: the inline loop is cheaper
                self._replay_loop(pages, i, n, hits_mask, ev_pos_parts, ev_page_parts)
        if ev_pos_parts:
            evict_pos = np.concatenate(ev_pos_parts)
            evict_page = np.concatenate(ev_page_parts)
        else:
            evict_pos = np.empty(0, dtype=np.int64)
            evict_page = np.empty(0, dtype=np.int64)
        return LRUReplayLog(hits_mask, evict_pos, evict_page)

    def _replay_loop(self, pages, start, stop, hits_mask, ev_pos_parts, ev_page_parts) -> int:
        """Per-access path with :meth:`access` inlined and bulk bookkeeping.

        One insert raises the total by at most one, so reclaim never needs
        the demote-then-retry branch: the inactive list is non-empty right
        after the insert (possibly holding only the new page itself, which
        is then the victim — exactly what :meth:`_reclaim` does).
        """
        active = self._active
        inactive = self._inactive
        cap = self.capacity
        max_active = max(1, int(cap * self.active_ratio))
        a_move = active.move_to_end
        a_pop = active.popitem
        i_pop = inactive.popitem
        hits = promotions = demotions = 0
        miss_pos: list[int] = []
        miss_app = miss_pos.append
        ev_pos: list[int] = []
        ev_pg: list[int] = []
        ev_pos_app = ev_pos.append
        ev_pg_app = ev_pg.append
        nact = len(active)
        ntotal = nact + len(inactive)
        for pos, p in enumerate(pages[start:stop].tolist(), start):
            if p in active:
                a_move(p)
                hits += 1
                continue
            if p in inactive:
                del inactive[p]
                active[p] = None
                hits += 1
                promotions += 1
                nact += 1
                while nact > max_active:
                    v, _ = a_pop(last=False)
                    inactive[v] = None
                    demotions += 1
                    nact -= 1
                continue
            miss_app(pos)
            inactive[p] = None
            if ntotal < cap:
                ntotal += 1
                continue
            v, _ = i_pop(last=False)
            ev_pos_app(pos)
            ev_pg_app(v)
        self.hits += hits
        self.misses += len(miss_pos)
        self.promotions += promotions
        self.demotions += demotions
        self.evictions += len(ev_pos)
        hits_mask[start:stop] = True
        if miss_pos:
            hits_mask[np.asarray(miss_pos, dtype=np.int64)] = False
        if ev_pos:
            ev_pos_parts.append(np.asarray(ev_pos, dtype=np.int64))
            ev_page_parts.append(np.asarray(ev_pg, dtype=np.int64))
        return stop

    @staticmethod
    def _in_sorted(arr: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Membership mask of ``arr`` against a *sorted unique* ``table``."""
        if table.size == 0:
            return np.zeros(arr.shape, dtype=bool)
        idx = np.searchsorted(table, arr)
        idx[idx == table.size] = 0  # out-of-range probes; equality rejects
        return table[idx] == arr

    def _replay_epochs(self, pages, i, n, epoch, max_active,
                       hits_mask, ev_pos_parts, ev_page_parts) -> int:
        """Epoch-batched replay, including warm-up below capacity.

        Per-page state packs ``(last_touch_epoch << 2) | list_code`` into
        one int (code 1 = inactive, 2 = active, 0 = out), so "touched in
        the current epoch" is one compare and no per-epoch reset pass is
        needed.  Reclaim only engages once the lists reach capacity
        (``ntotal`` tracks growth), which keeps warm-up on the same path:
        the demotion bound never depended on full lists, and in the epoch
        that crosses capacity the reclaim scan consumes at most
        ``E - (capacity - start_total)`` entries — within the inactive
        snapshot because the active share is capped at ``max_active``.

        The epoch path only pays off while few accesses need sequential
        treatment; once a warm epoch's first/second-touch density exceeds
        ``_LOOP_DENSITY`` the method writes the lists back and returns the
        resume position for the inline per-access loop (which beats the
        numpy glue on low-locality traces).  Returns ``n`` when done.
        """
        cap = self.capacity
        state: dict[int, int] = {}
        for p in self._active:
            state[p] = 2
        for p in self._inactive:
            state[p] = 1
        act_order = np.fromiter(self._active, count=len(self._active), dtype=np.int64)
        inact_order = np.fromiter(self._inactive, count=len(self._inactive), dtype=np.int64)
        nact = int(act_order.shape[0])
        ntotal = nact + int(inact_order.shape[0])
        d_hits = d_misses = d_promotions = d_demotions = d_evictions = 0
        in_sorted = self._in_sorted
        eidx = 0
        while i < n:
            eidx += 1
            tag = eidx << 2
            was_warm = ntotal == cap
            j = min(i + epoch, n)
            chunk = pages[i:j]
            m = j - i
            # One stable sort yields per-page first/second/last positions:
            # within a group of equal pages the permutation keeps access
            # order, so group starts/ends map straight to touch indices.
            order = np.argsort(chunk, kind="stable")
            sorted_pages = chunk[order]
            group = np.empty(m, dtype=bool)
            group[0] = True
            np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=group[1:])
            starts = np.flatnonzero(group)
            ends = np.concatenate([starts[1:], [m]])
            uniq = sorted_pages[starts]  # sorted: the membership table below
            multi = (ends - starts) >= 2
            first_idx = order[starts]
            last_idx = order[ends - 1]
            second_idx = order[starts[multi] + 1]
            # The sweep needs each page's first touch (hit/miss resolution)
            # *and* second touch (a missed page promotes when re-touched);
            # third and later touches are guaranteed active-hit no-ops.
            if second_idx.size:
                event_idx = np.sort(np.concatenate([first_idx, second_idx]))
            else:
                event_idx = np.sort(first_idx)
            # -- sequential sweep over first/second touches, in order ------
            act_snap = act_order.tolist()
            inact_snap = inact_order.tolist()
            n_act_snap = len(act_snap)
            n_inact_snap = len(inact_snap)
            d_ptr = e_ptr = 0
            miss_local: list[int] = []
            app_page: list[int] = []   # inactive-tail appends (inserts + demotions)
            demoted: list[int] = []
            evicted: list[int] = []
            evicted_at: list[int] = []
            sget = state.get
            for pos, p in zip(event_idx.tolist(), chunk[event_idx].tolist()):
                rec = sget(p, 0)
                code = rec & 3
                if code == 2:
                    if rec < tag:
                        state[p] = tag | 2  # first active touch: mark recency
                    continue
                if code == 1:
                    # hit on inactive: promote, then demote while over-share
                    state[p] = tag | 2
                    d_promotions += 1
                    nact += 1
                    while nact > max_active:
                        while True:
                            if d_ptr >= n_act_snap:  # unreachable: E < max_active
                                raise RuntimeError("two-gen replay: demotion scan exhausted")
                            v = act_snap[d_ptr]
                            d_ptr += 1
                            rv = sget(v, 0)
                            if rv & 3 == 2 and rv < tag:  # untouched, still active
                                break
                        state[v] = tag | 1
                        demoted.append(v)
                        app_page.append(v)
                        d_demotions += 1
                        nact -= 1
                    continue
                # miss: insert at inactive tail, reclaim the inactive head
                miss_local.append(pos)
                state[p] = tag | 1
                app_page.append(p)
                if ntotal < cap:
                    ntotal += 1
                    continue
                while True:
                    if e_ptr >= n_inact_snap:  # unreachable: E < inactive size
                        raise RuntimeError("two-gen replay: reclaim scan exhausted")
                    v = inact_snap[e_ptr]
                    e_ptr += 1
                    if sget(v, 0) & 3 == 1:  # untouched snapshot entry, in place
                        break
                state[v] = 0
                d_evictions += 1
                evicted.append(v)
                evicted_at.append(pos)
            # -- bulk hit bookkeeping -------------------------------------
            hits_mask[i:j] = True
            if miss_local:
                miss_arr = np.asarray(miss_local, dtype=np.int64)
                hits_mask[i + miss_arr] = False
                if evicted:
                    ev_pos_parts.append(i + np.asarray(evicted_at, dtype=np.int64))
                    ev_page_parts.append(np.asarray(evicted, dtype=np.int64))
            d_hits += m - len(miss_local)
            d_misses += len(miss_local)
            # -- rebuild list order at the epoch boundary -----------------
            # Touched pages end on active unless first-touched by a miss
            # and never re-touched; ordered among themselves by last touch
            # (each later touch is an active-hit move-to-end).
            first_hit = hits_mask[i + first_idx]
            ends_active = first_hit | multi
            act_new_pages = uniq[ends_active]
            act_new = act_new_pages[np.argsort(last_idx[ends_active])]
            act_rm = in_sorted(act_order, uniq)
            if demoted:
                act_rm |= in_sorted(act_order, np.sort(np.asarray(demoted, dtype=np.int64)))
            act_keep = act_order[~act_rm]
            inact_rm = in_sorted(inact_order, uniq)
            if evicted:
                inact_rm |= in_sorted(inact_order, np.sort(np.asarray(evicted, dtype=np.int64)))
            inact_keep = inact_order[~inact_rm]
            if app_page:
                appended = np.asarray(app_page, dtype=np.int64)
                inact_new = appended[~in_sorted(appended, act_new_pages)]
            else:
                inact_new = np.empty(0, dtype=np.int64)
            act_order = np.concatenate([act_keep, act_new])
            inact_order = np.concatenate([inact_keep, inact_new])
            if int(act_order.shape[0]) != nact or nact + int(inact_order.shape[0]) != ntotal:
                raise RuntimeError("two-gen replay: list-size conservation violated")
            i = j
            if was_warm and event_idx.shape[0] > _LOOP_DENSITY * m:
                break
        self._active = OrderedDict.fromkeys(act_order.tolist())
        self._inactive = OrderedDict.fromkeys(inact_order.tolist())
        self.hits += d_hits
        self.misses += d_misses
        self.promotions += d_promotions
        self.demotions += d_demotions
        self.evictions += d_evictions
        return i

    def _replay_kernel(self, pages: np.ndarray, epoch: int, max_active: int) -> LRUReplayLog:
        """Epoch replay resolved by two pointer scans per epoch.

        By the epoch invariant (see :meth:`replay`) second touches always
        hit — promoting when the first touch missed — and later touches
        are active hits, so only first touches need resolving.  A first
        touch of a page on the epoch-start active list hits, of a page on
        neither list misses, and of an inactive page hits unless reclaim
        evicted it first.  The reclaim scan settles that from the misses
        and inactive first touches alone: demoted pages append to the
        inactive tail, out of the reclaim pointer's reach, so it runs
        first.  The demotion scan then places demotions from the
        promotions and active first touches.  List order is rebuilt at
        each epoch boundary as :meth:`_replay_epochs` does.

        Per-page list membership lives in one int array indexed by dense
        page id, packing ``(index in its epoch-start list << 2) | code``
        (code 1 = inactive, 2 = active, 0 = on neither list).  First,
        second and last touches per epoch come from one previous-
        occurrence pass, which the returned log carries for the caller.
        """
        from repro.mem.reuse import _prev_occurrence

        n = int(pages.shape[0])
        act_pages, inact_pages = self.state_arrays()
        n_act = int(act_pages.shape[0])
        n_inact = int(inact_pages.shape[0])
        every = np.concatenate([act_pages, inact_pages, pages])
        if int(every.min()) >= 0 and int(every.max()) < _DIRECT_ID_SPAN * every.shape[0]:
            uniq = None
            n_ids = int(every.max()) + 1
            act, inact, ids = act_pages, inact_pages, pages
        else:
            uniq, dense = np.unique(every, return_inverse=True)
            n_ids = int(uniq.shape[0])
            act = dense[:n_act]
            inact = dense[n_act:n_act + n_inact]
            ids = dense[n_act + n_inact:]
        state = np.zeros(n_ids, dtype=np.int64)
        state[act] = np.arange(n_act, dtype=np.int64) * 4 + 2
        state[inact] = np.arange(n_inact, dtype=np.int64) * 4 + 1
        prev = _prev_occurrence(ids, n)
        warm = np.flatnonzero(prev >= 0)
        nxt = np.full(n, n, dtype=np.int64)  # n: no later touch
        nxt[prev[warm]] = warm
        hits = np.ones(n, dtype=bool)
        ev_pos_parts: list[np.ndarray] = []
        ev_id_parts: list[np.ndarray] = []
        nact = n_act
        ntotal = n_act + n_inact
        d_misses = d_promotions = d_demotions = 0
        for s in range(0, n, epoch):
            e = min(s + epoch, n)
            first = np.flatnonzero(prev[s:e] < s) + s
            code_k = state[ids[first]]
            code = code_k & 3
            k = code_k >> 2
            on_inact = code == 1
            on_act = code == 2
            # -- reclaim scan: misses and inactive first touches ----------
            i_first = np.full(int(inact.shape[0]), _UNTOUCHED, dtype=np.int64)
            i_first[k[on_inact]] = first[on_inact]
            r_sel = ~on_act
            r_pos = first[r_sel]
            r_k = np.where(on_inact, k, -1)[r_sel]
            room = self.capacity - ntotal
            victims, evicted_first, room_left = self._pointer_scan(
                r_pos, r_k, i_first, room, "reclaim")
            # misses: pages on neither list, and inactive pages evicted
            # before their first touch; all but the first ``room`` evict
            miss = np.sort(np.concatenate([r_pos[r_k < 0], i_first[evicted_first]]))
            hits[miss] = False
            ntotal += room - room_left
            evicted = inact[victims]
            if evicted.size:
                ev_pos_parts.append(miss[room - room_left:])
                ev_id_parts.append(evicted)
            # -- demotion scan: promotions and active first touches -------
            # promotions: inactive first touches that hit, and the second
            # touch of every page whose first touch missed
            nx = nxt[miss]
            prom = np.sort(np.concatenate([first[on_inact & hits[first]], nx[nx < e]]))
            a_first = np.full(n_act, _UNTOUCHED, dtype=np.int64)
            a_first[k[on_act]] = first[on_act]
            d_pos = np.concatenate([prom, first[on_act]])
            d_k = np.concatenate([np.full(prom.shape[0], -1, dtype=np.int64), k[on_act]])
            order = np.argsort(d_pos)
            room = max_active - nact
            dem, repromoted, room_left = self._pointer_scan(
                d_pos[order], d_k[order], a_first, room, "demotion")
            if repromoted.size:
                # a demoted page first-touched later in the epoch promotes again
                prom = np.sort(np.concatenate([prom, a_first[repromoted]]))
            nact += room - room_left
            dem_at = prom[room - room_left:]
            d_misses += int(miss.shape[0])
            d_promotions += int(prom.shape[0])
            d_demotions += int(dem.shape[0])
            # -- rebuild list order at the epoch boundary -----------------
            # active: untouched survivors, then the touched pages that end
            # active, by last touch — those whose last touch hit, as every
            # re-touch does: all but single-touch misses
            a_keep = a_first == _UNTOUCHED
            a_keep[dem] = False
            last = np.flatnonzero(nxt[s:e] >= e) + s
            last = last[hits[last]]
            act0 = act
            act = np.concatenate([act0[a_keep], ids[last]])
            # inactive: untouched survivors, then misses and demotions in
            # position order, minus pages promoted later in the epoch
            i_keep = i_first == _UNTOUCHED
            i_keep[victims] = False
            m_stay = miss[nx >= e]
            appended = ids[m_stay]
            if dem.size:
                d_stay = a_first[dem] == _UNTOUCHED
                app_pos = np.concatenate([m_stay, dem_at[d_stay]])
                appended = np.concatenate([appended, act0[dem[d_stay]]])
                appended = appended[np.argsort(app_pos)]
            inact = np.concatenate([inact[i_keep], appended])
            n_act = int(act.shape[0])
            if n_act != nact or n_act + int(inact.shape[0]) != ntotal:
                raise RuntimeError("two-gen replay: list-size conservation violated")
            state[evicted] = 0
            state[act] = np.arange(n_act, dtype=np.int64) * 4 + 2
            state[inact] = np.arange(int(inact.shape[0]), dtype=np.int64) * 4 + 1
        if uniq is not None:
            act = uniq[act]
            inact = uniq[inact]
        self._active = OrderedDict.fromkeys(act.tolist())
        self._inactive = OrderedDict.fromkeys(inact.tolist())
        if ev_pos_parts:
            evict_pos = np.concatenate(ev_pos_parts)
            evict_page = np.concatenate(ev_id_parts)
            if uniq is not None:
                evict_page = uniq[evict_page]
        else:
            evict_pos = np.empty(0, dtype=np.int64)
            evict_page = np.empty(0, dtype=np.int64)
        self.hits += n - d_misses
        self.misses += d_misses
        self.promotions += d_promotions
        self.demotions += d_demotions
        self.evictions += int(evict_pos.shape[0])
        return LRUReplayLog(hits, evict_pos, evict_page, prev)

    @staticmethod
    def _pointer_scan(pos: np.ndarray, k: np.ndarray, first: np.ndarray, room: int,
                      scan: str) -> tuple[np.ndarray, np.ndarray, int]:
        """One epoch of a list-head pointer over its epoch-start list.

        Both scans of :meth:`_replay_kernel` share this shape.  Events
        come in position order (``pos``); each one puts a page on the
        list — a miss onto inactive, a promotion onto active — except a
        touch of an epoch-start entry the pointer has not reached yet,
        which is a plain hit.  ``k[i]`` is the epoch-start index of the
        page of event ``i``, or -1 for a page that always enters.  The
        first ``room`` entering events fill free slots; each later one
        pops the list head: the pointer skips the entries first-touched
        by then (``first[j]``, ``_UNTOUCHED`` if never), whose touch moved
        them away from the head, and pops the next one.

        Returns the popped indices in pop order, the popped entries that
        re-entered at their first touch (behind the pointer), and the
        unused ``room``.
        """
        entering = np.flatnonzero(k < 0)
        if entering.shape[0] <= room:  # the pointer never moves
            none = np.empty(0, dtype=np.int64)
            return none, none, room - int(entering.shape[0])
        # Until the first pop the pointer sits at 0, so every event before
        # it is a plain hit or fills a free slot: start the walk there.
        start = int(entering[room])
        back: list[int] = []
        back_app = back.append
        firsts = first.tolist()
        ptr = 0
        try:
            for t, j in zip(pos[start:].tolist(), k[start:].tolist()):
                if j >= ptr:
                    continue  # epoch-start entry ahead of the pointer: a plain hit
                if j >= 0:
                    back_app(j)  # popped earlier this epoch, enters again
                while firsts[ptr] < t:
                    ptr += 1
                ptr += 1
        except IndexError:
            raise RuntimeError(
                f"two-gen replay: {scan} pointer ran off its epoch-start list "
                "(epoch invariant violated)"
            ) from None
        backs = np.asarray(back, dtype=np.int64)
        popped = np.concatenate([np.flatnonzero(first[:ptr] == _UNTOUCHED), backs])
        return np.sort(popped), backs, 0

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (active, inactive) list contents, LRU-first, as arrays."""
        return (
            np.fromiter(self._active, count=len(self._active), dtype=np.int64),
            np.fromiter(self._inactive, count=len(self._inactive), dtype=np.int64),
        )

    def restore_state(self, active: np.ndarray, inactive: np.ndarray) -> None:
        """Overwrite list contents/order from :meth:`state_arrays` output."""
        total = int(active.shape[0]) + int(inactive.shape[0])
        if total > self.capacity:
            raise ValueError(f"state holds {total} pages, capacity is {self.capacity}")
        self._active = OrderedDict.fromkeys(active.tolist())
        self._inactive = OrderedDict.fromkeys(inactive.tolist())

    def discard(self, key: Hashable) -> bool:
        """Drop ``key`` from whichever list holds it."""
        if key in self._active:
            del self._active[key]
            return True
        if key in self._inactive:
            del self._inactive[key]
            return True
        return False

    def resize(self, capacity: int) -> None:
        """Change capacity (the cgroup memory.high knob); reclaims if shrunk."""
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self._reclaim()

    @property
    def hit_rate(self) -> float:
        """Hits / accesses so far (0.0 before any access)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
