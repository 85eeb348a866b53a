"""Exact LRU structures mirroring the kernel's reclaim lists.

:class:`ActiveInactiveLRU` models Linux's two-generation scheme: pages
enter the inactive list, are promoted on a second touch, and reclaim
scans inactive before active — which is what gives co-located workloads
on a *shared* swap channel their mutual interference (a burst from one
tenant flushes the other's inactive list; the paper's Fig 17 quantifies
the resulting latency).

Two *batched replays* resolve a whole page-id array at once:

* :func:`lru_replay` resolves exact LRU fully vectorized from one reuse-
  distance pass (hit iff stack distance < capacity; the k-th eviction
  pairs with the k-th access whose next reuse distance reaches capacity);
* :meth:`ActiveInactiveLRU.replay` runs large caches (epochs of ``E =
  min(capacity - max_active, max_active) - 1 >= _KERNEL_EPOCH``
  accesses) through two integer pointer scans per epoch.  Reclaim and
  demotion each pop a list head, which within an epoch is a pointer
  into the list as it stood at the epoch start, stepping over entries a
  touch moved away.  Every pointer step costs one access and each start
  list is longer than ``E`` steps, so no pointer runs off its start list
  into pages moved there within the epoch: a page touched in an epoch
  is neither evicted nor demoted in it, and only first touches need
  resolving.  This holds while the active list starts within its
  ``max_active`` share; a shrinking ``resize()`` can break that.  Such
  calls, and every call on a smaller cache, take the inlined per-access
  loop.

Replays are bit-identical to per-access replay — ``ActiveInactiveLRU``'s
own :meth:`~ActiveInactiveLRU.access`, and for :func:`lru_replay` the
per-access exact LRU ``tests.oracles.LRUCache`` (the equivalence tests
lock both in); they are what the batched fault-replay engine
(:mod:`repro.swap.replay`) is built on.

An ``ActiveInactiveLRU`` holds its lists in one of two forms.  After a
kernel replay or a :meth:`~ActiveInactiveLRU.restore_state` it keeps them
as the kernel's read-only ``(active, inactive)`` int64 arrays, which
:meth:`~ActiveInactiveLRU.state_arrays` hands out and the next kernel
call takes in without a copy; the first per-access call (``access``,
``discard``, ``in``, ``resize``, the per-access replay loop) builds the
``OrderedDict`` form from them once.  Between batched replays the lists
are therefore never converted at all.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from typing import Hashable

import numpy as np

__all__ = ["ActiveInactiveLRU", "LRUReplayLog", "lru_replay"]

#: From this epoch length on, replay resolves epochs with the two-pointer
#: scan kernel instead of the per-access loop.  Its fixed numpy cost per
#: epoch is O(capacity), so it only wins on large caches.  Measured
#: crossover on 200 k-access uniform / zipf-1.1 / hot-set traces (kernel
#: speed relative to the loop, two runs of median-of-5, shared 2-core
#: Xeon host): 0.26-0.30 / 0.19-0.21 / 0.10-0.16x at E = 63, 0.71-0.75 /
#: 0.48-0.53 / 0.28x at 255, 1.15-1.43 / 0.80-1.42 / 0.67-0.81x at 1023,
#: 1.40-1.73 / 1.04-1.29 / 0.80-1.01x at 2047, 1.74-1.76 / 1.29-1.57 /
#: 0.99-1.20x at 4095, 2.04-2.07 / 1.59-1.63 / 1.17-1.32x at 8191.  4096
#: is the first power of two where the kernel wins on uniform and zipf
#: and at least ties on the hot-set trace, whose loop is almost all
#: active-list hits (DESIGN §3.2 has the table).
_KERNEL_EPOCH = 4096  # simlint: ignore[UNIT001] -- epoch length in accesses, not bytes

#: Page ids below this multiple of the id count index the kernel's state
#: array directly; larger or negative ids are first densified with
#: ``np.unique``.
_DIRECT_ID_SPAN = 4

#: First-touch position of an epoch-start entry not touched in the epoch.
_UNTOUCHED = np.iinfo(np.int64).max


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only int64 array, copied unless it already is one."""
    if a.dtype != np.int64 or a.flags.writeable:
        a = np.array(a, dtype=np.int64)
        a.flags.writeable = False
    return a


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

    Equivalent to feeding every page to the per-access test oracle
    ``tests.oracles.LRUCache`` and recording hits and eviction victims,
    but resolved from one reuse-distance pass (Mattson): an access hits
    iff its stack distance is below ``capacity``; evictions start at the
    ``capacity+1``-th miss and the k-th eviction removes the page of the
    k-th access whose *next* reuse distance is >= ``capacity`` (or that is
    never re-accessed) — under exact LRU victims leave in the order of
    their last touch.
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

    The lists live either as two ``OrderedDict`` (dict form, what the
    per-access methods work on) or as two read-only int64 arrays, LRU-
    first (array form, what batched replays and :meth:`restore_state`
    leave); see the module docstring.
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
        #: the lists in dict form; both None in array form
        self._active: OrderedDict[Hashable, None] | None = OrderedDict()
        self._inactive: OrderedDict[Hashable, None] | None = OrderedDict()
        #: the lists in array form; None in dict form
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.demotions = 0
        self.evictions = 0

    def _to_dicts(self) -> None:
        """Switch to dict form: build the lists' ``OrderedDict`` once."""
        act, inact = self._arrays
        self._active = OrderedDict.fromkeys(act.tolist())
        self._inactive = OrderedDict.fromkeys(inact.tolist())
        self._arrays = None

    def _to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Switch to array form (the kernel replaces the lists anyway)."""
        if self._arrays is None:
            self._set_arrays(*self.state_arrays())
        return self._arrays

    def _set_arrays(self, active: np.ndarray, inactive: np.ndarray) -> None:
        self._arrays = (active, inactive)
        self._active = self._inactive = None

    def __len__(self) -> int:
        if self._arrays is not None:
            return int(self._arrays[0].shape[0] + self._arrays[1].shape[0])
        return len(self._active) + len(self._inactive)

    def __contains__(self, key: Hashable) -> bool:
        if self._arrays is not None:
            self._to_dicts()
        return key in self._active or key in self._inactive

    @property
    def active_size(self) -> int:
        """Entries on the protected list."""
        if self._arrays is not None:
            return int(self._arrays[0].shape[0])
        return len(self._active)

    @property
    def inactive_size(self) -> int:
        """Entries on the probation list."""
        if self._arrays is not None:
            return int(self._arrays[1].shape[0])
        return len(self._inactive)

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; True on hit (either list), False on miss."""
        if self._arrays is not None:
            self._to_dicts()
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
    def replay(self, pages: np.ndarray, epoch_states: list | None = None) -> LRUReplayLog:
        """Touch every page in ``pages`` in order, batched.

        Bit-identical to calling :meth:`access` per element — same final
        list contents *and order*, same counters — with large caches
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

        Precondition for the epoch path: the call starts with at most
        ``max_active`` pages on the active list, which bounds the active
        pointer's steps and leaves the inactive list long enough.  Only a
        shrinking :meth:`resize` (or a :meth:`restore_state` of such a
        state) breaks it.  Calls that meet it with epochs of at least
        ``_KERNEL_EPOCH`` accesses go to the two-scan kernel
        (:meth:`_replay_kernel`), which takes the lists in and leaves them
        in array form; every other call takes the per-access loop
        (:meth:`_replay_loop`), which is exact for any state and leaves
        dict form.

        ``epoch_states`` is the hybrid planner's internal hook: a list that
        receives, for every kernel epoch boundary inside the call, the
        tuple ``(position, active, inactive, hits, misses, promotions,
        demotions, evictions)`` — the lists (read-only arrays) and the
        five counters as they stood before the access at ``position``.
        A partial fit restores the last one at or before its cut and
        replays at most one epoch.  The per-access loop records none.
        """
        if self.on_evict is not None:
            raise ValueError("replay() with an on_evict callback; victims are returned in the log")
        pages = np.ascontiguousarray(np.asarray(pages, dtype=np.int64))
        max_active = max(1, int(self.capacity * self.active_ratio))
        epoch = min(self.capacity - max_active, max_active) - 1
        if pages.size and self.active_size <= max_active and epoch >= _KERNEL_EPOCH:
            return self._replay_kernel(pages, epoch, max_active, epoch_states)
        return self._replay_loop(pages)

    def _replay_loop(self, pages: np.ndarray) -> LRUReplayLog:
        """Per-access path with :meth:`access` inlined and bulk bookkeeping.

        One insert raises the total by at most one, so reclaim never needs
        the demote-then-retry branch: the inactive list is non-empty right
        after the insert (possibly holding only the new page itself, which
        is then the victim — exactly what :meth:`_reclaim` does).
        """
        if self._arrays is not None:
            self._to_dicts()
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
        for pos, p in enumerate(pages.tolist()):
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
        hits_mask = np.ones(pages.shape[0], dtype=bool)
        hits_mask[np.asarray(miss_pos, dtype=np.int64)] = False
        return LRUReplayLog(hits_mask, np.asarray(ev_pos, dtype=np.int64),
                            np.asarray(ev_pg, dtype=np.int64))

    def _replay_kernel(self, pages: np.ndarray, epoch: int, max_active: int,
                       epoch_states: list | None = None) -> LRUReplayLog:
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
        each epoch boundary: untouched survivors keep their place, then
        come the pages that end active, by last touch, and the misses and
        demotions that stay inactive, by position.

        The lists come in and go out in array form, so a run of kernel
        calls never converts them.  Per-page list membership lives in one
        int array indexed by dense page id, packing ``(index in its
        epoch-start list << 2) | code`` (code 1 = inactive, 2 = active, 0
        = on neither list).  First, second and last touches per epoch
        come from one previous/next-occurrence pass, whose previous-
        occurrence half the returned log carries for the caller.
        """
        from repro.mem.reuse import _prev_occurrence

        n = int(pages.shape[0])
        act_pages, inact_pages = self._to_arrays()
        n_act = int(act_pages.shape[0])
        n_inact = int(inact_pages.shape[0])
        parts = [a for a in (act_pages, inact_pages, pages) if a.size]
        lo = min(int(a.min()) for a in parts)
        hi = max(int(a.max()) for a in parts)
        if lo >= 0 and hi < _DIRECT_ID_SPAN * (n_act + n_inact + n):
            uniq = None
            n_ids = hi + 1
            act, inact, ids = act_pages, inact_pages, pages
        else:
            uniq, dense = np.unique(np.concatenate([act_pages, inact_pages, pages]),
                                    return_inverse=True)
            n_ids = int(uniq.shape[0])
            act = dense[:n_act]
            inact = dense[n_act:n_act + n_inact]
            ids = dense[n_act + n_inact:]
        state = np.zeros(n_ids, dtype=np.int64)
        state[act] = np.arange(n_act, dtype=np.int64) * 4 + 2
        state[inact] = np.arange(n_inact, dtype=np.int64) * 4 + 1
        nxt = np.full(n, n, dtype=np.int64)  # n: no later touch
        prev = _prev_occurrence(ids, n, nxt)
        hits = np.ones(n, dtype=bool)
        ev_pos_parts: list[np.ndarray] = []
        ev_id_parts: list[np.ndarray] = []
        nact = n_act
        ntotal = n_act + n_inact
        d_misses = d_promotions = d_demotions = d_evictions = 0
        for s in range(0, n, epoch):
            if s and epoch_states is not None:
                lists = (act, inact) if uniq is None else (uniq[act], uniq[inact])
                for a in lists:
                    a.flags.writeable = False
                epoch_states.append((
                    s, *lists, self.hits + s - d_misses, self.misses + d_misses,
                    self.promotions + d_promotions, self.demotions + d_demotions,
                    self.evictions + d_evictions))
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
                d_evictions += int(evicted.shape[0])
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
        del state, nxt
        if uniq is not None:
            act = uniq[act]
            inact = uniq[inact]
        act.flags.writeable = False
        inact.flags.writeable = False
        self._set_arrays(act, inact)
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
        self.evictions += d_evictions
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
        """Current (active, inactive) list contents, LRU-first, as read-only
        int64 arrays: in array form the LRU's own (no copy), in dict form
        fresh ones (the LRU stays in dict form)."""
        if self._arrays is not None:
            return self._arrays
        lists = (
            np.fromiter(self._active, count=len(self._active), dtype=np.int64),
            np.fromiter(self._inactive, count=len(self._inactive), dtype=np.int64),
        )
        for a in lists:
            a.flags.writeable = False
        return lists

    def restore_state(self, active: np.ndarray, inactive: np.ndarray) -> None:
        """Overwrite list contents/order from :meth:`state_arrays` output.

        Leaves the LRU in array form.  Read-only int64 arrays are kept as
        given; anything else is copied into read-only arrays first, so no
        caller holds a writable alias of the lists.
        """
        total = int(active.shape[0]) + int(inactive.shape[0])
        if total > self.capacity:
            raise ValueError(f"state holds {total} pages, capacity is {self.capacity}")
        self._set_arrays(_read_only(active), _read_only(inactive))

    def discard(self, key: Hashable) -> bool:
        """Drop ``key`` from whichever list holds it."""
        if self._arrays is not None:
            self._to_dicts()
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
        if self._arrays is not None:
            self._to_dicts()
        self.capacity = capacity
        self._reclaim()

    @property
    def hit_rate(self) -> float:
        """Hits / accesses so far (0.0 before any access)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
