"""Reference implementations the equivalence tests compare against.

Each is the slow, obviously-correct way to compute what a production
path computes fast, kept here so that production holds one path:

* :func:`reuse_distances_fenwick` — the classic per-access Fenwick-tree
  loop; :mod:`repro.mem.reuse`'s vectorized kernel must match it bit for
  bit.
* :class:`LRUCache` — a plain exact LRU over hashable keys, one
  ``OrderedDict`` move per access; :func:`repro.mem.lru.lru_replay` and
  the miss-ratio curves must match its hits, misses and victims.
* :func:`classify_evictions_reference` — the swap-cache ownership scan
  as a segmented running maximum over ``(page, position, kind)`` rows;
  :func:`repro.swap.replay._classify_evictions` must match its clean
  flags and end-of-span far set.
* :func:`grid_configure` / :func:`grid_max_offload_under_slo` — the
  exhaustive scalar sweeps the tuner replaced: one
  ``SwapPathModel.cost`` call per lattice point, and a 12-step scalar
  bisection over the far-memory ratio.  They take the console as their
  first argument, so a test can patch them over
  :class:`~repro.core.console.SmartConsole`'s methods and run whole
  experiments on the grid, and they tally the console's ``TuneStats``
  (``scalar_runs`` and ``grid_runs``) once per scalar evaluation.

:func:`assert_engines_agree` is the one differential harness the swap
equivalence suites share: whatever engine the dispatcher picks must
agree with the reference per-access loop,
:func:`~repro.swap.executor.run_event`.

``benchmarks/perf_smoke.py`` times the reuse and tuner references
(``reuse`` and ``tune`` suites).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable
from typing import Hashable

import numpy as np

from repro.core.config import xdm_config
from repro.core.console import ConfigDecision
from repro.errors import ConfigurationError
from repro.mem.page import PageOp
from repro.mem.reuse import COLD
from repro.swap.executor import COUNTERS, run_event, run_tenants
from repro.swap.pathmodel import SwapPathModel

__all__ = ["reuse_distances_fenwick", "LRUCache", "classify_evictions_reference",
           "grid_configure", "grid_max_offload_under_slo", "assert_engines_agree"]


def reuse_distances_fenwick(pages: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access, one access at a time."""
    n = pages.shape[0]
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out

    # Fenwick tree over access timestamps: tree[i] == 1 iff timestamp i is
    # the *latest* access of some page. The stack distance of an access at
    # time t to a page last seen at time s is the number of set timestamps
    # in (s, t), i.e. prefix(t-1) - prefix(s).
    tree = [0] * (n + 1)
    last_seen: dict[int, int] = {}
    page_list = pages.tolist()  # avoid numpy scalar overhead in the hot loop
    out_list = [0] * n

    def update(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(i: int) -> int:
        # sum of tree[0..i] inclusive
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    get = last_seen.get
    for t in range(n):
        p = page_list[t]
        s = get(p)
        if s is None:
            out_list[t] = -1  # cold, patched below
        else:
            # distinct pages touched strictly between s and t, plus the page
            # itself is NOT counted (distance 0 == immediate re-reference).
            out_list[t] = prefix(t - 1) - prefix(s)
            update(s, -1)
        update(t, 1)
        last_seen[p] = t

    out[:] = out_list
    out[out == -1] = COLD
    return out


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


def classify_evictions_reference(
    pages: np.ndarray,
    ops: np.ndarray,
    evict_pos: np.ndarray,
    evict_page: np.ndarray,
    n: int,
    far0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the victim stream into writebacks vs clean drops; find the
    pages still holding a valid far copy at end of run — the reference
    :func:`repro.swap.replay._classify_evictions` must match.

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

    Resolved as one segmented scan: merge per-page STORE-access events and
    eviction events, sort by ``(page, position, store-before-evict)``, and
    take running maxima of store/eviction positions with a per-group
    offset so groups cannot bleed into each other.
    """
    n_e = int(evict_pos.shape[0])
    n_f = int(far0.shape[0])
    if n_e == 0 and n_f == 0:
        return np.zeros(0, dtype=bool), np.empty(0, dtype=np.int64)
    s_pos = np.flatnonzero(ops == int(PageOp.STORE))
    s_page = pages[s_pos]
    n_s = int(s_pos.shape[0])
    ev_page = np.concatenate([s_page, far0, evict_page])
    ev_pos = np.concatenate(
        [s_pos + 1, np.zeros(n_f, dtype=np.int64), evict_pos + 1]
    )
    ev_kind = np.concatenate(
        [np.zeros(n_s, dtype=np.int8), np.ones(n_f + n_e, dtype=np.int8)]
    )
    # stores sort before evictions at the same (page, position): the
    # running store-max at an eviction row then already includes the
    # self-eviction STORE.  Keys are unique per event, so when they pack
    # into an int64 a single-key argsort replaces the 3-key lexsort.
    # (Virtual seam rows are the one exception — they tie at pseudo-
    # position 0 with nothing, every real position being >= 1.)
    stride = np.int64(2 * (n + 2))
    widest = max(int(ev_page.max()), -int(ev_page.min()))
    if widest + 1 <= (2**63 - 1) // int(stride):
        order = np.argsort(ev_page * stride + 2 * ev_pos + ev_kind)
    else:
        order = np.lexsort((ev_kind, ev_pos, ev_page))
    page_s = ev_page[order]
    pos_s = ev_pos[order]
    kind_s = ev_kind[order]
    total = n_s + n_f + n_e
    newg = np.empty(total, dtype=bool)
    newg[0] = True
    np.not_equal(page_s[1:], page_s[:-1], out=newg[1:])
    gid = np.cumsum(newg) - 1
    # Segmented running max via a per-group offset: with BIG > n + 1 every
    # value of group g (even the -1 "no event yet" sentinel) exceeds any
    # offset value of group g-1, so one global cummax respects boundaries.
    big = np.int64(n + 2)
    offset = gid * big
    store_val = np.where(kind_s == 0, pos_s, -1) + offset
    run_store = np.maximum.accumulate(store_val) - offset
    evict_val = np.where(kind_s == 1, pos_s, -1) + offset
    run_evict = np.maximum.accumulate(evict_val) - offset
    # previous eviction strictly before this row: shift the inclusive scan
    prev_evict = np.empty(total, dtype=np.int64)
    prev_evict[0] = -1
    prev_evict[1:] = run_evict[:-1]
    prev_evict[newg] = -1
    evict_rows = np.flatnonzero(kind_s == 1)
    clean_sorted = (prev_evict[evict_rows] >= 0) & (
        run_store[evict_rows] <= prev_evict[evict_rows]
    )
    # scatter back to the original in-order victim stream (eviction i sat
    # at merged index n_s + n_f + i before sorting; lower indices are
    # virtual seam rows, which export no victim)
    clean = np.empty(n_e, dtype=bool)
    orig = order[evict_rows]
    real = orig >= n_s + n_f
    clean[orig[real] - (n_s + n_f)] = clean_sorted[real]
    # end-of-run far set, read off each group's last row
    gend = np.flatnonzero(np.concatenate([newg[1:], [True]]))
    far_mask = (run_evict[gend] >= 0) & (run_store[gend] <= run_evict[gend])
    far_end = np.ascontiguousarray(page_s[gend][far_mask])
    return clean, far_end


def grid_configure(
    console,
    features,
    device,
    fault_parallelism: float = 1.0,
    fm_ratio: float | None = None,
    numa_sensitivity: float = 0.5,
    objective: str = "sys_time",
    co_tenants: int = 0,
):
    """``SmartConsole.configure`` as an exhaustive scalar lattice sweep.

    Granularity outer, width inner, both ascending; a candidate replaces
    the incumbent only on strict improvement, so ties keep the first.
    """
    if objective not in ("sys_time", "stall_time"):
        raise ConfigurationError(f"unknown objective {objective!r}")
    model = SwapPathModel(device, features, fault_parallelism=fault_parallelism)
    if fm_ratio is None:
        n_pages = max(1, features.mrc.n_pages)
        hot = console.min_fm_ratio_local_pages(features)
        fm_ratio = min(console.limits.max_fm_ratio, max(0.0, 1.0 - hot / n_pages))
    else:
        console.limits.validate_fm_ratio(fm_ratio)
    local_pages = model.local_pages_for(fm_ratio)

    best = None
    for g in console.granularity_candidates(features):
        for w in console.io_width_candidates(features, device, fault_parallelism):
            config = xdm_config(granularity=g, io_width=w, co_tenants=co_tenants)
            cost = model.cost(local_pages, config)
            console.stats.scalar_runs += 1
            console.stats.grid_runs += 1
            if best is None or getattr(cost, objective) < getattr(best[1], objective):
                best = (config, cost)
    chosen, predicted = best
    return ConfigDecision(
        config=chosen,
        fm_ratio=fm_ratio,
        local_pages=local_pages,
        numa_placement=console.numa_placement(numa_sensitivity),
        predicted=predicted,
    )


def grid_max_offload_under_slo(
    console,
    features,
    device,
    compute_time: float,  # simlint: dim[compute_time=seconds]
    slo: float,
    fault_parallelism: float = 1.0,
):
    """``SmartConsole.max_offload_under_slo`` as a 12-step scalar bisection.

    Each midpoint ratio runs a full :func:`grid_configure` sweep; runtime
    is monotone in the ratio, so a feasible midpoint raises ``lo``.
    """
    if slo < 1.0:
        raise ConfigurationError(f"slo must be >= 1.0, got {slo}")
    if compute_time <= 0:
        raise ConfigurationError("compute_time must be positive")
    budget = compute_time * slo
    lo_ok = None
    lo, hi = 0.0, console.limits.max_fm_ratio
    for _ in range(12):
        mid = (lo + hi) / 2.0
        decision = grid_configure(
            console, features, device, fault_parallelism=fault_parallelism, fm_ratio=mid
        )
        runtime = compute_time + decision.predicted.stall_time
        if runtime <= budget:
            lo_ok = (mid, decision)
            lo = mid
        else:
            hi = mid
    if lo_ok is None:
        return 0.0, None
    return lo_ok


def _assert_close(got, want, what, abs_tol=1e-12):
    """``got`` equals ``want`` to float round-off (1e-9 relative)."""
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=abs_tol), (what, got, want)


def assert_engines_agree(build, traces, warmup=None):
    """Run ``traces`` through :func:`~repro.swap.executor.run_tenants` and
    the reference :func:`~repro.swap.executor.run_event`, each on its own
    ``build()`` (fresh executors, one per trace), and assert per tenant:

    * exact ``COUNTERS`` and ``fault_latency.n``; ``stall_time`` to
      round-off (graceful-degradation waits are ``recovery - sim.now``);
    * the same end state: LRU lists and their order, touched set,
      far-copy owners and active backend, and each backend device's ops
      and bytes read and written;
    * with one tenant, ``sim_time`` and the mean fault latency to 1e-9
      (under contention the admission window is the quantum);
    * with a failover controller, its failovers, detection and switch
      times, and every monitor's reports, excluding report times (a
      check inside a batch segment is stamped when its window's fault
      step completes, not at the crossing fault).

    ``warmup`` traces, if given, run first on each side through that
    side's engine, so a stack warmed by whatever ``run_tenants`` picks
    (batch, on a cold stack) must continue like one the reference loop
    warmed; counters then cover both runs.

    Returns the two executor lists, ``run_tenants``'s first.
    """
    got, want = build(), build()
    for group in (traces,) if warmup is None else (warmup, traces):
        run_tenants(got, group)
        run_event(want, group)
    for i, (g, w) in enumerate(zip(got, want)):
        gr, wr = g.result, w.result
        for c in COUNTERS:
            assert getattr(gr, c) == getattr(wr, c), (i, c, getattr(gr, c), getattr(wr, c))
        assert gr.fault_latency.n == wr.fault_latency.n, i
        _assert_close(gr.stall_time, wr.stall_time, (i, "stall_time"), abs_tol=1e-15)
        for lists in zip(g.lru.state_arrays(), w.lru.state_arrays()):
            assert lists[0].tolist() == lists[1].tolist(), (i, "lru")
        assert g._touched == w._touched, (i, "touched")
        gf, wf = g.frontend, w.frontend
        assert gf._owner == wf._owner, (i, "owners")
        assert gf.active_backend == wf.active_backend, i
        assert gf.backends == wf.backends, i
        for name in wf.backends:
            gd, wd = gf.module(name).device, wf.module(name).device
            assert (gd.ops, gd.bytes_read, gd.bytes_written) == \
                (wd.ops, wd.bytes_read, wd.bytes_written), (i, name)
        if len(traces) == 1:
            _assert_close(gr.sim_time, wr.sim_time, "sim_time")
            if wr.fault_latency.n:
                _assert_close(gr.fault_latency.mean, wr.fault_latency.mean, "latency")
        if w.failover is not None:
            _assert_controllers_agree(g.failover, w.failover)
    return got, want


def _assert_controllers_agree(got, want):
    assert got.failovers == want.failovers
    for attr in ("detected_at", "switched_at"):
        g, w = getattr(got, attr), getattr(want, attr)
        if g is None or w is None:
            assert g is w, attr
        else:
            _assert_close(g, w, attr)
    assert sorted(got.monitors) == sorted(want.monitors)
    for name, monitor in want.monitors.items():
        reports = got.monitors[name].reports
        assert len(reports) == len(monitor.reports), name
        for g, w in zip(reports, monitor.reports):
            assert (g.samples, g.healthy) == (w.samples, w.healthy), name
            for attr in ("p50_latency", "p99_latency", "delivered_bandwidth"):
                _assert_close(getattr(g, attr), getattr(w, attr), (name, attr))
