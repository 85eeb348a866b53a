"""Segmented hybrid replay: the execution planner unifying the engines.

The batched fault-replay engine (:mod:`repro.swap.replay`) is ~15x faster
than the per-access event loop but assumes the access outcome stream is
predetermined — which fault windows and failover controllers break:
retries, stalls, and mid-run switches depend on *when* each access runs.
Before this module any run with a live :class:`~repro.faults.plan.FaultPlan`
or an attached :class:`~repro.faults.failover.FailoverController` paid the
full event-engine cost even though faults occupy a sliver of its time.

:func:`hybrid_run` recovers the batch speedup by slicing the trace into
segments on *hazard* boundaries — the merged live fault windows of the
active backend's plan:

* **outside** every hazard span, chunks of the trace are classified
  against the live seam state (:func:`~repro.swap.replay.classify_span`)
  and admitted as aggregate per-``_WINDOW`` steps by the same windowed
  admission the batch engine runs (:func:`~repro.swap.replay._admit`);
* **inside** a hazard span (and on its approach, once batching to the
  window start would risk overshooting), the exact per-access event loop
  runs (:meth:`SwapExecutor._span_proc`), faithfully resolving retries,
  stalls, graceful degradation, and failover decisions;
* **across seams**, the LRU lists advance in place, the touched set and
  far-copy ownership are reconciled per chunk, and — when a failover
  controller is attached — the health monitor is fed the batch segments'
  per-fault latencies at exact global fault ordinals, so every health
  check fires at the same fault index with the same window content as in
  the pure event engine (a check inside a batch segment is stamped with
  the completion time of its window's fault step, not the crossing
  fault's own).

Two invariants make the splice exact:

* a batch segment never *starts* until the failover monitor is quiescent
  (its window holds no unevaluated samples — see
  :meth:`FailoverController.quiescent`), so every check falling inside a
  batch segment sees only healthy same-bin samples and provably returns
  a healthy verdict (a report that is not healthy raises
  :class:`~repro.errors.SimulationError`);
* a batch segment never *ends* inside a hazard: admission is priced from
  the exact serial cost of the uncontended healthy batch path, so the
  segment is cut one op-cost short of the hazard start (the event engine
  walks only the final sliver), with a loud
  :class:`~repro.errors.SimulationError` if the model ever overshoots.

After a completed failover switch the planner *resumes batching* with an
owner-aware classification: lazy migration makes an access owner-dependent
exactly when it faults on — or stores to — a *stale* far copy (one still
owned by the switched-away backend), so batch chunks are admitted up to
(not including) the first such access and the exact event loop walks it.
Stale copies only disappear (new far copies always land on the active
backend), so long post-switch tails converge back to pure batch admission
instead of limping on the event engine to the end of the trace.

Counters come out bit-identical to the event engine; ``sim_time`` agrees
to float round-off (the serial cost sum is merely re-associated).  The
equivalence sweep in ``tests/test_swap_plan.py`` locks this in across
backends x fault-window kinds x {with, without} failover, health-monitor
reports included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.mem.page import PageOp
from repro.swap.pathmodel import FAULT_COST
from repro.swap.replay import (
    _WINDOW,
    _admit,
    _batch_supported,
    _book_counters,
    _in_sorted,
    _TenantPlan,
    classify_span,
)

__all__ = ["PlanSegment", "ExecutionPlan", "hybrid_run"]

_STORE_OP = int(PageOp.STORE)
_EMPTY = np.empty(0, dtype=np.int64)

#: First chunk size (anonymous accesses) of a batch segment; doubles per
#: admitted chunk up to ``_CHUNK_MAX`` so long healthy stretches cost
#: O(log) classification passes while cuts near hazards stay cheap.
_CHUNK_MIN = 16 * _WINDOW  # simlint: ignore[UNIT001] -- access count, not bytes
_CHUNK_MAX = 256 * _WINDOW  # simlint: ignore[UNIT001] -- access count, not bytes


@dataclass(frozen=True)
class PlanSegment:
    """One contiguous stretch of the trace run on a single engine."""

    engine: str      #: "batch" | "event"
    start: int       #: first trace position (full coordinates, inclusive)
    end: int         #: one past the last trace position
    t_start: float   #: simulated time the segment began
    t_end: float     #: simulated time the segment ended

    @property
    def accesses(self) -> int:
        """Trace accesses the segment covered."""
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Simulated seconds the segment spanned."""
        return self.t_end - self.t_start


class ExecutionPlan:
    """The as-executed segment schedule of one hybrid run.

    Built *during* execution, not ahead of it: hazard spans map to trace
    positions only once the clock reaches them, so the planner interleaves
    planning and admission and records what it actually did.
    """

    def __init__(self) -> None:
        self.segments: list[PlanSegment] = []

    def add(self, engine: str, start: int, end: int,
            t_start: float, t_end: float) -> None:
        """Append one executed segment (empty segments are dropped)."""
        if end <= start:
            return
        last = self.segments[-1] if self.segments else None
        if last is not None and last.engine == engine and last.end == start:
            self.segments[-1] = PlanSegment(engine, last.start, end,
                                            last.t_start, t_end)
        else:
            self.segments.append(PlanSegment(engine, start, end, t_start, t_end))

    @property
    def n_segments(self) -> int:
        """Executed segments after merging same-engine neighbours."""
        return len(self.segments)

    @property
    def event_time_fraction(self) -> float:
        """Fraction of simulated time spent on the event engine."""
        total = sum(s.duration for s in self.segments)
        if total <= 0.0:
            return 0.0
        event = sum(s.duration for s in self.segments if s.engine == "event")
        return event / total

    @property
    def event_access_fraction(self) -> float:
        """Fraction of accesses walked by the event engine."""
        total = sum(s.accesses for s in self.segments)
        if total == 0:
            return 0.0
        event = sum(s.accesses for s in self.segments if s.engine == "event")
        return event / total

    def describe(self) -> str:
        """One-line summary for CLI/experiment output."""
        return (
            f"{self.n_segments} segment(s), "
            f"event time fraction {self.event_time_fraction:.3f}, "
            f"event access fraction {self.event_access_fraction:.3f}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExecutionPlan {self.describe()}>"


def _active_hazards(executor) -> list[tuple[float, float]]:
    """Merged live fault spans of the *active* backend's plan.

    Only the active device serves the batched I/O flows, so only its
    windows can perturb an admitted chunk; standby plans matter solely
    through degraded-verdict pricing, which by the quiescence invariant
    happens inside event segments.  Re-reading the active plan each
    iteration keeps this correct across failover switches: after one,
    the *new* active backend's windows become the hazards (stale copies
    on the old backend are handled by the stale cut instead — faults on
    them never enter a batch segment, so the old plan cannot matter).
    """
    frontend = executor.frontend
    device = frontend.module(frontend.active_backend).device
    plan = getattr(device, "fault_plan", None)
    if plan is None or not plan:
        return []
    return plan.live_spans(executor.sim.now)


@contextmanager
def _parked(lru):
    """The live LRU with ``on_evict`` parked: batched replays return their
    victims in the log instead."""
    saved = lru.on_evict
    lru.on_evict = None
    try:
        yield lru
    finally:
        lru.on_evict = saved


def _lru_snapshot(lru):
    active, inactive = lru.state_arrays()
    return (active, inactive, lru.hits, lru.misses,
            lru.promotions, lru.demotions, lru.evictions)


def _lru_restore(lru, snap) -> None:
    active, inactive, hits, misses, promotions, demotions, evictions = snap
    lru.restore_state(active, inactive)
    lru.hits = hits
    lru.misses = misses
    lru.promotions = promotions
    lru.demotions = demotions
    lru.evictions = evictions


def _kept_prefix(lru, snap, epoch_states, span, pages, ops, far0, cut):
    """Cut a speculative ``span`` back to its first ``cut`` accesses.

    ``span`` was classified from ``snap`` (a :func:`_lru_snapshot`) over
    ``pages``/``ops``, the kernel filling ``epoch_states`` with the LRU
    state at each of its epoch boundaries.  The LRU is set to the last
    boundary at or before the cut and replays the rest — at most one
    epoch — so it ends exactly where a replay of the prefix from ``snap``
    would, counters included; the classification comes from
    :meth:`SpanClassification.prefix`.
    """
    start = 0
    for state in epoch_states:
        if state[0] > cut:
            break
        start, snap = state[0], state[1:]
    _lru_restore(lru, snap)
    if cut > start:
        with _parked(lru):
            lru.replay(pages[start:cut])
    return span.prefix(cut, pages, ops, far0)


def _seam_arrays(executor):
    """Sorted-unique (touched, far) arrays from the live executor state."""
    touched = executor._touched
    touched_arr = np.fromiter(touched, dtype=np.int64, count=len(touched))
    touched_arr.sort()
    owner = executor.frontend._owner
    far_arr = np.fromiter(owner.keys(), dtype=np.int64, count=len(owner))
    far_arr.sort()
    return touched_arr, far_arr


def _batch_segment(executor, anon_pages, anon_ops, anon_idx, n_full,
                   a_pos, full_pos, limit, rate):
    """Admit batch chunks from ``a_pos`` until the trace ends or ``limit``
    nears; returns the new ``(full_pos, blocked)``.  ``rate`` is the
    run's recent-weighted ``[serial_cost, anon_accesses]`` density estimate,
    carried across segments so later segments size their first chunk from
    the observed cost rate instead of re-walking the discovery ladder.

    ``blocked`` is None except after a completed failover switch, when the
    owner-aware *stale cut* may end the segment: the full-trace index of
    the first access that faults on — or stores to — a far copy still
    owned by a non-active backend (its timing, invalidation, and re-homing
    are owner-dependent, which the classification does not model).  The
    caller walks that access on the exact event loop.

    ``limit`` is the next hazard start (or None): chunks are classified
    speculatively and priced per access from the exact healthy serial
    cost, and only the accesses that finish at least one op-cost before
    ``limit`` are admitted.  A partial fit derives its kept prefix from
    the speculative pass (:func:`_kept_prefix`; the classification is
    prefix-stable): the columns and counts are cut by position, the
    span-end far set comes from an eviction scan over the prefix, and
    the LRU is set to the kernel's last epoch boundary at or before the
    cut and replays at most one epoch.  Chunk sizes double along healthy
    stretches and are clamped to the remaining hazard budget via the
    observed cost rate, so speculative work is rarely thrown away.
    """
    sim = executor.sim
    res = executor.result
    frontend = executor.frontend
    lru = executor.lru
    granularity = executor.config.granularity
    failover = executor.failover
    interval = executor.health_check_interval
    active_name = frontend.active_backend
    device = frontend.module(active_name).device
    base = getattr(device, "inner", device)
    # exact healthy per-op serial costs of the stock batch path: kernel
    # fault cost + command phase (setup per one-granule request) + the
    # slowest stage pipe draining one granule
    per_fault = (
        FAULT_COST
        + base.batch_command_cost(1, False, granularity)
        + granularity / min(p.bandwidth for p in base.stage_pipes(False))
    )
    per_wb = (
        base.batch_command_cost(1, True, granularity)
        + granularity / min(p.bandwidth for p in base.stage_pipes(True))
    )
    n_anon = int(anon_pages.shape[0])
    chunk = _CHUNK_MIN
    if limit is not None and rate[1] and rate[0] > 0.0:
        # returning segment: open with a budget-sized chunk straight away,
        # biased low — an undersized chunk costs one more loop pass, an
        # oversized one its discarded tail plus up to one LRU epoch
        predicted = int(0.85 * (limit - sim.now) * rate[1] / rate[0])
        chunk = min(_CHUNK_MAX, max(_WINDOW, predicted))
    # far copies owned by a non-active backend are *stale*: their fault
    # timing (and the lazy-migration invalidation that follows) depends on
    # the owner, and a store re-homes them — neither of which the
    # vectorized classification models.  Before the first completed switch
    # every copy is active-owned, so the pre-switch planner never scans.
    if failover is not None and failover.switched_at is not None:
        stale = sorted(p for p, o in frontend._owner.items()
                       if o != active_name)
        stale_arr = np.asarray(stale, dtype=np.int64)
    else:
        stale_arr = _EMPTY
    blocked = None
    # seam arrays are maintained incrementally across chunks: far_end is
    # the complete post-chunk far set by contract, and the owner map is
    # reconciled to it below, so rebuilding from executor state per chunk
    # would only re-sort what we already hold
    touched_arr, far_arr = _seam_arrays(executor)
    while a_pos < n_anon:
        budget = None
        if limit is not None:
            budget = limit - sim.now
            if budget <= 0.0:
                break
            size = chunk
            if rate[1] and rate[0] > 0.0:
                predicted = int(0.85 * budget * rate[1] / rate[0])
                size = min(size, max(_WINDOW, predicted))
        elif stale_arr.size:
            # owner-dependent copies ahead: stay on the doubling ladder so
            # a stale cut never throws away a whole-remainder classification
            size = chunk
        else:
            # no hazard ahead: one span covers the rest of the trace
            size = n_anon - a_pos
        a1 = min(n_anon, a_pos + size)
        speculative = limit is not None or stale_arr.size > 0
        snap = _lru_snapshot(lru) if speculative else None
        epoch_states = [] if speculative else None
        chunk_pages = anon_pages[a_pos:a1]
        chunk_ops = anon_ops[a_pos:a1]
        with _parked(lru):
            span = classify_span(chunk_pages, chunk_ops, lru, touched_arr,
                                 far_arr, epoch_states)
        span_len = a1 - a_pos
        if limit is None:
            cut = span_len
        else:
            # per-access serial cost of the chunk; the admission model is
            # exact for the healthy uncontended path (the aggregate flows
            # below replay the same serial sum), so the cut can sit one
            # op-cost short of the hazard instead of whole windows — the
            # event engine walks only the sliver batching cannot price
            costs = np.bincount(span.fault_pos,
                                minlength=span_len) * per_fault
            wb_pos = span.evict_pos[~span.clean]
            if wb_pos.size:
                costs = costs + np.bincount(wb_pos,
                                            minlength=span_len) * per_wb
            cum = np.cumsum(costs)
            # refresh the observed cost density from the *tail* of the
            # speculative span: the zero-cost cold-fill stretch at the run
            # start would dilute any whole-run average (even a decayed
            # one — half-weighted cold history is enough to overshoot
            # every prediction into a cut), and the latest warm tail is
            # the best stationary estimate of what comes next
            tail = min(span_len, _CHUNK_MIN)
            tail_cost = float(cum[-1])
            if tail < span_len:
                tail_cost -= float(cum[span_len - tail - 1])
            if tail >= 4 * _WINDOW:
                rate[0] = tail_cost
                rate[1] = tail
            else:
                rate[0] += tail_cost
                rate[1] += tail
            guard = per_fault + per_wb
            cut = int(np.searchsorted(cum + guard, limit - sim.now,
                                      side="right"))
        if stale_arr.size:
            # owner-aware stale cut: admit strictly before the first fault
            # on — or store to — a stale copy.  Stores are cut even as LRU
            # hits: the invalidation itself is owner-exact, but a re-store
            # later in the same chunk would re-home the page to the active
            # backend, which the chunk-end set reconciliation (a far-set
            # delta) cannot express.  Admitted prefixes therefore leave
            # every stale copy untouched (clean drops keep the copy and
            # the owner), so the stale set is stable across chunks.
            in_stale = _in_sorted(anon_pages[a_pos:a1], stale_arr)
            risky = np.flatnonzero(in_stale
                                   & (anon_ops[a_pos:a1] == _STORE_OP))
            s_cut = int(risky[0]) if risky.size else span_len
            if span.fault_pos.size:
                f_stale = span.fault_pos[in_stale[span.fault_pos]]
                if f_stale.size:
                    s_cut = min(s_cut, int(f_stale[0]))
            if s_cut <= cut and s_cut < span_len:
                cut = s_cut
                blocked = int(anon_idx[a_pos + s_cut])
        if cut <= 0:
            if snap is not None:
                _lru_restore(lru, snap)
            break
        partial = cut < span_len
        if partial:
            span = _kept_prefix(lru, snap, epoch_states, span, chunk_pages,
                                chunk_ops, far_arr, cut)
            a1 = a_pos + cut
        admission = _TenantPlan(executor, span, a1 - a_pos)
        if admission.steps:
            _admit(sim, [admission])
            if limit is not None and sim.now > limit:
                raise SimulationError(
                    f"hybrid replay: batch segment overshot the hazard at "
                    f"t={limit:.6f} (now t={sim.now:.6f})"
                )
            if failover is not None:
                # replay the event loop's monitor feed: one observation per
                # fault at its global ordinal, a check at every interval
                # crossing, stamped when the step holding that fault completed
                f_idx = res.faults
                for mean, count, t_done in admission.latencies:
                    for _ in range(count):
                        f_idx += 1
                        failover.observe_fault(mean, granularity,
                                               backend=active_name)
                        if f_idx % interval == 0:
                            report = failover.monitor(active_name).check(t_done)
                            if report is not None and not report.healthy:
                                raise SimulationError(
                                    "hybrid replay: health check inside a "
                                    "batch segment reported degradation; "
                                    "batch segments must start with a "
                                    "quiescent failover monitor"
                                )
        # book the chunk's timing-independent facts
        full_next = int(anon_idx[a1]) if a1 < n_anon else n_full
        n_chunk = full_next - full_pos
        _book_counters(res, n_chunk, n_chunk - (a1 - a_pos), span)
        executor._touched.update(span.new_touched.tolist())
        # reconcile far-copy ownership: the span's far_end is the complete
        # set (seam copies included), so delta against the seam set
        drop = np.setdiff1d(far_arr, span.far_end, assume_unique=True)
        add = np.setdiff1d(span.far_end, far_arr, assume_unique=True)
        if drop.size:
            frontend.invalidate_pages(drop.tolist())
        if add.size:
            frontend.adopt_far_pages(add.tolist())
        if span.new_touched.size:
            # sorted disjoint merge: np.union1d would re-sort the whole
            # touched set on every chunk of the coupon-collector tail
            new = np.sort(span.new_touched)
            touched_arr = np.insert(touched_arr,
                                    np.searchsorted(touched_arr, new), new)
        far_arr = span.far_end
        executor.progress.record(sim.now, float(res.accesses))
        if sim.sanitize:
            executor.assert_page_conservation()
        a_pos = a1
        full_pos = full_next
        if partial:
            break
        chunk = min(chunk * 2, _CHUNK_MAX)
    return full_pos, blocked


#: Accesses materialized per python-list slice handed to the event loop.
_EVENT_SLICE = 4 * _WINDOW  # simlint: ignore[UNIT001] -- access count, not bytes


def _event_span(executor, trace, full_pos, stop_time, end=None):
    """Run the exact per-access loop from ``full_pos``; returns the next
    unprocessed index (see :meth:`SwapExecutor._span_proc`).

    The walk hands back control at the first access boundary past
    ``stop_time`` (once the failover monitor is quiescent), or at
    position ``end``: the bound a caller sets when it knows exactly which
    accesses need the exact loop (a stale cut's owner-dependent ones).
    With neither, it runs to the end of the trace.

    The trace is handed over in bounded python-list slices: event spans
    cover a sliver of the run, so converting the whole trace up front
    (as the pure event engine does) would cost more than the walk
    itself.  ``_span_proc`` is position-relative — progress strides and
    health intervals key off global counters — so slicing is exact.
    """
    sim = executor.sim
    failover = executor.failover
    switched0 = failover.switched_at if failover is not None else None
    n = int(trace.pages.shape[0])
    stop = n if end is None else min(end, n)
    while full_pos < stop:
        if stop_time is None and end is None:
            hi = n  # an unbounded walk takes the rest in one slice
        else:
            hi = min(stop, full_pos + _EVENT_SLICE)
        pages = trace.pages[full_pos:hi].tolist()
        kinds = trace.kinds[full_pos:hi].tolist()
        ops = trace.ops[full_pos:hi].tolist()
        done = sim.process(
            executor._span_proc(pages, kinds, ops, stop_time, switched0),
            name="exec:hybrid:event",
        )
        sim.run(until=done)
        full_pos += int(done.value)
        if full_pos < hi:
            break  # the stop fired inside the slice
        # the loop's stop check runs *after* each access, so a stop that
        # fires exactly on the slice boundary must not leak one access
        # into the next slice
        if (
            stop_time is not None
            and (sim.now >= stop_time
                 or (failover is not None
                     and failover.switched_at != switched0))
            and (failover is None or failover.quiescent())
        ):
            break
    return full_pos


#: First owner-dependent event walk length (accesses) after a stale cut;
#: doubles per consecutive cut up to ``_EVENT_SLICE`` and resets once a
#: batch segment makes real progress again.
_EVENT_STEP = _WINDOW // 16  # simlint: ignore[UNIT001] -- access count, not bytes


def hybrid_run(executor, trace):
    """Execute ``trace`` on the segmented hybrid engine.

    The planner's entry point, called by :meth:`SwapExecutor.run` when
    :func:`~repro.swap.replay._engine` picks ``hybrid``: a cold run with
    live fault windows or an attached failover controller, on a device
    batched admission models.  Bit-identical counters and end state to
    the per-access event engine; ``sim_time`` equal to float round-off.
    The as-executed schedule lands on ``executor.execution_plan``.

    One loop alternates batch segments (:func:`_batch_segment`) with
    exact event spans: a hazard's approach and window, any stretch whose
    failover monitor holds unevaluated samples, and — after a completed
    switch — each access a stale cut blocks (see the module docstring),
    walked in exponentially longer stretches while cuts keep coming.
    """
    sim = executor.sim
    res = executor.result
    failover = executor.failover
    frontend = executor.frontend
    start = sim.now
    plan = ExecutionPlan()
    executor.execution_plan = plan
    n_full = int(trace.pages.shape[0])
    anon_mask = trace.anon_mask
    anon_pages = np.ascontiguousarray(trace.pages[anon_mask])
    anon_ops = np.ascontiguousarray(trace.ops[anon_mask])
    anon_idx = np.flatnonzero(anon_mask)
    full_pos = 0
    rate = [0.0, 0.0]  # recent-weighted [serial cost, anon accesses] density
    switched = False
    event_len = _EVENT_STEP
    while full_pos < n_full:
        if not switched and failover is not None and failover.switched_at is not None:
            switched = True
            rate = [0.0, 0.0]  # the switched-to device prices differently
        if not _batch_supported(frontend.module(frontend.active_backend).device):
            # a switched-to device batched admission does not model
            t0, p0 = sim.now, full_pos
            full_pos = _event_span(executor, trace, full_pos, None)
            plan.add("event", p0, full_pos, t0, sim.now)
            break
        if failover is not None and not failover.quiescent():
            # drain unevaluated monitor samples before any batch segment
            t0, p0 = sim.now, full_pos
            full_pos = _event_span(executor, trace, full_pos, sim.now)
            plan.add("event", p0, full_pos, t0, sim.now)
            continue
        hazards = _active_hazards(executor)
        if hazards and sim.now >= hazards[0][0]:
            # inside a live window of the active backend: run exactly
            t0, p0 = sim.now, full_pos
            full_pos = _event_span(executor, trace, full_pos, hazards[0][1])
            plan.add("event", p0, full_pos, t0, sim.now)
            continue
        limit = hazards[0][0] if hazards else None
        a_pos = int(np.searchsorted(anon_idx, full_pos))
        t0, p0 = sim.now, full_pos
        full_pos, blocked = _batch_segment(
            executor, anon_pages, anon_ops, anon_idx, n_full,
            a_pos, full_pos, limit, rate,
        )
        plan.add("batch", p0, full_pos, t0, sim.now)
        if full_pos - p0 >= _WINDOW:
            event_len = _EVENT_STEP  # real batch progress: reset the backoff
        if full_pos >= n_full:
            break
        if blocked is not None:
            target = min(n_full, max(blocked + 1, full_pos + event_len))
            t0, p0 = sim.now, full_pos
            full_pos = _event_span(executor, trace, full_pos, None, end=target)
            plan.add("event", p0, full_pos, t0, sim.now)
            event_len = min(event_len * 2, _EVENT_SLICE)
        else:
            # the hazard bound the segment: approach + window run exactly
            hazards = _active_hazards(executor)
            stop_time = hazards[0][1] if hazards else None
            t0, p0 = sim.now, full_pos
            full_pos = _event_span(executor, trace, full_pos, stop_time)
            plan.add("event", p0, full_pos, t0, sim.now)
    if sim.sanitize:
        executor.assert_page_conservation()
    executor.progress.record(sim.now, float(res.accesses))
    res.sim_time = sim.now - start
    return res
