"""Equivalence suite for the segmented hybrid replay planner.

The hybrid engine's contract mirrors the batch engine's: for every run it
accepts — cold single-tenant stacks with live fault windows or an attached
failover controller — all execution counters (including the fault-path
trio ``transient_retries``/``stall_time``/``failovers``) must equal the
per-access event loop bit for bit, the end state (LRU lists and order,
touched set, far ownership, active backend, controller event log) must be
identical, and ``sim_time`` must agree to float round-off.  With a
failover controller, every health monitor must file the same reports
(sample counts and verdicts exactly, latency percentiles and delivered
bandwidth to round-off).  ``tests.oracles.assert_engines_agree`` checks
all of it.  The sweep here covers backends x fault-window
shapes x {with, without} a failover controller, including mid-run backend
switches; the hypothesis property test pins the seam-state handoff
invariant the planner is built on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.switching import ImplicitSwitcher
from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.errors import SimulationError
from repro.faults import (
    BandwidthFault,
    FailoverController,
    FaultPlan,
    FaultyDevice,
    HealthMonitor,
    LatencyFault,
    OfflineFault,
    TransientFault,
)
from repro.faults.plan import merge_spans
from repro.mem import lru as lru_mod
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page import PageKind, PageOp
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapExecutor, run_event
from repro.swap.plan import ExecutionPlan, _kept_prefix, _lru_restore, _lru_snapshot
from repro.swap.replay import _batch_supported, _engine, classify_span
from repro.trace import fuse
from repro.trace.schema import make_trace
from tests.oracles import assert_engines_agree

pytestmark = pytest.mark.faults


def _build_trace(seed, n, distinct, dist="zipf", store_ratio=0.3,
                 file_ratio=0.0):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        pages = rng.integers(0, distinct, size=n)
    elif dist == "zipf":
        pages = (rng.zipf(1.3, size=n) - 1) % distinct
    else:  # sequential
        pages = (np.arange(n) + rng.integers(0, distinct)) % distinct
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE),
                   int(PageOp.LOAD))
    kinds = np.where(rng.random(n) < file_ratio, int(PageKind.FILE),
                     int(PageKind.ANON))
    return make_trace(pages, ops=ops, kinds=kinds)


def _stack(windows, trace, device_cls=NVMeSSD, kind=BackendKind.SSD,
           capacity=80, failover=False, latency_threshold=3.0,
           bandwidth_floor=0.5, interval=16):
    """Primary device wrapped in a fault plan; optional standby+controller."""
    sim = Simulator()
    faulty = FaultyDevice(device_cls(sim), FaultPlan(windows, seed=5))
    executor = SwapExecutor(sim, faulty, kind, local_pages=capacity)
    controller = None
    if failover:
        standby_kind = (BackendKind.RDMA if kind is BackendKind.SSD
                        else BackendKind.SSD)
        standby_cls = RDMANic if kind is BackendKind.SSD else NVMeSSD
        standby = standby_cls(sim)
        executor.add_standby(standby_kind, standby)
        switcher = ImplicitSwitcher({
            kind.value: (faulty, SwapConfig()),
            standby_kind.value: (standby, SwapConfig()),
        })
        controller = FailoverController(
            executor.frontend, switcher, fuse(trace), compute_time=0.05,
            min_samples=8, latency_threshold=latency_threshold,
            bandwidth_floor=bandwidth_floor,
        )
        executor.attach_failover(controller, health_check_interval=interval)
    return sim, executor, controller


def _clock_span(trace, **kw):
    """(t0, T): sim time when the run starts, clean event-run duration.

    Fault windows are absolute simulated times and module start-up costs
    advance the clock before the first access, so test plans place their
    windows at ``t0 + fraction * T``.
    """
    sim, executor, _ = _stack([], trace, **{k: v for k, v in kw.items()
                                            if k != "failover"})
    t0 = sim.now
    return t0, run_event([executor], [trace])[0].sim_time


def _assert_equivalent(windows, trace, **kw):
    """The hybrid planner agrees with the per-access loop on ``_stack``."""
    hex_, eex = assert_engines_agree(lambda: [_stack(windows, trace, **kw)[1]],
                                     [trace])
    assert hex_[0].execution_plan is not None, "hybrid engine not taken"
    return hex_[0].result, eex[0].result, hex_[0], eex[0]


# ------------------------------------------------- injected equivalence sweep
@pytest.mark.parametrize("device_cls,kind", [
    (NVMeSSD, BackendKind.SSD),
    (RDMANic, BackendKind.RDMA),
])
@pytest.mark.parametrize("shape", ["latency", "bandwidth", "transient",
                                   "offline", "multi"])
def test_hybrid_matches_event_fault_shapes(device_cls, kind, shape):
    trace = _build_trace(3, 12000, 200)
    t0, T = _clock_span(trace, device_cls=device_cls, kind=kind)
    windows = {
        "latency": [LatencyFault(start=t0 + 0.3 * T, duration=0.15 * T,
                                 factor=8.0)],
        "bandwidth": [BandwidthFault(start=t0 + 0.5 * T, duration=0.2 * T,
                                     fraction=0.25)],
        "transient": [TransientFault(start=t0 + 0.4 * T, duration=0.1 * T,
                                     error_rate=0.3)],
        "offline": [OfflineFault(start=t0 + 0.6 * T, duration=0.05 * T)],
        "multi": [
            LatencyFault(start=t0 + 0.2 * T, duration=0.1 * T, factor=4.0),
            TransientFault(start=t0 + 0.45 * T, duration=0.08 * T,
                           error_rate=0.2),
            BandwidthFault(start=t0 + 0.7 * T, duration=0.1 * T,
                           fraction=0.5),
        ],
    }[shape]
    hyb, ev, hex_, _ = _assert_equivalent(windows, trace,
                                          device_cls=device_cls, kind=kind)
    plan = hex_.execution_plan
    # the run actually alternated engines: fault windows sit mid-trace
    assert any(s.engine == "batch" for s in plan.segments)
    assert any(s.engine == "event" for s in plan.segments)
    assert 0.0 < plan.event_access_fraction < 1.0


@pytest.mark.parametrize("shape", ["latency", "transient"])
def test_hybrid_matches_event_with_controller_no_switch(shape):
    """Controller attached, degradation below thresholds: no switch, and
    the synthetic monitor feed keeps every health check bit-identical."""
    trace = _build_trace(4, 12000, 200)
    t0, T = _clock_span(trace)
    windows = {
        "latency": [LatencyFault(start=t0 + 0.3 * T, duration=0.15 * T,
                                 factor=4.0)],
        "transient": [TransientFault(start=t0 + 0.4 * T, duration=0.05 * T,
                                     error_rate=0.25)],
    }[shape]
    hyb, ev, hex_, _ = _assert_equivalent(
        windows, trace, failover=True,
        latency_threshold=1000.0, bandwidth_floor=0.001,
    )
    assert ev.failovers == 0
    assert hex_.frontend.active_backend == "ssd"
    # batch resumed after the window closed
    assert hex_.execution_plan.segments[-1].engine == "batch"


def test_hybrid_matches_event_clean_managed():
    """Controller attached but no fault windows: the whole run batches,
    with the synthetic monitor feed replicating every health check."""
    trace = _build_trace(5, 12000, 200)
    hyb, ev, hex_, _ = _assert_equivalent([], trace, failover=True)
    assert ev.failovers == 0
    plan = hex_.execution_plan
    assert plan.event_access_fraction == 0.0
    assert plan.n_segments == 1


def test_unhealthy_check_inside_batch_segment_raises(monkeypatch):
    """Checks inside a batch segment must come back healthy (the segment
    starts with a quiescent monitor); one that does not fails loudly, even
    when the controller would stay on the degraded backend."""
    real_check = HealthMonitor.check

    def degraded(self, now):
        report = real_check(self, now)
        if report is None:
            return None
        return dataclasses.replace(report, healthy=False, reason="forced")

    monkeypatch.setattr(HealthMonitor, "check", degraded)
    monkeypatch.setattr(FailoverController, "_best_target",
                        lambda self, name, report: name)
    trace = _build_trace(5, 12000, 200)
    _, executor, _ = _stack([], trace, failover=True)
    with pytest.raises(SimulationError, match="quiescent"):
        executor.run(trace)


def test_hybrid_matches_event_mid_run_switch():
    """Never-closing degradation fires a mid-run failover: the hybrid
    engine must reproduce the switch instant, event log, and post-switch
    lazy-migration behaviour exactly — and, owner-aware, resume batch
    admission on the tail instead of limping on the event engine."""
    trace = _build_trace(6, 12000, 200)
    t0, T = _clock_span(trace)
    windows = [
        LatencyFault(start=t0 + 0.4 * T, duration=1e6, factor=50.0),
        BandwidthFault(start=t0 + 0.4 * T, duration=1e6, fraction=0.02),
    ]
    hyb, ev, hex_, _ = _assert_equivalent(windows, trace, failover=True)
    assert ev.failovers == 1
    assert hex_.frontend.active_backend == "rdma"
    switched = hex_.failover.switched_at
    assert switched is not None
    post = [s for s in hex_.execution_plan.segments if s.t_start >= switched]
    assert any(s.engine == "batch" for s in post), (
        "post-switch tail never resumed batch admission"
    )


def test_hybrid_matches_event_offline_store_escalation():
    """Offline primary during stores escalates to the standby."""
    rng = np.random.default_rng(7)
    pages = (rng.zipf(1.3, size=10000) - 1) % 180
    trace = make_trace(pages, ops=np.full(10000, int(PageOp.STORE)))
    t0, T = _clock_span(trace)
    windows = [OfflineFault(start=t0 + 0.5 * T, duration=0.3 * T)]
    _assert_equivalent(windows, trace, failover=True)


def test_hybrid_matches_event_file_backed_mix():
    trace = _build_trace(8, 12000, 200, store_ratio=0.4, file_ratio=0.3)
    t0, T = _clock_span(trace)
    windows = [LatencyFault(start=t0 + 0.35 * T, duration=0.1 * T,
                            factor=6.0)]
    hyb, ev, _, _ = _assert_equivalent(windows, trace)
    assert ev.file_skips > 0


@pytest.mark.sanitize
def test_hybrid_passes_page_conservation():
    trace = _build_trace(9, 8000, 150)
    t0, T = _clock_span(trace)
    windows = [LatencyFault(start=t0 + 0.3 * T, duration=0.2 * T, factor=5.0)]
    hyb, _, hex_, _ = _assert_equivalent(windows, trace)
    hex_.assert_page_conservation()


# ---------------------------------------------------- batch eligibility edges
def test_dead_windows_keep_pure_batch():
    """A plan whose every window has already elapsed can never perturb the
    run, so it keeps *pure* batch eligibility (no hybrid planner)."""
    trace = _build_trace(10, 8000, 150)
    # module start-up costs put sim.now ~0.9 at run start; [0, 0.01) is dead
    windows = [LatencyFault(start=0.0, duration=0.01, factor=50.0)]
    sim, executor, _ = _stack(windows, trace)
    assert sim.now > 0.01  # the window really is in the past
    assert not executor._fault_injected()
    assert _engine([executor]) == "batch"
    bex, _ = assert_engines_agree(lambda: [_stack(windows, trace)[1]], [trace])
    assert bex[0].execution_plan is None  # pure batch path taken


def test_far_future_windows_run_hybrid_all_batch():
    """Windows beyond the trace's span can't be ruled out a priori (the
    run's duration isn't known until it runs), but the planner never
    reaches them: one all-batch segment, event fraction zero."""
    trace = _build_trace(11, 8000, 150)
    windows = [LatencyFault(start=1e6, duration=10.0, factor=50.0)]
    hyb, ev, hex_, _ = _assert_equivalent(windows, trace)
    plan = hex_.execution_plan
    assert plan.event_access_fraction == 0.0


def test_live_windows_force_hybrid_eligibility():
    trace = _build_trace(12, 4000, 100)
    sim, executor, _ = _stack(
        [LatencyFault(start=1e3, duration=1.0, factor=2.0)], trace)
    assert executor._fault_injected()
    assert _engine([executor]) == "hybrid"
    assert _batch_supported(executor.frontend.module("ssd").device)


# --------------------------------------------------- seam-state handoff (hyp)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 600),
    distinct=st.integers(2, 80),
    capacity=st.integers(2, 60),
    split_frac=st.floats(0.0, 1.0),
    store_ratio=st.floats(0.0, 1.0),
    kernel_epoch=st.sampled_from([lru_mod._KERNEL_EPOCH, 1]),
)
def test_seam_handoff_property(seed, n, distinct, capacity, split_frac,
                               store_ratio, kernel_epoch):
    """Classification resumed from seam state equals whole-trace
    classification: split a random trace at a random boundary, classify
    the halves with the seam state handed across, and the LRU lists,
    far-resident set, and all counters must match the unsplit run.
    ``kernel_epoch`` 1 sends every replay from capacity 4 up through the
    LRU's two-scan kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lru_mod, "_KERNEL_EPOCH", kernel_epoch)
        _check_seam_handoff(seed, n, distinct, capacity, split_frac, store_ratio)


def _check_seam_handoff(seed, n, distinct, capacity, split_frac, store_ratio):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, distinct, size=n)
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE),
                   int(PageOp.LOAD)).astype(np.int64)
    k = int(round(split_frac * n))
    empty = np.empty(0, dtype=np.int64)

    whole_lru = ActiveInactiveLRU(capacity=capacity)
    whole = classify_span(pages, ops, whole_lru, touched=empty, far0=empty)

    split_lru = ActiveInactiveLRU(capacity=capacity)
    first = classify_span(pages[:k], ops[:k], split_lru,
                          touched=empty, far0=empty)
    touched1 = np.unique(first.new_touched)
    second = classify_span(pages[k:], ops[k:], split_lru,
                           touched=touched1, far0=first.far_end)

    # all seven counters recompose exactly
    assert first.hits + second.hits == whole.hits
    assert (first.cold_allocations + second.cold_allocations
            == whole.cold_allocations)
    assert first.faults + second.faults == whole.faults
    assert first.evictions + second.evictions == whole.evictions
    assert first.clean_drops + second.clean_drops == whole.clean_drops
    assert first.swap_outs + second.swap_outs == whole.swap_outs
    # fault positions recompose (second half shifts by the split point)
    recomposed = np.concatenate([first.fault_pos, second.fault_pos + k])
    assert recomposed.tolist() == whole.fault_pos.tolist()
    # far-resident set at the end: the resumed span carries seam copies
    assert second.far_end.tolist() == whole.far_end.tolist()
    # touched set recomposes
    assert (np.union1d(touched1, second.new_touched).tolist()
            == np.unique(whole.new_touched).tolist())
    # the live LRU ends in the identical state, lists and counters
    w_act, w_inact = whole_lru.state_arrays()
    s_act, s_inact = split_lru.state_arrays()
    assert s_act.tolist() == w_act.tolist()
    assert s_inact.tolist() == w_inact.tolist()
    for attr in ("hits", "misses", "promotions", "demotions", "evictions"):
        assert getattr(split_lru, attr) == getattr(whole_lru, attr), attr


# ------------------------------------------------ partial fit: kept prefix
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 500),
    distinct=st.integers(2, 80),
    capacity=st.integers(4, 60),
    seam_frac=st.floats(0.0, 0.9),
    cut_frac=st.floats(0.0, 1.0),
    store_ratio=st.floats(0.0, 1.0),
    kernel_epoch=st.sampled_from([lru_mod._KERNEL_EPOCH, 1]),
)
def test_kept_prefix_equals_classified_prefix(seed, n, distinct, capacity, seam_frac,
                                              cut_frac, store_ratio, kernel_epoch):
    """A partial fit derives its kept prefix from the speculative span and
    the kernel's epoch-boundary states; it must equal classify_span of
    that prefix from the snapshot on every field, and leave the LRU in
    the same lists, order and counters.  ``kernel_epoch`` 1 sends
    capacities from 4 up through the kernel, so spans cross many epoch
    boundaries."""
    rng = derive(seed, "tests/swap_plan/kept_prefix")
    pages = rng.integers(0, distinct, size=n)
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE),
                   int(PageOp.LOAD)).astype(np.int64)
    k = int(seam_frac * n)
    empty = np.empty(0, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lru_mod, "_KERNEL_EPOCH", kernel_epoch)
        lru = ActiveInactiveLRU(capacity=capacity)
        seam = classify_span(pages[:k], ops[:k], lru, touched=empty, far0=empty)
        touched, far0 = np.unique(seam.new_touched), seam.far_end
        span_pages, span_ops = pages[k:], ops[k:]
        snap = _lru_snapshot(lru)
        states = []
        span = classify_span(span_pages, span_ops, lru, touched, far0, states)
        cut = int(cut_frac * (n - k))
        got = _kept_prefix(lru, snap, states, span, span_pages, span_ops, far0, cut)
        ref_lru = ActiveInactiveLRU(capacity=capacity)
        _lru_restore(ref_lru, snap)
        want = classify_span(span_pages[:cut], span_ops[:cut], ref_lru, touched, far0)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.tolist() == w.tolist(), field.name
        else:
            assert g == w, field.name
    assert [a.tolist() for a in lru.state_arrays()] == \
        [a.tolist() for a in ref_lru.state_arrays()]
    for attr in ("hits", "misses", "promotions", "demotions", "evictions"):
        assert getattr(lru, attr) == getattr(ref_lru, attr), attr


# ------------------------------------------------------- plan-object plumbing
def test_merge_spans_coalesces_and_sorts():
    assert merge_spans([]) == []
    assert merge_spans([(3.0, 4.0), (1.0, 2.0)]) == [(1.0, 2.0), (3.0, 4.0)]
    # overlap and abutment coalesce (half-open windows: no healthy gap)
    assert merge_spans([(1.0, 2.0), (1.5, 3.0), (3.0, 4.0)]) == [(1.0, 4.0)]
    assert merge_spans([(0.0, 1.0), (0.2, 0.4)]) == [(0.0, 1.0)]


def test_live_spans_drop_dead_windows():
    plan = FaultPlan([
        LatencyFault(start=0.0, duration=1.0, factor=2.0),
        LatencyFault(start=5.0, duration=1.0, factor=2.0),
    ], seed=0)
    assert plan.live_spans(0.0) == [(0.0, 1.0), (5.0, 6.0)]
    assert plan.live_spans(2.0) == [(5.0, 6.0)]
    assert plan.live_spans(10.0) == []
    # still live while inside a window
    assert plan.live_spans(5.5) == [(5.0, 6.0)]


def test_execution_plan_merges_and_reports():
    plan = ExecutionPlan()
    plan.add("batch", 0, 100, 0.0, 1.0)
    plan.add("batch", 100, 200, 1.0, 2.0)   # merges with previous
    plan.add("event", 200, 260, 2.0, 4.0)
    plan.add("batch", 260, 300, 4.0, 4.5)
    plan.add("event", 300, 300, 4.5, 4.5)   # empty: dropped
    assert plan.n_segments == 3
    assert plan.segments[0].accesses == 200
    assert plan.event_time_fraction == pytest.approx(2.0 / 4.5)
    assert plan.event_access_fraction == pytest.approx(60 / 300)
    assert "3 segment(s)" in plan.describe()
