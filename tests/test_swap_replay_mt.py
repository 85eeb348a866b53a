"""Equivalence suite for the multi-tenant contended replay engine.

The contract has two independently checked sides (DESIGN.md §3.2):

* **counters** — bit-identical per tenant to the concurrent per-access
  event loop, for any tenant count: classification is timing-independent,
  so contention can reorder I/O but never change which accesses hit,
  fault, or evict;
* **timing and bookings** — phase 2 admits each window's aggregate step
  through the event engine itself, so at one tenant ``sim_time`` matches
  the per-access loop to round-off, and under contention the device's
  ops and wire bytes equal the concurrent event loops'.

The sweep covers backends × tenant counts × access distributions, shared
PCIe-switch topologies, engine routing (warm tenants, devices batched
admission does not model, fault-wrapped devices with no live window),
and a hypothesis property test.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import BackendKind, NVMeSSD
from repro.devices.registry import make_device
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultyDevice, LatencyFault
from repro.mem import lru as lru_mod
from repro.mem.page import PageOp
from repro.simcore import Simulator
from repro.swap import replay as replay_mod
from repro.swap.executor import SwapExecutor, make_contended_executors, run_tenants
from repro.swap.replay import REPLAY_ENV, ClassificationMemo, _engine, replay_run_multi
from repro.topology.pcie import PCIeSwitch
from repro.trace.schema import make_trace

COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
            "swap_outs", "clean_drops", "file_skips")

#: one-tenant batch-vs-per-access-loop ``sim_time`` tolerance
TIME_RTOL = 1e-9

DISTS = ("uniform", "zipf", "sequential")


def _build_trace(seed, n, distinct, dist, store_ratio=0.3):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        pages = rng.integers(0, distinct, size=n)
    elif dist == "zipf":
        pages = (rng.zipf(1.3, size=n) - 1) % distinct
    else:  # sequential
        pages = (np.arange(n) + rng.integers(0, distinct)) % distinct
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE), int(PageOp.LOAD))
    return make_trace(pages, ops=ops)


def _tenant_traces(n_tenants, seed0=0, n=4000, distinct=300):
    return [
        _build_trace(seed0 + i, n, distinct, DISTS[i % len(DISTS)])
        for i in range(n_tenants)
    ]


def _run_mt(traces, mode, kind=BackendKind.SSD, local_pages=90,
            sanitize=False, switch=False, classify=None):
    saved = os.environ.get(REPLAY_ENV)
    os.environ[REPLAY_ENV] = mode
    try:
        sim = Simulator(sanitize=sanitize)
        sw = PCIeSwitch(sim) if switch else None
        device = make_device(sim, kind, switch=sw)
        executors = make_contended_executors(
            sim, device, kind, len(traces), local_pages=local_pages
        )
        return run_tenants(executors, traces, classify), executors
    finally:
        if saved is None:
            os.environ.pop(REPLAY_ENV, None)
        else:
            os.environ[REPLAY_ENV] = saved


def _assert_mt_equivalent(traces, kernel_epochs=(None,), **kwargs):
    """Batch vs concurrent event loops: counters, LRU end state, touched
    set, far-copy owners and frontend counts.

    The batch runs repeat per entry of ``kernel_epochs``: None keeps the
    LRU's real two-scan kernel threshold, a number patches it down.  They
    run with the artifact cache off, so every run classifies on the path
    it forces instead of loading another path's result.
    """
    event, eex = _run_mt(traces, "event", **kwargs)
    for kernel_epoch in kernel_epochs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_CACHE", "0")
            if kernel_epoch is not None:
                mp.setattr(lru_mod, "_KERNEL_EPOCH", kernel_epoch)
            batch, bex = _run_mt(traces, "batch", **kwargs)
        for i in range(len(traces)):
            for counter in COUNTERS:
                assert getattr(batch[i], counter) == getattr(event[i], counter), \
                    (i, counter)
            assert batch[i].fault_latency.n == event[i].fault_latency.n
            b_act, b_inact = bex[i].lru.state_arrays()
            e_act, e_inact = eex[i].lru.state_arrays()
            assert b_act.tolist() == e_act.tolist()
            assert b_inact.tolist() == e_inact.tolist()
            assert bex[i]._touched == eex[i]._touched
            assert bex[i].frontend._owner == eex[i].frontend._owner
            assert bex[i].frontend.stores == eex[i].frontend.stores
            assert bex[i].frontend.loads == eex[i].frontend.loads
    return batch, event


@pytest.mark.parametrize("kind", [BackendKind.SSD, BackendKind.RDMA])
@pytest.mark.parametrize("n_tenants", [1, 2, 4, 8])
def test_mt_sweep_backends_tenants_distributions(kind, n_tenants):
    """The acceptance sweep: backends × tenant counts, tenants cycling
    through all three access distributions — once on the LRU's default
    replay path (the per-access loop at 90 local pages) and once through
    its two-scan kernel."""
    traces = _tenant_traces(n_tenants, seed0=10 * n_tenants)
    _assert_mt_equivalent(traces, kernel_epochs=(None, 1), kind=kind)


def test_single_tenant_batch_matches_per_access_loop():
    """At N=1 the window is degenerate: windowed admission must match the
    *per-access* event loop to round-off."""
    for dist in DISTS:
        traces = [_build_trace(42, 4000, 300, dist)]
        batch, _ = _run_mt(traces, "batch")
        event, _ = _run_mt(traces, "event")
        assert batch[0].sim_time == pytest.approx(event[0].sim_time, rel=TIME_RTOL)


def test_mt_single_channel_backend_queueing():
    """HDD has one channel: phase 2 is FCFS-queue dominated."""
    traces = _tenant_traces(4, seed0=77, n=2500, distinct=250)
    batch, _ = _assert_mt_equivalent(traces, kind=BackendKind.HDD)
    assert any(r.faults for r in batch)


def test_mt_shared_switch_three_stage_path():
    """Devices behind a shared PCIe switch: payloads cross media + slot +
    switch pipes concurrently (the ``all_of`` gate path)."""
    traces = _tenant_traces(4, seed0=31)
    _assert_mt_equivalent(traces, switch=True)


def test_mt_cross_device_contention_on_switch():
    """Two devices of different kinds under one switch, two tenants each:
    contention meets only at the shared switch pipe."""
    saved = os.environ.get(REPLAY_ENV)
    results = {}
    try:
        for mode in ("batch", "event"):
            os.environ[REPLAY_ENV] = mode
            sim = Simulator()
            sw = PCIeSwitch(sim)
            d_ssd = make_device(sim, BackendKind.SSD, switch=sw)
            d_rdma = make_device(sim, BackendKind.RDMA, switch=sw)
            executors = (
                make_contended_executors(sim, d_ssd, BackendKind.SSD, 2, local_pages=80)
                + make_contended_executors(sim, d_rdma, BackendKind.RDMA, 2, local_pages=80)
            )
            results[mode] = run_tenants(executors, _tenant_traces(4, seed0=55))
    finally:
        if saved is None:
            os.environ.pop(REPLAY_ENV, None)
        else:
            os.environ[REPLAY_ENV] = saved
    batch, event = results["batch"], results["event"]
    for i in range(4):
        for counter in COUNTERS:
            assert getattr(batch[i], counter) == getattr(event[i], counter), (i, counter)


def test_mt_event_engine_forced():
    """REPRO_REPLAY=event must bypass batching even for eligible tenants."""
    traces = _tenant_traces(2, seed0=91)
    _, executors = _run_mt(traces, "event")
    # the per-access loop samples progress every 256 accesses; batched
    # admission records no progress samples
    assert len(executors[0].progress) > 0


def test_mt_warm_tenant_falls_back_to_event_loop():
    """One warm tenant makes the whole group ineligible; results must
    still match an all-event run."""
    saved = os.environ.get(REPLAY_ENV)
    try:
        per_mode = {}
        for mode in ("batch", "event"):
            os.environ[REPLAY_ENV] = mode
            sim = Simulator()
            device = make_device(sim, BackendKind.SSD)
            executors = make_contended_executors(
                sim, device, BackendKind.SSD, 2, local_pages=60
            )
            # warm up tenant 0 so _engine sends the group to the event loop
            os.environ[REPLAY_ENV] = "event"
            executors[0].run(_build_trace(7, 800, 100, "zipf"))
            os.environ[REPLAY_ENV] = mode
            run_tenants(executors, _tenant_traces(2, seed0=13, n=2000, distinct=200))
            per_mode[mode] = [ex.result for ex in executors]
        for i in range(2):
            for counter in COUNTERS:
                assert getattr(per_mode["batch"][i], counter) == \
                    getattr(per_mode["event"][i], counter), (i, counter)
    finally:
        if saved is None:
            os.environ.pop(REPLAY_ENV, None)
        else:
            os.environ[REPLAY_ENV] = saved


def test_mt_validation_errors():
    sim = Simulator()
    device = make_device(sim, BackendKind.SSD)
    executors = make_contended_executors(sim, device, BackendKind.SSD, 2, local_pages=50)
    traces = _tenant_traces(2, seed0=3)
    with pytest.raises(ConfigurationError):
        run_tenants(executors, traces[:1])  # length mismatch
    with pytest.raises(ConfigurationError):
        run_tenants([], [])
    with pytest.raises(ConfigurationError):
        replay_run_multi([executors[0], executors[0]], traces)  # duplicate
    other = Simulator()
    foreign = make_contended_executors(other, make_device(other, BackendKind.SSD),
                                       BackendKind.SSD, 1, local_pages=50)
    with pytest.raises(ConfigurationError):
        run_tenants([executors[0], foreign[0]], traces)


@pytest.mark.parametrize("mode", ["batch", "event"])
def test_run_tenants_rejects_repeated_executor(mode, monkeypatch):
    """The group check runs before any engine starts: one executor listed
    twice is refused in both modes, not replayed twice on the event loop."""
    monkeypatch.setenv(REPLAY_ENV, mode)
    sim = Simulator()
    executor = SwapExecutor(sim, make_device(sim, BackendKind.SSD),
                            BackendKind.SSD, local_pages=20)
    traces = [_build_trace(seed, 2000, 30, "uniform") for seed in (1, 2)]
    with pytest.raises(ConfigurationError, match="distinct"):
        run_tenants([executor, executor], traces)


class _OwnIOPathSSD(NVMeSSD):
    """An SSD with its own DES I/O path, which batched admission does not
    model (it delegates, so its results stay comparable)."""

    def _io(self, nbytes, write, granularity):
        return (yield from super()._io(nbytes, write, granularity))


@pytest.mark.parametrize("n_tenants", [1, 2])
def test_unmodelled_device_runs_event_engine(n_tenants, monkeypatch):
    """A device batched admission does not model takes the per-access
    loop under ``REPRO_REPLAY=batch``, solo or contended."""
    traces = _tenant_traces(n_tenants, seed0=95, n=2000, distinct=200)
    runs = {}
    for mode in ("batch", "event"):
        monkeypatch.setenv(REPLAY_ENV, mode)
        sim = Simulator()
        executors = make_contended_executors(
            sim, _OwnIOPathSSD(sim), BackendKind.SSD, n_tenants, local_pages=60)
        assert _engine(executors) == "event"
        runs[mode] = (run_tenants(executors, traces), executors)
    (batch, bex), (event, eex) = runs["batch"], runs["event"]
    for i in range(n_tenants):
        for counter in COUNTERS:
            assert getattr(batch[i], counter) == getattr(event[i], counter), (i, counter)
        assert batch[i].sim_time == event[i].sim_time  # simlint: ignore[UNIT002] -- same engine: bit-identity is the property under test
        assert bex[i].frontend._owner == eex[i].frontend._owner


def test_shared_faulty_device_without_live_window_batches(monkeypatch):
    """Two tenants on one fault-wrapped device with an empty plan take the
    batch engine: admission unwraps the wrapper, and counters equal the
    concurrent event loops."""
    traces = _tenant_traces(2, seed0=97)

    def build():
        sim = Simulator()
        device = FaultyDevice(make_device(sim, BackendKind.SSD), FaultPlan())
        return make_contended_executors(sim, device, BackendKind.SSD, 2,
                                        local_pages=90)

    monkeypatch.setenv(REPLAY_ENV, "batch")
    bex = build()
    assert _engine(bex) == "batch"
    batch = run_tenants(bex, traces)
    # batched admission records no progress samples
    assert len(bex[0].progress) == 0
    monkeypatch.setenv(REPLAY_ENV, "event")
    eex = build()
    event = run_tenants(eex, traces)
    for i in range(2):
        assert batch[i].faults
        for counter in COUNTERS:
            assert getattr(batch[i], counter) == getattr(event[i], counter), (i, counter)
        assert bex[i].frontend._owner == eex[i].frontend._owner


def test_mt_all_hit_tenant_finishes_instantly():
    """A tenant whose working set fits local memory admits nothing; its
    sim_time is zero while co-tenants still pay for their faults."""
    quiet = make_trace(np.tile(np.arange(10), 100))
    noisy = _build_trace(5, 3000, 300, "uniform")
    batch, _ = _run_mt([quiet, noisy], "batch", local_pages=64)
    event, _ = _run_mt([quiet, noisy], "event", local_pages=64)
    assert batch[0].faults == 0 and batch[0].sim_time == 0.0
    for counter in COUNTERS:
        assert getattr(batch[1], counter) == getattr(event[1], counter)


def test_mt_batch_bookings_match_event_loop(monkeypatch):
    """Four tenants on one single-channel HDD: batched admission books the
    device's ops and wire bytes exactly as the concurrent per-access loops
    do, and moves the same payload through the media pipes."""
    traces = _tenant_traces(4, seed0=21, n=3000)
    stats = {}
    for mode in ("batch", "event"):
        monkeypatch.setenv(REPLAY_ENV, mode)
        sim = Simulator()
        device = make_device(sim, BackendKind.HDD)
        executors = make_contended_executors(
            sim, device, BackendKind.HDD, 4, local_pages=90
        )
        run_tenants(executors, traces)
        stats[mode] = (
            (device.ops, device.bytes_read, device.bytes_written),
            (device._media_read.total_bytes, device._media_write.total_bytes),
        )
    (b_dev, b_pipes), (e_dev, e_pipes) = stats["batch"], stats["event"]
    assert b_dev == e_dev
    assert b_dev[0] > 0 and b_dev[2] > 0
    for b, e in zip(b_pipes, e_pipes):
        assert b == pytest.approx(e, rel=1e-9)


@pytest.mark.sanitize
def test_mt_batch_passes_sanitizer():
    """Sanitize mode checks the event engine's link, channel-pool and
    event invariants while the batch steps are admitted, plus page
    conservation."""
    traces = _tenant_traces(4, seed0=17)
    batch, executors = _run_mt(traces, "batch", sanitize=True, switch=True)
    assert any(r.faults for r in batch)
    for ex in executors:
        ex.assert_page_conservation()


# -- per-sweep classification memo -------------------------------------------

@pytest.mark.parametrize("n_tenants", [1, 4])
def test_memo_hook_matches_default_hook(n_tenants):
    """A memo changes no outcome: counters, LRU end state and sim_time are
    bit-identical to the default hook, on a fresh memo and on a warm one."""
    traces = _tenant_traces(n_tenants, seed0=60)
    ref, rex = _run_mt(traces, "batch")
    memo = ClassificationMemo()
    for _ in range(2):  # miss, then hit
        got, gex = _run_mt(traces, "batch", classify=memo)
        for i in range(n_tenants):
            for counter in COUNTERS:
                assert getattr(got[i], counter) == getattr(ref[i], counter), \
                    (i, counter)
            assert got[i].sim_time == ref[i].sim_time  # simlint: ignore[UNIT002] -- bit-identity is the property under test
            r_act, r_inact = rex[i].lru.state_arrays()
            g_act, g_inact = gex[i].lru.state_arrays()
            assert g_act.tolist() == r_act.tolist()
            assert g_inact.tolist() == r_inact.tolist()
            assert gex[i]._touched == rex[i]._touched
            assert gex[i].frontend._owner == rex[i].frontend._owner


def test_memo_classifies_each_distinct_key_once(monkeypatch):
    """A tenant_scaling-shaped sweep — two backends, a solo run per slice,
    then growing groups — classifies each distinct slice exactly once."""
    calls = []
    real = replay_mod.classify_trace

    def counted(trace, capacity, active_ratio=0.5, **kw):
        calls.append((trace.content_digest(), capacity, active_ratio))
        return real(trace, capacity, active_ratio, **kw)

    monkeypatch.setattr(replay_mod, "classify_trace", counted)
    base = _build_trace(3, 6000, 400, "zipf")
    # cyclic windows: slices 0 and 3 repeat, as short base traces do
    slices = [base.slice(s, s + 1500) for s in (0, 1500, 3000, 0, 4500, 1500)]
    memo = ClassificationMemo()
    for kind in (BackendKind.SSD, BackendKind.RDMA):
        for trace in slices:
            _run_mt([trace], "batch", kind=kind, local_pages=64, classify=memo)
        for n in (2, 4, 6):
            _run_mt(slices[:n], "batch", kind=kind, local_pages=64, classify=memo)
    distinct = {(t.content_digest(), 64, 0.5) for t in slices}
    assert sorted(calls) == sorted(distinct)
    assert len(calls) == 4


def test_memoized_arrays_are_read_only():
    memo = ClassificationMemo()
    trace = _build_trace(8, 2000, 200, "uniform")
    cls = memo(trace, 50)
    assert memo(trace, 50) is cls
    assert memo(trace, 60) is not cls
    with pytest.raises(ValueError):
        cls.fault_pos[0] = 1
    with pytest.raises(ValueError):
        cls.final_active[:] = 0


def _refusing_hook(trace, capacity, active_ratio=0.5):
    raise AssertionError("classify hook called off the batch path")


@pytest.mark.parametrize("n_tenants", [1, 3])
def test_event_engine_never_calls_hook(n_tenants):
    results, _ = _run_mt(_tenant_traces(n_tenants, seed0=70), "event",
                         classify=_refusing_hook)
    assert all(r.accesses for r in results)


def test_hybrid_engine_never_calls_hook(monkeypatch):
    monkeypatch.setenv(REPLAY_ENV, "batch")
    sim = Simulator()
    device = FaultyDevice(make_device(sim, BackendKind.SSD), FaultPlan())
    executor = SwapExecutor(sim, device, BackendKind.SSD, local_pages=90)
    # module start-up advanced the clock: open the window after it
    device.fault_plan = FaultPlan(
        [LatencyFault(start=sim.now + 1e-3, duration=5e-3, factor=4.0)], seed=5)
    result = run_tenants([executor], _tenant_traces(1, seed0=80),
                         classify=_refusing_hook)[0]
    assert executor.execution_plan is not None  # routed to the hybrid planner
    assert result.accesses


# -- property test -----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**20), min_size=2, max_size=4),
    n=st.integers(min_value=200, max_value=1200),
    distinct=st.integers(min_value=20, max_value=120),
    local_pages=st.integers(min_value=8, max_value=60),
)
def test_property_mt_batch_equals_event(seeds, n, distinct, local_pages):
    """Batch counters and far-copy owners equal the concurrent event
    loops' on random tenant groups."""
    traces = [
        _build_trace(seed, n, distinct, DISTS[i % len(DISTS)])
        for i, seed in enumerate(seeds)
    ]
    batch, bex = _run_mt(traces, "batch", local_pages=local_pages)
    event, eex = _run_mt(traces, "event", local_pages=local_pages)
    for i in range(len(traces)):
        for counter in COUNTERS:
            assert getattr(batch[i], counter) == getattr(event[i], counter), \
                (i, counter)
        assert bex[i].frontend._owner == eex[i].frontend._owner
