"""Equivalence suite for the multi-tenant contended replay engine.

The contract has two independently checked sides (DESIGN.md §3.2):

* **counters** — bit-identical per tenant to the concurrent per-access
  event loop (``tests.oracles.assert_engines_agree``), for any tenant
  count: classification is timing-independent, so contention can
  reorder I/O but never change which accesses hit, fault, or evict;
* **timing and bookings** — phase 2 admits each window's aggregate step
  through the event engine itself, so at one tenant ``sim_time`` matches
  the per-access loop to round-off, and under contention the device's
  ops and wire bytes equal the concurrent event loops'.

The sweep covers backends × tenant counts × access distributions, shared
PCIe-switch topologies, engine routing (warm tenants, devices batched
admission does not model, fault-wrapped devices with no live window),
and a hypothesis property test.
"""

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
from repro.swap.executor import (
    COUNTERS, SwapExecutor, make_contended_executors, run_event, run_tenants)
from repro.swap.replay import ClassificationMemo, _engine, replay_run_multi
from repro.topology.pcie import PCIeSwitch
from repro.trace.schema import make_trace
from tests.oracles import assert_engines_agree

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


def _stack(n_tenants, kind=BackendKind.SSD, local_pages=90, sanitize=False,
           switch=False):
    sim = Simulator(sanitize=sanitize)
    sw = PCIeSwitch(sim) if switch else None
    device = make_device(sim, kind, switch=sw)
    return make_contended_executors(sim, device, kind, n_tenants,
                                    local_pages=local_pages)


def _run(traces, classify=None, **kwargs):
    executors = _stack(len(traces), **kwargs)
    return run_tenants(executors, traces, classify), executors


def _assert_mt_equivalent(traces, kernel_epochs=(None,), **kwargs):
    """:func:`assert_engines_agree` on one shared device, once per entry
    of ``kernel_epochs``: None keeps the LRU's real two-scan kernel
    threshold, a number patches it down.  The artifact cache is off, so
    every batch run classifies on the path it forces instead of loading
    another path's result.  Returns the last pair of executor lists."""
    for kernel_epoch in kernel_epochs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_CACHE", "0")
            if kernel_epoch is not None:
                mp.setattr(lru_mod, "_KERNEL_EPOCH", kernel_epoch)
            bex, eex = assert_engines_agree(
                lambda: _stack(len(traces), **kwargs), traces)
    return bex, eex


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
    *per-access* event loop to round-off (the harness checks ``sim_time``
    at one tenant)."""
    for dist in DISTS:
        _assert_mt_equivalent([_build_trace(42, 4000, 300, dist)])


def test_mt_single_channel_backend_queueing():
    """HDD has one channel: phase 2 is FCFS-queue dominated."""
    traces = _tenant_traces(4, seed0=77, n=2500, distinct=250)
    bex, _ = _assert_mt_equivalent(traces, kind=BackendKind.HDD)
    assert any(ex.result.faults for ex in bex)


def test_mt_shared_switch_three_stage_path():
    """Devices behind a shared PCIe switch: payloads cross media + slot +
    switch pipes concurrently (the ``all_of`` gate path)."""
    traces = _tenant_traces(4, seed0=31)
    _assert_mt_equivalent(traces, switch=True)


def test_mt_cross_device_contention_on_switch():
    """Two devices of different kinds under one switch, two tenants each:
    contention meets only at the shared switch pipe."""
    def build():
        sim = Simulator()
        sw = PCIeSwitch(sim)
        d_ssd = make_device(sim, BackendKind.SSD, switch=sw)
        d_rdma = make_device(sim, BackendKind.RDMA, switch=sw)
        return (
            make_contended_executors(sim, d_ssd, BackendKind.SSD, 2, local_pages=80)
            + make_contended_executors(sim, d_rdma, BackendKind.RDMA, 2, local_pages=80)
        )

    assert_engines_agree(build, _tenant_traces(4, seed0=55))


def test_mt_event_engine_forced():
    """``run_event`` runs the per-access loop even for tenants the batch
    engine would take."""
    traces = _tenant_traces(2, seed0=91)
    executors = _stack(2)
    assert _engine(executors) == "batch"
    run_event(executors, traces)
    # the per-access loop samples progress every 256 accesses; batched
    # admission records no progress samples
    assert len(executors[0].progress) > 0


def test_mt_warm_tenant_falls_back_to_event_loop():
    """One warm tenant makes the whole group ineligible; results must
    still match an all-event run."""
    def build():
        executors = _stack(2, local_pages=60)
        # warm up tenant 0 so _engine sends the group to the event loop
        run_event(executors[:1], [_build_trace(7, 800, 100, "zipf")])
        assert _engine(executors) == "event"
        return executors

    assert_engines_agree(build, _tenant_traces(2, seed0=13, n=2000, distinct=200))


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
def test_run_tenants_rejects_repeated_executor(mode):
    """The group check runs before any engine starts: one executor listed
    twice is refused by both entry points, not replayed twice on the
    event loop."""
    run = {"batch": run_tenants, "event": run_event}[mode]
    sim = Simulator()
    executor = SwapExecutor(sim, make_device(sim, BackendKind.SSD),
                            BackendKind.SSD, local_pages=20)
    traces = [_build_trace(seed, 2000, 30, "uniform") for seed in (1, 2)]
    with pytest.raises(ConfigurationError, match="distinct"):
        run([executor, executor], traces)


class _OwnIOPathSSD(NVMeSSD):
    """An SSD with its own DES I/O path, which batched admission does not
    model (it delegates, so its results stay comparable)."""

    def _io(self, nbytes, write, granularity):
        return (yield from super()._io(nbytes, write, granularity))


def _unmodelled_stack(n_tenants):
    sim = Simulator()
    return make_contended_executors(sim, _OwnIOPathSSD(sim), BackendKind.SSD,
                                    n_tenants, local_pages=60)


@pytest.mark.parametrize("n_tenants", [1, 2])
def test_unmodelled_device_runs_event_engine(n_tenants):
    """A device batched admission does not model takes the per-access
    loop, solo or contended."""
    traces = _tenant_traces(n_tenants, seed0=95, n=2000, distinct=200)
    assert _engine(_unmodelled_stack(n_tenants)) == "event"
    bex, eex = assert_engines_agree(lambda: _unmodelled_stack(n_tenants), traces)
    for b, e in zip(bex, eex):
        assert b.result.sim_time == e.result.sim_time  # simlint: ignore[UNIT002] -- same engine: bit-identity is the property under test


def test_shared_faulty_device_without_live_window_batches():
    """Two tenants on one fault-wrapped device with an empty plan take the
    batch engine: admission unwraps the wrapper, and counters equal the
    concurrent event loops."""
    def build():
        sim = Simulator()
        device = FaultyDevice(make_device(sim, BackendKind.SSD), FaultPlan())
        return make_contended_executors(sim, device, BackendKind.SSD, 2,
                                        local_pages=90)

    assert _engine(build()) == "batch"
    bex, _ = assert_engines_agree(build, _tenant_traces(2, seed0=97))
    # batched admission records no progress samples
    assert len(bex[0].progress) == 0
    assert all(ex.result.faults for ex in bex)


def test_mt_all_hit_tenant_finishes_instantly():
    """A tenant whose working set fits local memory admits nothing; its
    sim_time is zero while co-tenants still pay for their faults."""
    quiet = make_trace(np.tile(np.arange(10), 100))
    noisy = _build_trace(5, 3000, 300, "uniform")
    bex, _ = _assert_mt_equivalent([quiet, noisy], local_pages=64)
    assert bex[0].result.faults == 0 and bex[0].result.sim_time == 0.0
    assert bex[1].result.faults > 0


def test_mt_batch_bookings_match_event_loop():
    """Four tenants on one single-channel HDD: batched admission books the
    device's ops and wire bytes exactly as the concurrent per-access loops
    do, and moves the same payload through the media pipes."""
    traces = _tenant_traces(4, seed0=21, n=3000)
    bex, eex = _assert_mt_equivalent(traces, kind=BackendKind.HDD)
    b, e = (ex[0].frontend.module("hdd").device for ex in (bex, eex))
    assert (b.ops, b.bytes_read, b.bytes_written) == \
        (e.ops, e.bytes_read, e.bytes_written)
    assert b.ops > 0 and b.bytes_written > 0
    for bp, ep in ((b._media_read, e._media_read), (b._media_write, e._media_write)):
        assert bp.total_bytes == pytest.approx(ep.total_bytes, rel=1e-9)


@pytest.mark.sanitize
def test_mt_batch_passes_sanitizer():
    """Sanitize mode checks the event engine's link, channel-pool and
    event invariants while the batch steps are admitted, plus page
    conservation."""
    traces = _tenant_traces(4, seed0=17)
    batch, executors = _run(traces, sanitize=True, switch=True)
    assert any(r.faults for r in batch)
    for ex in executors:
        ex.assert_page_conservation()


# -- per-sweep classification memo -------------------------------------------

@pytest.mark.parametrize("n_tenants", [1, 4])
def test_memo_hook_matches_default_hook(n_tenants):
    """A memo changes no outcome: counters, LRU end state and sim_time are
    bit-identical to the default hook, on a fresh memo and on a warm one."""
    traces = _tenant_traces(n_tenants, seed0=60)
    ref, rex = _run(traces)
    memo = ClassificationMemo()
    for _ in range(2):  # miss, then hit
        got, gex = _run(traces, memo)
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
            _run([trace], memo, kind=kind, local_pages=64)
        for n in (2, 4, 6):
            _run(slices[:n], memo, kind=kind, local_pages=64)
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
    """A group the dispatcher sends to the event loop ignores the hook."""
    results = run_tenants(_unmodelled_stack(n_tenants),
                          _tenant_traces(n_tenants, seed0=70),
                          classify=_refusing_hook)
    assert all(r.accesses for r in results)


def test_hybrid_engine_never_calls_hook():
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
    """Batch counters and end state equal the concurrent event loops' on
    random tenant groups."""
    traces = [
        _build_trace(seed, n, distinct, DISTS[i % len(DISTS)])
        for i, seed in enumerate(seeds)
    ]
    _assert_mt_equivalent(traces, local_pages=local_pages)
