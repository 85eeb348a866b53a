"""Equivalence suite for the batched fault-replay engine.

The batch engine's contract is exactness, not approximation: for every
eligible run, every execution counter must equal the per-access event
loop bit for bit, the end state (LRU lists *and order*, touched set,
far-memory ownership) must be identical, and simulated time must agree
within 1e-9 relative (float round-off; DESIGN.md §3.2) —
``tests.oracles.assert_engines_agree`` checks all of it.  Seeded
distributions, file-backed mixes, a hypothesis property test, and the
Mattson MRC cross-check lock this in.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.mem import lru as lru_mod
from repro.mem.lru import lru_replay
from repro.mem.page import PageKind, PageOp
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap.executor import SwapExecutor
from repro.swap.replay import (
    _CACHE_MIN_ANON,
    ReplayClassification,
    _classify_evictions,
    _engine,
    _in_sorted,
    classify_trace,
    trace_mrc,
)
from repro.trace.schema import make_trace
from repro.units import PAGE_SIZE
from tests.oracles import LRUCache, assert_engines_agree, classify_evictions_reference


def _build_trace(seed, n, distinct, dist, store_ratio=0.3, file_ratio=0.0):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        pages = rng.integers(0, distinct, size=n)
    elif dist == "zipf":
        pages = (rng.zipf(1.3, size=n) - 1) % distinct
    else:  # sequential
        pages = (np.arange(n) + rng.integers(0, distinct)) % distinct
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE), int(PageOp.LOAD))
    kinds = np.where(rng.random(n) < file_ratio, int(PageKind.FILE), int(PageKind.ANON))
    return make_trace(pages, ops=ops, kinds=kinds)


def _stack(capacity, device_cls=NVMeSSD, kind=BackendKind.SSD):
    sim = Simulator()
    return SwapExecutor(sim, device_cls(sim), kind, local_pages=capacity)


def _assert_equivalent(trace, capacity, **kwargs):
    bex, eex = assert_engines_agree(lambda: [_stack(capacity, **kwargs)], [trace])
    return bex[0], eex[0]


@pytest.mark.parametrize("dist", ["uniform", "zipf", "sequential"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_event_distributions(dist, seed):
    trace = _build_trace(seed, 6000, 400, dist)
    _assert_equivalent(trace, capacity=120)


def test_batch_matches_event_with_file_backed_mix():
    trace = _build_trace(3, 6000, 300, "zipf", store_ratio=0.4, file_ratio=0.3)
    _, eex = _assert_equivalent(trace, capacity=80)
    assert eex.result.file_skips > 0  # the mix actually exercised the skip path


def test_batch_matches_event_on_rdma():
    trace = _build_trace(4, 4000, 250, "uniform")
    _assert_equivalent(trace, capacity=60, device_cls=RDMANic, kind=BackendKind.RDMA)


def test_batch_matches_event_store_only_and_load_only():
    for store_ratio in (0.0, 1.0):
        trace = _build_trace(5, 4000, 200, "uniform", store_ratio=store_ratio)
        _assert_equivalent(trace, capacity=50)


def test_batch_matches_event_tiny_cache():
    # a tiny cache: the LRU replay takes its per-access loop path
    trace = _build_trace(6, 2000, 40, "zipf")
    _assert_equivalent(trace, capacity=5)


def test_all_hits_no_des_activity():
    pages = np.tile(np.arange(10), 50)
    trace = make_trace(pages)
    batch = _stack(64).run(trace)
    assert batch.faults == 0 and batch.swap_outs == 0
    assert batch.cold_allocations == 10
    assert batch.sim_time == 0.0


@pytest.mark.sanitize
def test_batch_replay_passes_page_conservation():
    trace = _build_trace(7, 3000, 200, "uniform", store_ratio=0.5)
    executor = _stack(50)
    assert executor.run(trace).faults > 0
    executor.assert_page_conservation()


def test_device_byte_counters_match_across_engines():
    """Regression: ``_io`` used to credit the *requested* bytes while the
    batch engine credits whole granules — a partial last op still moves a
    full unit, so per-op and batched runs must report identical wire
    bytes, and swap traffic must land in the counters exactly as
    pages x PAGE_SIZE."""
    trace = _build_trace(16, 4000, 250, "zipf", store_ratio=0.5)
    bex, eex = _assert_equivalent(trace, 60)
    batch = bex.result
    b_dev = bex.frontend.module("ssd").device
    e_dev = eex.frontend.module("ssd").device
    assert batch.swap_ins > 0 and batch.swap_outs > 0
    assert b_dev.bytes_read == e_dev.bytes_read
    assert b_dev.bytes_written == e_dev.bytes_written
    assert b_dev.ops == e_dev.ops
    assert b_dev.bytes_read == batch.swap_ins * PAGE_SIZE
    assert b_dev.bytes_written == batch.swap_outs * PAGE_SIZE


def test_warm_executor_falls_back_to_event_loop():
    """A second run on the same executor is ineligible for batching: the
    batch-warmed stack continues on the event loop and must produce what
    two per-access runs produce."""
    first = _build_trace(9, 2000, 150, "zipf")
    second = _build_trace(10, 2000, 150, "uniform")
    bex, eex = assert_engines_agree(lambda: [_stack(40)], [second], warmup=[first])
    # the per-access loop samples progress and batched admission does not:
    # only the second run on the batch side took the event loop
    assert 0 < len(bex[0].progress) < len(eex[0].progress)


def test_replay_run_requires_consistent_classification():
    """Batch admission applied twice would double-adopt far pages, so a
    second run on the same executor takes the event loop."""
    trace = _build_trace(11, 2000, 150, "uniform")
    executor = _stack(40)
    executor.run(trace)
    assert _engine([executor]) == "event"  # warm now


# -- classification cache ----------------------------------------------------

def _assert_same_classification(a, b):
    for f in dataclasses.fields(ReplayClassification):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_classification_cache_roundtrip(monkeypatch):
    import repro.swap.replay as replay_mod
    from repro import cache

    monkeypatch.setattr(replay_mod, "_CACHE_MIN_ANON", 1)
    trace = _build_trace(12, 3000, 200, "zipf", store_ratio=0.4)
    cold = classify_trace(trace, 50)
    h0, _ = cache.cache_stats()
    warm = classify_trace(trace, 50)
    h1, _ = cache.cache_stats()
    assert h1 == h0 + 1
    _assert_same_classification(cold, warm)


@pytest.mark.parametrize("below", [0, 1])
def test_classification_cache_floor_counts_anonymous_accesses(
        below, tmp_path, monkeypatch):
    """A trace with exactly ``_CACHE_MIN_ANON`` anonymous accesses (plus
    file-backed ones) is persisted, and its warm classification runs no
    LRU replay; one anonymous access fewer persists nothing."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    n_anon = _CACHE_MIN_ANON - below
    rng = derive(16, "tests/replay-cache-floor")
    n = n_anon + 500
    kinds = np.full(n, int(PageKind.FILE))
    kinds[rng.choice(n, size=n_anon, replace=False)] = int(PageKind.ANON)
    ops = np.where(rng.random(n) < 0.3, int(PageOp.STORE), int(PageOp.LOAD))
    trace = make_trace(rng.integers(0, 600, size=n), ops=ops, kinds=kinds)
    cold = classify_trace(trace, 150)
    assert cold.n_accesses - cold.file_skips == n_anon
    entries = list(tmp_path.rglob("replay-*.npz"))
    assert len(entries) == (1 if below == 0 else 0)
    if below == 0:
        with pytest.MonkeyPatch.context() as mp:
            def refuse(*args, **kwargs):
                raise AssertionError("warm classification replayed the LRU")
            mp.setattr(lru_mod.ActiveInactiveLRU, "replay", refuse)
            warm = classify_trace(trace, 150)
        _assert_same_classification(cold, warm)


def test_content_digest_distinguishes_traces():
    a = _build_trace(13, 500, 50, "uniform")
    b = _build_trace(14, 500, 50, "uniform")
    assert a.content_digest() != b.content_digest()
    assert a.content_digest() == a.content_digest()


#: sorted-membership probes: negative ids, ids at and past 2**32, and
#: ids above every table below
_PROBE_IDS = [-(3**25), -1, 0, 5, 2**32 - 1, 2**32, 2**33 + 5, 2**62, 2**63 - 1]


@pytest.mark.parametrize("table", [
    pytest.param([], id="empty"),
    pytest.param([5], id="one"),
    pytest.param([-(3**25), -2, 0, 2**32, 2**33 + 4], id="wide"),
])
def test_in_sorted_matches_isin(table):
    table = np.asarray(table, dtype=np.int64)
    for probes in (_PROBE_IDS, []):
        probes = np.asarray(probes, dtype=np.int64)
        assert _in_sorted(probes, table).tolist() == np.isin(probes, table).tolist()


# -- eviction scan vs the reference ------------------------------------------

#: page-id remaps (stride, base): small ids; negative ids; ids of 2**40 and
#: up, which still pack into one key; ids past 2**55, which are ranked first
_EVICTION_IDS = [(1, 0), (1, -40), (1, 2**40),  # simlint: ignore[UNIT001] -- page ids, not bytes
                 (2**55, 0), (-(2**55), 7)]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 200),
    distinct=st.integers(1, 30),
    store_ratio=st.floats(0.0, 1.0),
    evict_frac=st.floats(0.0, 1.0),
    far_frac=st.floats(0.0, 1.0),
    ids=st.sampled_from(_EVICTION_IDS),
    seed=st.integers(0, 2**31 - 1),
)
def test_classify_evictions_matches_reference(n, distinct, store_ratio, evict_frac,
                                              far_frac, ids, seed):
    """Random victim streams — at most one victim per position, as every
    LRU replay produces — with seam far copies and stores at victim
    positions, against the segmented running-maximum reference: the same
    clean flags and the same end-of-span far set."""
    rng = derive(seed, "tests/swap_replay/evictions")
    stride, base = ids
    pages = rng.integers(0, distinct, size=n) * stride + base
    ops = np.where(rng.random(n) < store_ratio, int(PageOp.STORE), int(PageOp.LOAD))
    evict_pos = np.flatnonzero(rng.random(n) < evict_frac)
    # victims come from the span's pages and a few pages it never touches
    evict_page = rng.integers(0, distinct + 3, size=evict_pos.size) * stride + base
    far0 = np.unique(rng.integers(0, distinct + 3, size=int(far_frac * distinct))
                     * stride + base)
    want = classify_evictions_reference(pages, ops, evict_pos, evict_page, n, far0)
    got = _classify_evictions(pages, ops, evict_pos, evict_page, n, far0)
    assert got[0].dtype == bool and got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_classify_evictions_empty_streams():
    empty = np.empty(0, dtype=np.int64)
    pages = np.array([3, 4, 3])
    ops = np.full(3, int(PageOp.STORE))
    for far0 in (empty, np.array([3, 9])):
        want = classify_evictions_reference(pages, ops, empty, empty, 3, far0)
        got = _classify_evictions(pages, ops, empty, empty, 3, far0)
        assert got[0].tolist() == want[0].tolist() == []
        assert got[1].tolist() == want[1].tolist()


# -- Mattson MRC cross-check -------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mrc_matches_exact_lru_replay(seed):
    """One-pass Mattson miss counts == exact LRUCache replay, per capacity."""
    trace = _build_trace(seed, 3000, 120, "zipf" if seed % 2 else "uniform")
    pages = trace.pages[trace.anon_mask]
    mrc = trace_mrc(trace)
    for capacity in (1, 2, 7, 30, 119, 400):
        cache = LRUCache(capacity)
        misses = sum(0 if cache.access(int(p)) else 1 for p in pages)
        assert mrc.misses(capacity) == misses, capacity


def test_mrc_sweep_matches_pointwise_queries():
    trace = _build_trace(15, 2000, 100, "zipf")
    mrc = trace_mrc(trace)
    caps = np.arange(0, 150)
    sweep = mrc.misses_at(caps)
    assert sweep.tolist() == [mrc.misses(int(c)) for c in caps]
    # and the vectorized replay agrees with the curve at each capacity
    pages = trace.pages[trace.anon_mask]
    for capacity in (3, 25, 90):
        log = lru_replay(pages, capacity)
        assert int((~log.hits).sum()) == mrc.misses(capacity)


# -- property test -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    pages=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=400),
    capacity=st.integers(min_value=2, max_value=14),
    data=st.data(),
)
def test_property_batch_equals_event(pages, capacity, data):
    n = len(pages)
    ops = data.draw(st.lists(
        st.sampled_from([int(PageOp.LOAD), int(PageOp.STORE)]),
        min_size=n, max_size=n))
    kinds = data.draw(st.lists(
        st.sampled_from([int(PageKind.ANON), int(PageKind.ANON), int(PageKind.FILE)]),
        min_size=n, max_size=n))
    trace = make_trace(np.asarray(pages), ops=np.asarray(ops), kinds=np.asarray(kinds))
    # patched down, the LRU's two-scan kernel classifies from capacity 4 up;
    # cache off, so the batch run classifies on the path it forces
    kernel_epoch = data.draw(st.sampled_from([lru_mod._KERNEL_EPOCH, 1]), label="kernel_epoch")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", "0")
        mp.setattr(lru_mod, "_KERNEL_EPOCH", kernel_epoch)
        _assert_equivalent(trace, capacity)
