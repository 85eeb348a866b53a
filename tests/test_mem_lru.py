"""Unit + property tests for LRU structures."""

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.mem.lru as lru_mod
from repro.mem import ActiveInactiveLRU
from repro.rng import derive
from tests.oracles import LRUCache


# ------------------------------------------------------------- LRUCache
def test_lru_hit_and_miss():
    c = LRUCache(2)
    assert c.access("a") is False
    assert c.access("a") is True
    assert c.access("b") is False
    assert c.access("a") is True
    assert c.hits == 2 and c.misses == 2


def test_lru_evicts_least_recent():
    evicted = []
    c = LRUCache(2, on_evict=evicted.append)
    c.access("a")
    c.access("b")
    c.access("a")  # refresh a; b is now LRU
    c.access("c")  # evicts b
    assert evicted == ["b"]
    assert "a" in c and "c" in c and "b" not in c


def test_lru_discard():
    c = LRUCache(2)
    c.access("a")
    assert c.discard("a") is True
    assert c.discard("a") is False
    assert len(c) == 0


def test_lru_resize_shrink_returns_victims():
    c = LRUCache(4)
    for k in "abcd":
        c.access(k)
    victims = c.resize(2)
    assert victims == ["a", "b"]
    assert len(c) == 2


def test_lru_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_lru_hit_rate():
    c = LRUCache(8)
    assert c.hit_rate == 0.0
    c.access(1)
    c.access(1)
    assert c.hit_rate == pytest.approx(0.5)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_lru_size_never_exceeds_capacity(trace, cap):
    c = LRUCache(cap)
    for p in trace:
        c.access(p)
        assert len(c) <= cap
    assert c.hits + c.misses == len(trace)


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_lru_inclusion_property(trace):
    """A bigger LRU cache hits at least as often (LRU is a stack algorithm)."""
    small, big = LRUCache(3), LRUCache(7)
    for p in trace:
        small.access(p)
        big.access(p)
    assert big.hits >= small.hits


# ---------------------------------------------------- ActiveInactiveLRU
def test_two_list_promotion_on_second_touch():
    l = ActiveInactiveLRU(capacity=8)
    l.access("a")
    assert l.inactive_size == 1 and l.active_size == 0
    l.access("a")
    assert l.active_size == 1 and l.inactive_size == 0
    assert l.promotions == 1


def test_two_list_reclaims_inactive_first():
    evicted = []
    l = ActiveInactiveLRU(capacity=4, on_evict=evicted.append)
    l.access("hot")
    l.access("hot")  # promoted
    for k in ("c1", "c2", "c3", "c4"):
        l.access(k)
    # 'hot' protected on active; the cold stream evicts among itself
    assert "hot" not in evicted
    assert len(l) <= 4


def test_two_list_demotes_when_inactive_empty():
    l = ActiveInactiveLRU(capacity=4, active_ratio=0.9)
    for k in ("a", "b"):
        l.access(k)
        l.access(k)  # both promoted, inactive empty
    for k in ("x", "y", "z"):
        l.access(k)
    assert len(l) <= 4
    assert l.demotions >= 0  # machinery exercised without corruption


def test_two_list_active_share_bounded():
    l = ActiveInactiveLRU(capacity=10, active_ratio=0.3)
    for k in range(10):
        l.access(k)
        l.access(k)
    assert l.active_size <= max(1, int(10 * 0.3))


def test_two_list_resize_shrinks():
    l = ActiveInactiveLRU(capacity=8)
    for k in range(8):
        l.access(k)
    l.resize(4)
    assert len(l) <= 4


def test_two_list_discard():
    l = ActiveInactiveLRU(capacity=4)
    l.access("a")
    l.access("a")
    l.access("b")
    assert l.discard("a") is True   # from active
    assert l.discard("b") is True   # from inactive
    assert l.discard("zz") is False


def test_two_list_validates():
    with pytest.raises(ValueError):
        ActiveInactiveLRU(capacity=1)
    with pytest.raises(ValueError):
        ActiveInactiveLRU(capacity=4, active_ratio=1.5)


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=400),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_two_list_invariants(trace, cap):
    l = ActiveInactiveLRU(capacity=cap)
    for p in trace:
        l.access(p)
        assert len(l) <= cap
        assert l.active_size + l.inactive_size == len(l)
    assert l.hits + l.misses == len(trace)


# ------------------------------------------- batched replay == access()
# ActiveInactiveLRU.replay has two paths: the inline per-access loop and
# the two-pointer scan kernel.  Each must match feeding the pages one by
# one through access(): hits, the victim stream, both lists in order, and
# all five counters.  The path is forced by patching the kernel threshold
# (only the kernel returns the previous-occurrence array it computed,
# which tells the paths apart).
COUNTERS = ("hits", "misses", "promotions", "demotions", "evictions")
NEVER = sys.maxsize  # an epoch length no capacity reaches

#: path -> _KERNEL_EPOCH
PATHS = {"loop": NEVER, "kernel": 1}


@contextmanager
def _replay_path(path):
    """Force a replay path; "default" keeps the real threshold."""
    with pytest.MonkeyPatch.context() as mp:
        if path != "default":
            mp.setattr(lru_mod, "_KERNEL_EPOCH", PATHS[path])
        yield


def _access_each(lru, pages):
    """Per-access reference: hit flags and the (position, victim) stream."""
    victims = []
    pos = 0
    lru.on_evict = lambda victim: victims.append((pos, victim))
    hits = []
    for pos, page in enumerate(pages.tolist()):
        hits.append(lru.access(page))
    lru.on_evict = None
    return hits, victims


def _assert_replay_matches(ref, got, pages, cuts=(), path="kernel"):
    """Replay ``pages`` into ``got`` (one call per piece between ``cuts``)
    and through ``ref.access``; both LRUs start in the same state."""
    start = {c: getattr(ref, c) - getattr(got, c) for c in COUNTERS}
    with _replay_path(path):
        for chunk in np.split(np.asarray(pages, dtype=np.int64), sorted(cuts)):
            kernel = (chunk.size > 0 and ref.active_size <= _max_active(ref)
                      and _epoch(ref) >= lru_mod._KERNEL_EPOCH)
            log = got.replay(chunk)
            hits, victims = _access_each(ref, chunk)
            assert (log.prev is not None) == kernel
            assert log.hits.tolist() == hits
            assert log.evict_pos.tolist() == [pos for pos, _ in victims]
            assert log.evict_page.tolist() == [victim for _, victim in victims]
            assert [a.tolist() for a in got.state_arrays()] == \
                [a.tolist() for a in ref.state_arrays()]
            for c in COUNTERS:
                assert getattr(ref, c) - getattr(got, c) == start[c], c


def _max_active(lru):
    return max(1, int(lru.capacity * lru.active_ratio))


def _epoch(lru):
    max_active = _max_active(lru)
    return min(lru.capacity - max_active, max_active) - 1


pages_st = st.lists(st.integers(min_value=0, max_value=60), max_size=300)
ratio_st = st.sampled_from([0.2, 0.5, 0.8])
#: page-id remaps: small ids index the kernel's state directly; negative
#: ids and ids of 2**32 or more go through np.unique first
ids_st = st.sampled_from([(1, 0), (1, -40), (1, 2**32), (2**33, -(3**25))])


def _remap(pages, ids):
    stride, base = ids
    return np.asarray(pages, dtype=np.int64) * stride + base


@pytest.mark.parametrize("path", sorted(PATHS))
@given(pages=pages_st, cap=st.integers(2, 40), ratio=ratio_st, ids=ids_st,
       cuts=st.lists(st.integers(0, 300), max_size=3))
@settings(max_examples=60, deadline=None)
def test_replay_matches_access_cold(path, pages, cap, ratio, ids, cuts):
    pages = _remap(pages, ids)
    cuts = [c for c in cuts if c <= len(pages)]
    _assert_replay_matches(ActiveInactiveLRU(cap, ratio), ActiveInactiveLRU(cap, ratio),
                           pages, cuts, path)


@pytest.mark.parametrize("path", sorted(PATHS))
@given(warm=pages_st, pages=pages_st, cap=st.integers(2, 40), ratio=ratio_st,
       ids=ids_st, cuts=st.lists(st.integers(0, 300), max_size=2))
@settings(max_examples=60, deadline=None)
def test_replay_matches_access_warm_restored(path, warm, pages, cap, ratio, ids, cuts):
    """Start from lists handed over with restore_state (the hybrid
    planner's seam handoff)."""
    ref = ActiveInactiveLRU(cap, ratio)
    for page in _remap(warm, ids).tolist():
        ref.access(page)
    got = ActiveInactiveLRU(cap, ratio)
    got.restore_state(*ref.state_arrays())
    pages = _remap(pages, ids)
    cuts = [c for c in cuts if c <= len(pages)]
    _assert_replay_matches(ref, got, pages, cuts, path)


@pytest.mark.parametrize("path", sorted(PATHS))
@given(pages=pages_st, cap=st.integers(8, 40), shrunk=st.integers(2, 39),
       ratio=ratio_st, cuts=st.lists(st.integers(0, 300), max_size=2))
@settings(max_examples=60, deadline=None)
def test_replay_matches_access_after_shrink(path, pages, cap, shrunk, ratio, cuts):
    """A shrinking resize() can leave more than max_active pages active,
    which breaks the kernel's precondition."""
    assume(shrunk < cap)
    lrus = []
    for _ in range(2):
        lru = ActiveInactiveLRU(cap, ratio)
        for page in range(cap):  # touch twice: fill the active share
            lru.access(page)
            lru.access(page)
        lru.resize(shrunk)
        lrus.append(lru)
    ref, got = lrus
    assume(ref.active_size > _max_active(ref))
    cuts = [c for c in cuts if c <= len(pages)]
    _assert_replay_matches(ref, got, pages, cuts, path)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_replay_empty_input(path):
    ref, got = ActiveInactiveLRU(16), ActiveInactiveLRU(16)
    for lru in (ref, got):
        for page in (1, 2, 2, 3):
            lru.access(page)
    _assert_replay_matches(ref, got, np.empty(0, dtype=np.int64), (), path)


@pytest.mark.parametrize("pages", [
    [4, 9],  # promote the inactive head, then a miss evicts the next one
    [0, 5],  # refresh the active head, then a promotion demotes the next one
])
def test_replay_pointer_steps_over_head_touched_just_before(pages):
    lrus = [ActiveInactiveLRU(8) for _ in range(2)]
    for lru in lrus:
        lru.restore_state(np.arange(4), np.arange(4, 8))
    _assert_replay_matches(*lrus, np.asarray(pages), path="kernel")


def test_kernel_pointer_overrun_raises_runtime_error():
    """On a state that breaks its precondition (replay() sends those to
    the loop) the kernel names the broken invariant, not an IndexError."""
    lru = ActiveInactiveLRU(16)
    for page in range(16):
        lru.access(page)
        lru.access(page)
    lru.resize(8)  # 8 active, 0 inactive; max_active is 4
    with pytest.raises(RuntimeError, match="epoch invariant"):
        lru._replay_kernel(np.arange(100, 110, dtype=np.int64), epoch=3, max_active=4)


@pytest.mark.parametrize("cap, kernel", [
    pytest.param(300, False, id="loop"),  # E = 149, a `run all`-sized cache
    pytest.param(2 * lru_mod._KERNEL_EPOCH + 4, True, id="kernel"),
])
def test_replay_kernel_at_real_threshold(cap, kernel):
    """Seeded runs through the unpatched dispatch, on either side of the
    kernel threshold (``_assert_replay_matches`` checks the path taken)."""
    rng = derive(15, "tests/mem_lru/kernel_threshold")
    hot = rng.integers(0, cap // 2, size=30_000)
    cold = rng.integers(0, 3 * cap, size=30_000)
    pages = np.where(rng.random(30_000) < 0.6, hot, cold)
    ref, got = ActiveInactiveLRU(cap), ActiveInactiveLRU(cap)
    assert (_epoch(ref) >= lru_mod._KERNEL_EPOCH) == kernel
    _assert_replay_matches(ref, got, pages, cuts=(20_000,), path="default")


# ------------------------------------------------ array form == dict form
# After a kernel replay or a restore_state the LRU holds its lists as
# read-only arrays and builds the OrderedDicts on the first per-access
# call.  Whatever comes next, it must behave exactly like a twin that
# never left dict form (every replay of the twin is per-access).
ops_st = st.lists(st.one_of(
    st.tuples(st.sampled_from(["access", "discard", "in"]), st.integers(0, 60)),
    st.tuples(st.just("resize"), st.integers(2, 40)),
    st.tuples(st.just("len"), st.just(0)),
    st.tuples(st.just("replay"), st.lists(st.integers(0, 60), max_size=80)),
), max_size=12)


def _assert_twins(got, ref):
    assert [a.tolist() for a in got.state_arrays()] == \
        [a.tolist() for a in ref.state_arrays()]
    for c in COUNTERS:
        assert getattr(got, c) == getattr(ref, c), c


@pytest.mark.parametrize("start", ["replay", "restore"])
@given(warm=pages_st, cap=st.integers(4, 40), ratio=ratio_st, ops=ops_st)
@settings(max_examples=80, deadline=None)
def test_array_form_continues_like_dict_form(start, warm, cap, ratio, ops):
    got, ref = ActiveInactiveLRU(cap, ratio), ActiveInactiveLRU(cap, ratio)
    warm = np.asarray(warm, dtype=np.int64)
    with _replay_path("kernel"):
        _access_each(ref, warm)
        if start == "replay":
            got.replay(warm)
            assume(_epoch(got) >= 1 and warm.size)  # the kernel ran
        else:
            got.restore_state(*ref.state_arrays())
            for c in COUNTERS:  # restore_state hands over the lists only
                setattr(got, c, getattr(ref, c))
        assert got._arrays is not None  # array form
        _assert_twins(got, ref)
        for op, arg in ops:
            if op == "access":
                assert got.access(arg) == ref.access(arg)
            elif op == "discard":
                assert got.discard(arg) == ref.discard(arg)
            elif op == "in":
                assert (arg in got) == (arg in ref)
            elif op == "resize":
                got.resize(arg)
                ref.resize(arg)
            elif op == "len":
                assert len(got) == len(ref)
                assert (got.active_size, got.inactive_size) == \
                    (ref.active_size, ref.inactive_size)
            else:
                pages = np.asarray(arg, dtype=np.int64)
                log = got.replay(pages)
                hits, victims = _access_each(ref, pages)
                assert log.hits.tolist() == hits
                assert log.evict_page.tolist() == [v for _, v in victims]
            _assert_twins(got, ref)


@pytest.mark.parametrize("form", ["dict", "array"])
def test_state_arrays_cannot_write_into_the_lru(form):
    lru = ActiveInactiveLRU(8)
    for page in (1, 2, 2, 3):
        lru.access(page)
    if form == "array":
        lru.restore_state(*lru.state_arrays())
    before = [a.tolist() for a in lru.state_arrays()]
    for a in lru.state_arrays():
        with pytest.raises(ValueError):
            a[0] = 99
    assert [a.tolist() for a in lru.state_arrays()] == before
    # a writable array handed in is copied: writing to it later leaves
    # the LRU alone
    active, inactive = np.array([2]), np.array([1, 3])
    lru.restore_state(active, inactive)
    active[0] = inactive[0] = 99
    assert [a.tolist() for a in lru.state_arrays()] == [[2], [1, 3]]
