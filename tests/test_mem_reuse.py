"""Unit + property tests for the reuse-distance engine.

The central invariant: for every cache size C, the analytic
MissRatioCurve must agree *exactly* with a brute-force LRU simulation —
Mattson's stack property is what lets the whole library sweep
far-memory ratios in O(1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.mem import MissRatioCurve, reuse_distances
from repro.mem.reuse import COLD
from tests.oracles import LRUCache


def test_distances_simple_sequence():
    # trace: a b a c b a
    d = reuse_distances(np.array([0, 1, 0, 2, 1, 0]))
    assert d[0] == COLD  # a cold
    assert d[1] == COLD  # b cold
    assert d[2] == 1     # a: {b} since last a
    assert d[3] == COLD  # c cold
    assert d[4] == 2     # b: {a, c}
    assert d[5] == 2     # a: {c, b}


def test_immediate_rereference_is_distance_zero():
    d = reuse_distances(np.array([5, 5, 5]))
    assert d[0] == COLD
    assert d[1] == 0
    assert d[2] == 0


def test_distances_empty_trace():
    assert reuse_distances(np.array([], dtype=np.int64)).shape == (0,)


def test_distances_validate_input():
    with pytest.raises(TraceError):
        reuse_distances(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(TraceError):
        reuse_distances(np.array([0.5, 1.5]))


def test_mrc_requires_exactly_one_input():
    with pytest.raises(TraceError):
        MissRatioCurve()
    with pytest.raises(TraceError):
        MissRatioCurve(pages=np.array([1]), distances=np.array([COLD]))


def test_mrc_basic_counts():
    trace = np.array([0, 1, 0, 2, 1, 0])
    mrc = MissRatioCurve(pages=trace)
    assert mrc.n_accesses == 6
    assert mrc.cold_misses == 3
    assert mrc.n_pages == 3
    # cache of 3 pages holds everything: only cold misses remain
    assert mrc.misses(3) == 3
    assert mrc.capacity_misses(3) == 0
    # cache of 0: everything misses
    assert mrc.misses(0) == 6


def test_mrc_monotone_in_cache_size():
    rng = np.random.default_rng(7)
    trace = rng.integers(0, 50, size=2000)
    mrc = MissRatioCurve(pages=trace)
    misses = [mrc.misses(c) for c in range(0, 60)]
    assert all(a >= b for a, b in zip(misses, misses[1:]))


def test_mrc_working_set_size():
    # 90% of hits achievable with the hot page alone
    trace = np.array([0] * 98 + [1, 2])
    mrc = MissRatioCurve(pages=trace)
    assert mrc.working_set_size(0.9) == 1


def test_mrc_working_set_empty_trace():
    mrc = MissRatioCurve(pages=np.array([], dtype=np.int64))
    assert mrc.working_set_size() == 0
    assert mrc.miss_ratio(10) == 0.0


def test_mrc_min_local_pages_for_max_misses():
    trace = np.array([0, 1, 0, 2, 1, 0])
    mrc = MissRatioCurve(pages=trace)
    # allowing all 6 misses: no cache needed
    assert mrc.min_local_pages_for_max_misses(6) == 0
    # allowing only the 3 cold misses: need the full 3-page working set
    c = mrc.min_local_pages_for_max_misses(3)
    assert mrc.misses(c) <= 3
    # impossible budget (< cold misses): falls back to full residency
    assert mrc.min_local_pages_for_max_misses(1) == mrc.n_pages


def test_mrc_validates():
    mrc = MissRatioCurve(pages=np.array([0, 1]))
    with pytest.raises(ValueError):
        mrc.hits(-1)
    with pytest.raises(ValueError):
        mrc.working_set_size(1.5)
    with pytest.raises(ValueError):
        mrc.min_local_pages_for_max_misses(-1)


@given(
    st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=80, deadline=None)
def test_mrc_matches_bruteforce_lru(trace, cache_size):
    """Mattson: analytic misses == simulated exact-LRU misses, every size."""
    arr = np.asarray(trace, dtype=np.int64)
    mrc = MissRatioCurve(pages=arr)
    sim = LRUCache(cache_size)
    for p in trace:
        sim.access(p)
    assert mrc.misses(cache_size) == sim.misses


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_distances_bounded_by_distinct_pages(trace):
    arr = np.asarray(trace, dtype=np.int64)
    d = reuse_distances(arr)
    finite = d[d != COLD]
    if finite.size:
        assert finite.max() < len(set(trace))
    assert int((d == COLD).sum()) == len(set(trace))
