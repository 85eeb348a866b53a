"""Equivalence tests between the reuse-distance kernel and its oracle.

The vectorized divide-and-conquer kernel and the Fenwick reference loop
(``tests/oracles.py``) must produce bit-identical distances and
histograms on every input — the Fenwick loop is the independent oracle
that lets the vector kernel's level machinery (direct-compare tiers,
packed-key sorts, pad rows) be trusted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.mem import reuse as reuse_mod
from repro.mem.reuse import (
    COLD,
    _reuse_distances_vector,
    reuse_distances,
    reuse_histogram,
)
from tests.oracles import reuse_distances_fenwick

# fixed adversarial traces: each stresses a different kernel code path
ADVERSARIAL = {
    "empty": np.array([], dtype=np.int64),
    "single": np.array([42]),
    "single_page_repeated": np.full(257, 7),
    "all_distinct": np.arange(300),
    "all_distinct_reversed": np.arange(300)[::-1].copy(),
    "sawtooth": np.tile(np.arange(17), 23),
    "inverted_sawtooth": np.tile(np.arange(17)[::-1], 23),
    "two_alternating": np.tile(np.array([3, 9]), 150),
    # sizes straddling the direct-level / sorted-level boundary and
    # power-of-two row widths
    "pow2_minus": np.tile(np.arange(5), 3)[:15],
    "pow2_exact": np.tile(np.arange(5), 4)[:16],
    "pow2_plus": np.tile(np.arange(5), 4)[:17],
    "negative_ids": np.array([-5, -1, -5, 3, -1, -5, 3, -5]),
    # huge ids overflow the composite page*n+t pack -> stable-argsort path
    "huge_ids": np.array([2**62, 1, 2**62, 2**61, 1, 2**62]),
    "zipf_like": np.repeat(np.arange(40), np.arange(40, 0, -1))[::3],
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_kernels_agree_on_adversarial_traces(name):
    pages = ADVERSARIAL[name]
    np.testing.assert_array_equal(
        _reuse_distances_vector(pages), reuse_distances_fenwick(pages)
    )


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_histogram_matches_distances(name):
    pages = ADVERSARIAL[name]
    d = reuse_distances(pages)
    warm = d[d != COLD]
    hist, cold, n = reuse_histogram(pages)
    assert n == len(pages)
    assert cold == int((d == COLD).sum())
    expect = np.bincount(warm) if warm.size else np.zeros(1, dtype=np.int64)
    np.testing.assert_array_equal(hist, expect)


def test_overlong_trace_rejected(monkeypatch):
    # past the limit the packed int64 sort keys would overflow; the limit
    # (2**31 accesses) is lowered here so the check runs on a small trace
    monkeypatch.setattr(reuse_mod, "_MAX_ACCESSES", 8)
    pages = np.tile(np.arange(3), 3)
    for kernel in (reuse_distances, reuse_histogram):
        with pytest.raises(TraceError):
            kernel(pages)
    assert reuse_histogram(pages[:8])[2] == 8


@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=400))
@settings(max_examples=120, deadline=None)
def test_kernels_agree_on_random_traces(trace):
    pages = np.asarray(trace, dtype=np.int64)
    np.testing.assert_array_equal(
        _reuse_distances_vector(pages), reuse_distances_fenwick(pages)
    )


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=500),
)
@settings(max_examples=25, deadline=None)
def test_kernels_agree_on_seeded_bulk_traces(seed, size, pages_distinct):
    """Larger seeded traces drive the sorted-level (4-way merge) machinery."""
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, pages_distinct, size=size)
    np.testing.assert_array_equal(
        _reuse_distances_vector(pages), reuse_distances_fenwick(pages)
    )
