"""Unit tests for the workload layer: generators, suite, and specs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.trace.analysis import fragment_ratio, sequential_stats
from repro.workloads import (
    TABLE_V,
    WORKLOAD_NAMES,
    WorkloadCategory,
    fragment_footprint,
    get_workload,
    hot_cold_accesses,
    phase_mix,
    sequential_scan,
    strided_scan,
    swap_friendly_names,
    swap_sensitive_names,
    zipf_accesses,
)
from repro.workloads.base import WorkloadSpec

SCALE = 0.15


# -------------------------------------------------------------- generators
def test_sequential_scan_shape():
    s = sequential_scan(10, passes=3, start=100)
    assert s.shape == (30,)
    assert s.min() == 100 and s.max() == 109
    with pytest.raises(ValueError):
        sequential_scan(0)


def test_strided_scan_covers_all_pages():
    s = strided_scan(12, stride=4)
    assert sorted(set(s.tolist())) == list(range(12))
    with pytest.raises(ValueError):
        strided_scan(10, stride=0)


def test_zipf_accesses_skew():
    rng = np.random.default_rng(0)
    pages = zipf_accesses(rng, 1000, 20000, alpha=1.5)
    _, counts = np.unique(pages, return_counts=True)
    counts.sort()
    # the hottest page absorbs far more than a uniform share
    assert counts[-1] > 20000 / 1000 * 10
    with pytest.raises(ValueError):
        zipf_accesses(rng, 10, 5, alpha=0.0)


def test_hot_cold_accesses_concentration():
    rng = np.random.default_rng(1)
    pages = hot_cold_accesses(rng, 1000, 10000, hot_fraction=0.1, hot_probability=0.9)
    hot_hits = (pages < 100).mean()
    assert 0.85 < hot_hits < 0.95
    with pytest.raises(ValueError):
        hot_cold_accesses(rng, 10, 5, hot_fraction=0.0)


def test_phase_mix_preserves_order():
    mixed = phase_mix([np.array([1, 2]), np.array([9])])
    assert mixed.tolist() == [1, 2, 9]
    assert phase_mix([]).size == 0


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_fragment_footprint_controls_fragmentation(frac):
    rng = np.random.default_rng(3)
    pages = sequential_scan(2048, passes=1)
    remapped = fragment_footprint(rng, pages, contiguous_fraction=frac)
    # footprint size is preserved exactly (it is a bijection)
    assert len(set(remapped.tolist())) == 2048
    measured = fragment_ratio(remapped, min_segment_pages=16)
    assert measured == pytest.approx(frac, abs=0.12)


def test_fragment_footprint_degrades_runs_consistently():
    rng = np.random.default_rng(4)
    pages = sequential_scan(2048, passes=1)
    seq_full = sequential_stats(fragment_footprint(rng, pages, 1.0)).seq_access_ratio
    seq_half = sequential_stats(fragment_footprint(rng, pages, 0.5)).seq_access_ratio
    seq_none = sequential_stats(fragment_footprint(rng, pages, 0.0)).seq_access_ratio
    assert seq_full > seq_half > seq_none


# --------------------------------------------------------------------- suite
def test_suite_has_all_17_table_v_workloads():
    assert len(WORKLOAD_NAMES) == 17
    expected = {
        "stream", "lpk", "kmeans", "sort", "sp-pg", "gg-pre", "gg-bfs",
        "lg-bfs", "lg-bc", "lg-comp", "lg-mis", "tf-infer", "tf-incep",
        "tf-tc", "bert", "clip", "chat-int",
    }
    assert set(WORKLOAD_NAMES) == expected


def test_sf_partition_matches_table_vi():
    friendly = set(swap_friendly_names())
    sensitive = set(swap_sensitive_names())
    assert friendly | sensitive == set(WORKLOAD_NAMES)
    assert not friendly & sensitive
    assert "chat-int" in friendly and "sort" in sensitive


def test_get_workload_unknown():
    with pytest.raises(ConfigurationError):
        get_workload("memcached")


def test_traces_are_deterministic_and_cached():
    w = get_workload("lpk")
    t1 = w.trace(SCALE, seed=5)
    t2 = w.trace(SCALE, seed=5)
    assert t1 is t2  # cache hit
    fresh = get_workload("lpk").trace(SCALE, seed=6)
    assert len(fresh) > 0


def test_every_workload_synthesizes_sane_traces():
    for name, w in TABLE_V.items():
        f = w.features(SCALE)
        assert f.n_accesses > 100, name
        assert f.footprint_pages > 16, name
        assert 0.3 <= f.anon_ratio <= 1.0, name
        assert w.compute_time(SCALE) > 0, name


def test_category_assignment():
    assert TABLE_V["stream"].spec.category is WorkloadCategory.COMPUTE
    assert TABLE_V["lg-bfs"].spec.category is WorkloadCategory.GRAPH
    assert TABLE_V["bert"].spec.category is WorkloadCategory.AI


def test_characteristic_contrasts_the_policies_rely_on():
    """The suite must provide the contrasts every console decision keys on."""
    f = {n: w.features(SCALE) for n, w in TABLE_V.items()}
    assert f["stream"].seq_access_ratio > 0.9 > f["sort"].seq_access_ratio
    assert f["chat-int"].interleave_ratio > 0.5 > f["stream"].interleave_ratio
    assert f["sp-pg"].fragment_ratio < 0.75 <= f["stream"].fragment_ratio
    assert f["gg-bfs"].anon_ratio < 0.7 < f["lg-bfs"].anon_ratio


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        WorkloadSpec("x", WorkloadCategory.COMPUTE, "", 0, "S", 1e-6, 0.5)
    with pytest.raises(ConfigurationError):
        WorkloadSpec("x", WorkloadCategory.COMPUTE, "", 1, "Q", 1e-6, 0.5)
    with pytest.raises(ConfigurationError):
        WorkloadSpec("x", WorkloadCategory.COMPUTE, "", 1, "S", 1e-6, 1.5)
    # NaN passes a plain `<` range check, so it is an input of its own
    for bad in (0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("x", WorkloadCategory.COMPUTE, "", 1, "S", 1e-6, 0.5,
                         fault_parallelism=bad)
    for bad in (-1e-6, float("nan")):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("x", WorkloadCategory.COMPUTE, "", 1, "S", bad, 0.5)


def test_scale_validation():
    with pytest.raises(ConfigurationError):
        get_workload("stream").trace(scale=0.0)
