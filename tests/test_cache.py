"""Persistent artifact cache: round-trips, key invalidation, corruption.

The cache must be invisible except for speed: loading an entry has to
reproduce the synthesized trace and fused features exactly, any change to
the identity (scale, seed, spec params, code versions) must miss, and a
corrupted entry must be dropped and regenerated rather than crash or —
worse — serve garbage.
"""

import os

import numpy as np
import pytest

from repro import cache
from repro.cli import main
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import run_experiment
from repro.workloads import get_workload

SCALE = 0.02


@pytest.fixture
def cache_tmp(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def fresh_workload(name="stream"):
    """A Workload instance with empty in-memory caches (same spec/synth)."""
    w = get_workload(name)
    return type(w)(w.spec, w._synth)


def test_trace_round_trip_across_instances(cache_tmp):
    first = fresh_workload().trace(SCALE, seed=3)
    again = fresh_workload().trace(SCALE, seed=3)
    np.testing.assert_array_equal(first.data, again.data)
    # the second instance was served from disk, not re-synthesized
    hits, _ = cache.cache_stats()
    assert hits >= 1


def test_features_round_trip_across_instances(cache_tmp):
    first = fresh_workload().features(SCALE, seed=3)
    again = fresh_workload().features(SCALE, seed=3)
    for name in ("n_accesses", "footprint_pages", "anon_ratio", "load_ratio",
                 "fragment_ratio", "seq_access_ratio", "max_seq_run",
                 "hot_data_ratio", "interleave_ratio", "reuse_intensity"):
        assert getattr(first, name) == getattr(again, name), name
        assert type(getattr(first, name)) is type(getattr(again, name)), name
    np.testing.assert_array_equal(first.mrc.histogram, again.mrc.histogram)
    assert first.mrc.cold_misses == again.mrc.cold_misses
    assert first.mrc.n_accesses == again.mrc.n_accesses
    # MRC answers must match at every size, not just store the same arrays
    for c in (0, 1, 7, 10_000):
        assert first.mrc.misses(c) == again.mrc.misses(c)


def test_scale_seed_and_spec_change_the_key():
    spec = get_workload("stream").spec
    base = cache.features_key(spec, 0.1, 1)
    assert cache.features_key(spec, 0.2, 1) != base
    assert cache.features_key(spec, 0.1, 2) != base
    other = get_workload("kmeans").spec
    assert cache.features_key(other, 0.1, 1) != base


def test_version_bump_invalidates_features(cache_tmp, monkeypatch):
    w = fresh_workload()
    w.features(SCALE, seed=1)
    h0, m0 = cache.cache_stats()
    monkeypatch.setattr(cache, "KERNEL_VERSION", cache.KERNEL_VERSION + 1)
    fresh_workload().features(SCALE, seed=1)
    _, m1 = cache.cache_stats()
    assert m1 > m0  # new kernel version never sees the old entry


def test_corrupted_entry_is_dropped_and_regenerated(cache_tmp):
    expect = fresh_workload().trace(SCALE, seed=5)
    entries = sorted((cache_tmp / "v1").glob("trace-*.npz"))
    assert entries
    for path in entries:
        path.write_bytes(b"this is not an npz archive")
    again = fresh_workload().trace(SCALE, seed=5)
    np.testing.assert_array_equal(expect.data, again.data)
    # the corrupt files were unlinked and rewritten with valid payloads
    for path in sorted((cache_tmp / "v1").glob("trace-*.npz")):
        with np.load(path, allow_pickle=False) as npz:
            assert "trace" in npz


def test_disabled_cache_never_touches_disk(cache_tmp, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not cache.cache_enabled()
    fresh_workload().trace(SCALE, seed=9)
    assert not any(cache_tmp.iterdir())


def test_info_and_clear(cache_tmp):
    fresh_workload().features(SCALE, seed=11)
    info = cache.cache_info()
    assert info["dir"] == str(cache_tmp)
    assert info["entries"] == 2  # one trace + one features entry
    assert info["kinds"] == {"trace": 1, "features": 1}
    assert info["bytes"] > 0
    assert cache.clear_cache() == 2
    assert cache.cache_info()["entries"] == 0


def test_info_counts_and_clear_reclaims_stray_temp_files(cache_tmp, capsys):
    """A writer killed mid-write leaves its ``_atomic_write`` temp file
    behind: info counts it and clear reclaims it, while a fresh one (a
    write in flight) survives.  Info also reports bytes per kind."""
    fresh_workload().trace(SCALE, seed=12)
    layout = cache_tmp / "v1"
    stray = layout / "tmpdead.tmp"
    stray.write_bytes(b"x" * 100)
    aged = stray.stat().st_mtime - 2 * cache._STALE_TMP_S
    os.utime(stray, (aged, aged))
    live = layout / "tmplive.tmp"
    live.write_bytes(b"y" * 10)
    info = cache.cache_info()
    assert (info["temp_files"], info["temp_bytes"]) == (2, 110)
    trace_bytes = sum(p.stat().st_size for p in layout.glob("trace-*"))
    assert info["kind_bytes"] == {"trace": trace_bytes}
    assert info["bytes"] == trace_bytes + 110
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert f"trace: 1 ({trace_bytes / 1e6:.1f} MB)" in out
    assert "temp files: 2" in out
    assert cache.clear_cache() == 1
    assert not stray.exists() and live.exists()
    assert cache.cache_info()["temp_files"] == 1


#: every experiment whose batch replays classify through ``classify_trace``
CLASSIFYING = ("fig04", "fig17", "tenant_scaling", "des_validation",
               "replay_validation", "failover_study")


def test_persisted_classifications_change_no_output(cache_tmp, monkeypatch):
    """The classifying experiments render identically with the cache off,
    cold and warm.  At scale 0.1 each of them classifies slices over
    ``_CACHE_MIN_ANON``, and warm, each loads every classification it
    asks the cache for from a replay entry."""
    lookups = []
    real_load = cache.load_replay

    def counted_load(*args):
        hit = real_load(*args)
        lookups.append(hit is not None)
        return hit

    monkeypatch.setattr(cache, "load_replay", counted_load)

    def render(name):
        return run_experiment(name, ExperimentContext(scale=0.1)).render()

    monkeypatch.setenv("REPRO_CACHE", "0")
    off = {name: render(name) for name in CLASSIFYING}
    assert lookups == []
    monkeypatch.delenv("REPRO_CACHE")
    for name in CLASSIFYING:  # cold
        assert render(name) == off[name], name
    assert list((cache_tmp / "v1").glob("replay-*.npz"))
    for name in CLASSIFYING:  # warm
        lookups.clear()
        assert render(name) == off[name], name
        assert lookups and all(lookups), name
