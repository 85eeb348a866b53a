"""Replay validation: cache keys, successive halving, model fidelity.

Covers the artifact-cache key for replay-validated points (every config
field changes the key), the store/load round trip, the successive-halving
schedule, cross-run dedupe (a repeated shortlist pays zero replays), and
the model-vs-replay ranking tolerance band: on cache-unfriendly random
traffic the model's pick measures as the replay's best (ratio 1.0); on
sequential traffic — where the DES replay charges readahead rather than
the model's wide asynchronous streams — the pick stays within 2.2× of the
measured best.  The band is stated in DESIGN.md §3.4.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import cache
from repro.core.config import xdm_config
from repro.devices import NVMeSSD, RDMANic
from repro.devices.registry import BackendKind
from repro.errors import ConfigurationError
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap import ChannelMode, PathType, SwapConfig, SwapPathModel
from repro.trace import fuse
from repro.tune import TuneStats, VectorCostModel, validate_shortlist
from repro.units import PAGE_SIZE
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses

__all__: list[str] = []


@pytest.fixture
def cache_tmp(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def _trace(seed=3, n_pages=400, kind="zipf", store=0.3, alpha=1.1):
    rng = derive(seed, "tests/tune-validate")
    if kind == "seq":
        pages = sequential_scan(n_pages, passes=3)
    else:
        pages = zipf_accesses(rng, n_pages, n_pages * 4, alpha=alpha)
    return assemble(rng, pages, anon_ratio=1.0, store_ratio=store)


# -- cache key ---------------------------------------------------------------

def test_tune_key_covers_every_config_field():
    base_cfg = xdm_config()
    base = cache.tune_key("d0", "rdma", 100, 0.5, base_cfg)
    variants = [
        cache.tune_key("d1", "rdma", 100, 0.5, base_cfg),
        cache.tune_key("d0", "ssd", 100, 0.5, base_cfg),
        cache.tune_key("d0", "rdma", 101, 0.5, base_cfg),
        cache.tune_key("d0", "rdma", 100, 0.6, base_cfg),
        cache.tune_key("d0", "rdma", 100, 0.5, xdm_config(granularity=8 * PAGE_SIZE)),
        cache.tune_key("d0", "rdma", 100, 0.5, xdm_config(io_width=4)),
        cache.tune_key("d0", "rdma", 100, 0.5, SwapConfig(readahead_pages=2)),
        cache.tune_key("d0", "rdma", 100, 0.5, SwapConfig(max_readahead_pages=128)),
        cache.tune_key("d0", "rdma", 100, 0.5, SwapConfig(merge_pages=8)),
        cache.tune_key("d0", "rdma", 100, 0.5, SwapConfig(path=PathType.HIERARCHICAL)),
        cache.tune_key("d0", "rdma", 100, 0.5,
                       SwapConfig(channel=ChannelMode.SHARED, co_tenants=1)),
        cache.tune_key("d0", "rdma", 100, 0.5, xdm_config(co_tenants=2)),
        cache.tune_key("d0", "rdma", 100, 0.5, SwapConfig(synchronous_faults=False)),
    ]
    seen = {tuple(sorted(base.items()))}
    for v in variants:
        t = tuple(sorted(v.items()))
        assert t not in seen, f"key collision: {v}"
        seen.add(t)


def test_tune_key_tracks_engine_versions(monkeypatch):
    cfg = xdm_config()
    base = cache.tune_key("d0", "rdma", 100, 0.5, cfg)
    monkeypatch.setattr(cache, "KERNEL_VERSION", cache.KERNEL_VERSION + 1)
    assert cache.tune_key("d0", "rdma", 100, 0.5, cfg) != base


def test_store_load_round_trip(cache_tmp):
    from repro.devices.registry import make_device
    from repro.swap.executor import SwapExecutor

    trace = _trace()
    sim = Simulator()
    device = make_device(sim, BackendKind.RDMA)
    executor = SwapExecutor(sim, device, BackendKind.RDMA, local_pages=50,
                            config=xdm_config())
    result = executor.run(trace)
    digest = trace.content_digest()
    cache.store_tune_point(digest, "rdma", 50, 0.5, xdm_config(), result)
    loaded = cache.load_tune_point(digest, "rdma", 50, 0.5, xdm_config())
    assert loaded is not None
    assert loaded["sim_time"] == result.sim_time  # simlint: ignore[UNIT002] -- byte-for-byte cache round trip is the point
    for name in ("accesses", "hits", "faults", "swap_ins", "swap_outs"):
        assert loaded[name] == getattr(result, name)
    # different ratio -> distinct entry -> miss
    assert cache.load_tune_point(digest, "rdma", 50, 0.6, xdm_config()) is None


# -- successive halving ------------------------------------------------------

def test_validate_shortlist_halving_schedule(cache_tmp):
    trace = _trace()
    cands = [(xdm_config(granularity=g * PAGE_SIZE), 50, 0.5) for g in (1, 4, 16, 64)]
    stats = TuneStats()
    points = validate_shortlist(trace, BackendKind.RDMA, cands, stats=stats)
    # 4 -> 2 -> 1 survivors over the three default rungs: 4+2+1 replays
    assert stats.replay_runs == 7
    assert stats.replay_cache_hits == 0
    # final rung reached full validation window, sorted best-first
    assert len(points) == 1
    assert points[0].prefix == len(trace)
    assert not points[0].cached


def test_validate_shortlist_results_sorted_by_measured_time(cache_tmp):
    trace = _trace()
    cands = [(xdm_config(granularity=g * PAGE_SIZE, io_width=w), 50, 0.5)
             for g in (1, 16) for w in (1, 4)]
    points = validate_shortlist(trace, BackendKind.RDMA, cands,
                                stats=TuneStats(), rungs=(1.0,))
    times = [p.sim_time for p in points]
    assert len(points) == 4  # single rung: nobody is dropped
    assert times == sorted(times)


def test_validate_shortlist_dedupes_across_runs(cache_tmp):
    trace = _trace()
    cands = [(xdm_config(granularity=g * PAGE_SIZE), 50, 0.5) for g in (1, 4, 16)]
    first = TuneStats()
    cold = validate_shortlist(trace, BackendKind.RDMA, cands, stats=first)
    assert first.replay_runs > 0
    second = TuneStats()
    warm = validate_shortlist(trace, BackendKind.RDMA, cands, stats=second)
    # the repeated shortlist pays zero replays and reproduces the result
    assert second.replay_runs == 0
    assert second.replay_cache_hits == first.replay_runs
    assert [(p.config, p.sim_time, p.faults) for p in warm] == (
        [(p.config, p.sim_time, p.faults) for p in cold]
    )
    assert all(p.cached for p in warm)


def test_validate_shortlist_max_accesses_caps_window(cache_tmp):
    trace = _trace(n_pages=300)
    points = validate_shortlist(
        trace, BackendKind.RDMA, [(xdm_config(), 40, 0.5)],
        stats=TuneStats(), rungs=(1.0,), max_accesses=200,
    )
    assert points[0].prefix == 200


def test_validate_shortlist_validation_errors():
    trace = _trace(n_pages=64)
    with pytest.raises(ConfigurationError):
        validate_shortlist(trace, BackendKind.RDMA, [])
    with pytest.raises(ConfigurationError):
        validate_shortlist(trace, BackendKind.RDMA, [(xdm_config(), 10, 0.5)],
                           rungs=(0.5, 0.25))
    with pytest.raises(ConfigurationError):
        validate_shortlist(trace, BackendKind.RDMA, [(xdm_config(), 10, 0.5)],
                           rungs=(0.0, 1.0))


# -- model-vs-replay fidelity ------------------------------------------------

def _model_pick_vs_measured_best(trace, device_cls, kind, local):
    """(measured time of the model's pick) / (best measured time)."""
    f = fuse(trace)
    model = SwapPathModel(device_cls(Simulator()), f, fault_parallelism=8)
    cands = [xdm_config(granularity=g * PAGE_SIZE, io_width=w)
             for g in (1, 4, 16) for w in (1, 4)]
    vcm = VectorCostModel(model, xdm_config())
    batch = vcm.evaluate(
        np.int64(local),
        np.array([c.granularity for c in cands]),
        np.array([c.io_width for c in cands]),
    )
    points = validate_shortlist(trace, kind, [(c, local, 0.5) for c in cands],
                                stats=TuneStats(), rungs=(1.0,))
    measured = {(p.config.granularity, p.config.io_width): p.sim_time
                for p in points}
    mm = np.array([measured[(c.granularity, c.io_width)] for c in cands])
    if mm.min() <= 0.0:
        return None  # fault-free run: nothing to rank
    return float(mm[batch.argmin("sys_time")] / mm.min())


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_pages=st.integers(200, 700),
    alpha=st.floats(0.95, 1.4),
    store=st.floats(0.0, 0.6),
    frac=st.floats(0.2, 0.6),
)
def test_model_ranking_matches_replay_on_random_traffic(
    seed, n_pages, alpha, store, frac
):
    # no cache_tmp fixture: hypothesis reuses the function scope, and the
    # session conftest already redirects the cache to a temp dir
    trace = _trace(seed=seed, n_pages=n_pages, store=store, alpha=alpha)
    ratio = _model_pick_vs_measured_best(
        trace, RDMANic, BackendKind.RDMA, max(2, int(n_pages * frac))
    )
    assume(ratio is not None)
    # random traffic: model and replay agree on the winner outright
    assert ratio <= 1.05


@pytest.mark.parametrize("device_cls,kind",
                         [(RDMANic, BackendKind.RDMA), (NVMeSSD, BackendKind.SSD)])
def test_model_pick_within_band_on_sequential_traffic(cache_tmp, device_cls, kind):
    trace = _trace(seed=9, n_pages=500, kind="seq", store=0.3)
    ratio = _model_pick_vs_measured_best(trace, device_cls, kind, 150)
    assert ratio is not None
    # sequential traffic: the replay charges readahead where the model
    # prices wide async streams — the pick stays inside the stated band
    assert ratio <= 2.2
