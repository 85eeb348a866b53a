"""Integration tests: every paper experiment runs and keeps its shape.

These assert the *qualitative* reproduction claims (who wins, by roughly
what factor, where crossovers fall) — not the paper's absolute numbers.
A module-scoped context keeps the whole file to one feature pass per
workload.
"""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentContext, fig17
from repro.experiments.contention import anon_local_pages
from repro.swap import replay as replay_mod
from repro.swap.replay import ClassificationMemo

SCALE = 0.25


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=SCALE)


@pytest.fixture(scope="module")
def results(ctx):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = EXPERIMENTS[name](ctx)
        return cache[name]

    return get


def test_all_experiments_run_and_render(results):
    for name in EXPERIMENTS:
        res = results(name)
        assert res.rows, f"{name} produced no rows"
        text = res.render()
        assert name in text and res.title in text
        assert res.to_csv().count("\n") == len(res.rows) + 1


def test_fig01b_gap(results):
    m = results("fig01b").metrics
    assert m["min_GBps"] == pytest.approx(7.9)
    assert m["max_GBps"] == pytest.approx(46.0)
    assert m["best_single_device_utilization"] < 1.0


def test_fig02b_latency_ordering(results):
    m = results("fig02b").metrics
    assert m["monotone_ordering"] == 1.0
    assert m["hdd_over_ssd"] > 10
    assert m["ssd_over_rdma"] > 3
    assert m["rdma_over_dram"] > 1


def test_fig03_doubling_trend(results):
    m = results("fig03").metrics
    assert 2.5 < m["doubling_period_years"] < 5.0


def test_fig04_multipath_wins(results):
    m = results("fig04").metrics
    assert m["mean_speedup"] > 1.5
    # measured column: sharing one device costs something, but far less
    # than the full hierarchical-path penalty
    assert 1.0 <= m["mean_measured_contention"] < m["mean_speedup"]


def test_fig05_granularity_and_width(results):
    m = results("fig05").metrics
    # contiguous data benefits from bigger units; fragmented prefers 4K
    assert m["contiguous_gain_4k_to_1m"] > 1.2
    assert m["fragmented_best_unit_kib"] <= 16
    # parallel graph load gains from width; serial decoders gain less
    assert m["width_gain_lg-bfs"] > m["width_gain_bert"]


def test_fig08_backend_preferences(results):
    res = results("fig08")
    choice = {row[0]: row[5] for row in res.rows}
    # the paper's four exemplars
    assert choice["lg-bc"] == "rdma"
    assert choice["sort"] == "rdma"
    assert choice["gg-bfs"] == "ssd"
    assert choice["lpk"] == "ssd"


def test_fig10_11_characteristics(results):
    m = results("fig10_11").metrics
    assert m["stream_fragment_ratio"] > 0.9
    assert m["sp_pg_fragment_ratio"] < 0.7
    assert m["stream_seq_ratio"] > 0.9
    assert m["sort_seq_ratio"] < 0.2


def test_fig12_numa_spread(results):
    m = results("fig12").metrics
    assert m["stream_slowdown"] > m["tf_infer_slowdown"]
    assert m["spread"] > 0.2


def test_table06_shape(results):
    m = results("table06").metrics
    # most workloads classify as the paper does
    assert m["classification_matches"] >= 13
    # per-backend maxima in the right band and order (RDMA largest)
    assert 1.5 < m["max_speedup_ssd"] < 4.0
    assert 1.5 < m["max_speedup_dram"] < 5.0
    assert 2.0 < m["max_speedup_rdma"] < 6.0
    assert m["max_speedup_rdma"] > m["max_speedup_ssd"]


def test_table06_no_catastrophic_regression(results):
    res = results("table06")
    for row in res.rows:
        for col in (2, 4, 6):  # dram, ssd, rdma model columns
            assert row[col] > 0.7, f"{row[0]} regresses badly: {row[col]}"


def test_fig14_xdm_beats_tmo(results):
    m = results("fig14").metrics
    # multi-backend xDM clearly beats single-SSD TMO somewhere, in band
    assert 1.5 < m["max_xdm_rdma"] < 8.0
    assert m["max_xdm_ssd"] > 1.2
    assert m["max_xdm_hetero"] > 1.2
    # disk-based Linux swap is far worse than SSD-based TMO
    assert m["max_linux_swap"] < 1.0


def test_table07_saturation(results):
    res = results("table07")
    verdicts = res.column("verdict")
    assert all(v == "Full" for v in verdicts)


def test_fig15_offload_monotone_and_better(results):
    res = results("fig15")
    m = res.metrics
    assert m["mean_extra_offload"] > 0.0       # xDM offloads more on average
    assert m["max_extra_offload"] >= 0.4       # paper: up to 54% reduction
    for row in res.rows:
        xdm = [row[i] for i in (1, 3, 5, 7)]
        assert all(a <= b + 1e-9 for a, b in zip(xdm, xdm[1:])), \
            f"{row[0]}: offload not monotone in SLO"


def test_fig16_throughput_gains(results):
    m = results("fig16").metrics
    assert 3.0 < m["max_gain"] < 8.0           # paper: up to 5.6x
    assert m["best_at_slo_1.8"] >= m["best_at_slo_1.2"]
    res = results("fig16")
    # more swap-friendly tasks -> more throughput (compare extreme rows)
    first, last = res.rows[0], res.rows[-1]
    assert last[-1] >= first[-1]


def test_fig17_isolation(results):
    res = results("fig17")
    m = res.metrics
    assert 1.3 < m["mean_isolation_speedup"] < 2.2   # paper: ~1.7x
    # measured replay: oversubscribed shared device visibly hurts per-op
    # latency, same ballpark as the analytic isolation claim
    assert 1.2 < m["mean_measured_contention"] < 3.0
    for row in res.rows:
        assert row[1] > row[3]                 # shared worse than vm-isolated
        assert 0.9 < row[5] < 1.2              # vm-isolated ~ isolated
        assert row[7] >= 1.0 - 1e-9            # sharing never helps the probe


def test_fig17_classifies_each_neighbour_family_once(ctx, results, monkeypatch):
    """Probes that share a noisy neighbour share one classification memo:
    each family's distinct (digest, capacity) is classified once, where
    one memo per probe classifies every probe's slices again, and the
    rows equal that per-probe run's."""
    calls = []
    real_classify = replay_mod.classify_trace

    def counted(trace, capacity, active_ratio=0.5, **kw):
        calls.append((trace.content_digest(), capacity))
        return real_classify(trace, capacity, active_ratio, **kw)

    monkeypatch.setattr(replay_mod, "classify_trace", counted)
    rows = fig17.run(ctx).rows
    expected = []
    for neighbour in dict.fromkeys(map(fig17._neighbour, fig17.PROBES)):
        expected += {
            (t.content_digest(), anon_local_pages(t, fig17.FM_RATIO))
            for name in fig17.PROBES if fig17._neighbour(name) == neighbour
            for t in fig17._tenant_traces(ctx, name)
        }
    assert sorted(calls) == sorted(expected)
    assert rows == results("fig17").rows

    real_ratio = fig17._measured_ratio
    monkeypatch.setattr(fig17, "_measured_ratio", lambda ctx, name, classify:
                        real_ratio(ctx, name, ClassificationMemo()))
    calls.clear()
    assert fig17.run(ctx).rows == rows
    assert len(calls) == (1 + fig17._NEIGHBOURS) * len(fig17.PROBES) > len(expected)


def test_tenant_scaling_curves(results):
    res = results("tenant_scaling")
    m = res.metrics
    # slowdown grows with co-tenancy on both backends, monotonically
    assert m["ssd_monotone_fraction"] == 1.0
    assert m["rdma_monotone_fraction"] == 1.0
    assert m["ssd_slowdown_64"] > 2.0
    assert m["rdma_slowdown_64"] > 2.0
    for row in res.rows:
        backend, n, mean_sd, max_sd, util_r, util_w, span = row
        assert max_sd >= mean_sd >= 1.0 - 1e-9
        assert 0.0 <= util_r <= 1.0 and 0.0 <= util_w <= 1.0
        if n == 1:
            assert mean_sd == pytest.approx(1.0)


def test_fig18_overheads(results):
    m = results("fig18").metrics
    assert m["host_over_vm_reboot"] == pytest.approx(2.6, abs=0.1)
    assert m["max_switch_seconds"] < 5.0
    assert m["dram_start_is_slowest"] == 1.0


def test_fig19_mbe_peaks(results):
    m = results("fig19").metrics
    assert m["mean_util_2017"] == pytest.approx(0.4895, abs=0.03)
    assert m["mean_util_2018"] == pytest.approx(0.8705, abs=0.03)
    assert m["peak_mbe_2017"] == pytest.approx(0.138, abs=0.04)
    assert m["peak_mbe_2018"] == pytest.approx(0.197, abs=0.05)
    # high-pressure cluster benefits more (the paper's conclusion)
    assert m["peak_mbe_2018"] > m["peak_mbe_2017"]


def test_ablation_every_knob_matters(results):
    m = results("ablation").metrics
    for key, value in m.items():
        assert value >= 1.0, f"{key} should never beat full tuning"
    assert m["slowdown_no_width"] > 1.2
    assert m["slowdown_hierarchical"] > 1.2


def test_cxl_study_mixed_winners(results):
    m = results("cxl_study").metrics
    # both integration modes win somewhere - the point of supporting both
    assert m["numa_mode_wins"] >= 1
    assert m["backend_mode_wins"] >= 1


def test_online_study_controller_tracks_oracle(results):
    m = results("online_study").metrics
    assert m["online_vs_oracle"] <= 1.1
    assert m["static_first_vs_oracle"] > 1.5  # held config pays on the other phase
    assert m["reconfigurations"] >= 2


def test_tier_study_all_tiers_useful(results):
    m = results("tier_study").metrics
    # every tier wins somewhere: the premise of multi-backend management
    assert m["wins_zswap"] >= 1
    assert m["wins_rdma"] >= 1
    assert m["wins_ssd"] >= 1


def test_des_validation_layers_agree(results):
    m = results("des_validation").metrics
    assert m["backend_ordering_agreement"] == 1.0
    assert m["max_fault_count_error"] < 0.6  # bounded by 2-gen-vs-exact LRU gap
