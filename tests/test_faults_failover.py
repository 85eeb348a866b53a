"""Health monitoring, failover control, and executor fault tolerance."""

import os

import numpy as np
import pytest

from repro.core.switching import ImplicitSwitcher
from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.errors import ConfigurationError
from repro.faults import (
    BandwidthFault,
    FailoverController,
    FaultPlan,
    FaultyDevice,
    HealthMonitor,
    LatencyFault,
    OfflineFault,
    TransientFault,
)
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapExecutor
from repro.swap.replay import _engine
from repro.trace import fuse
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses

pytestmark = pytest.mark.faults


def _zipf_trace(n_pages=220, n_accesses=24000, seed=3):
    rng = np.random.default_rng(seed)
    return assemble(
        rng, zipf_accesses(rng, n_pages, n_accesses, alpha=1.1), anon_ratio=1.0
    )


def _failover_stack(plan_windows, seed=5, local=80, trace=None,
                    latency_threshold=3.0, bandwidth_floor=0.5):
    """SSD primary wrapped in a plan + RDMA standby + controller."""
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), FaultPlan(plan_windows, seed=seed))
    executor = SwapExecutor(sim, faulty, BackendKind.SSD, local_pages=local)
    standby = RDMANic(sim)
    executor.add_standby(BackendKind.RDMA, standby)
    if trace is None:
        trace = _zipf_trace()
    features = fuse(trace)
    switcher = ImplicitSwitcher({
        "ssd": (faulty, SwapConfig()),
        "rdma": (standby, SwapConfig()),
    })
    controller = FailoverController(
        executor.frontend, switcher, features, compute_time=0.05,
        min_samples=8, latency_threshold=latency_threshold,
        bandwidth_floor=bandwidth_floor,
    )
    executor.attach_failover(controller, health_check_interval=16)
    return sim, executor, controller, trace


# -------------------------------------------------------- HealthMonitor
def test_monitor_below_min_samples_returns_none():
    sim = Simulator()
    mon = HealthMonitor(NVMeSSD(sim), min_samples=4)
    base = mon.baseline_latency
    for _ in range(3):
        mon.record(base, 4096.0)
    assert mon.check(1.0) is None
    assert mon.samples == 3  # window kept accumulating


def test_monitor_healthy_window():
    sim = Simulator()
    mon = HealthMonitor(NVMeSSD(sim), min_samples=4)
    base = mon.baseline_latency
    for _ in range(8):
        mon.record(base, 4096.0)
    report = mon.check(1.0)
    assert report is not None and report.healthy
    assert report.latency_factor == pytest.approx(1.0, rel=0.3)
    assert mon.samples == 0  # window reset after check


def test_monitor_flags_latency_degradation():
    sim = Simulator()
    mon = HealthMonitor(NVMeSSD(sim), min_samples=4, latency_threshold=3.0)
    base = mon.baseline_latency
    for _ in range(8):
        mon.record(base * 20.0, 4096.0)
    report = mon.check(1.0)
    assert report is not None and not report.healthy
    assert "p99 latency" in report.reason
    assert report.latency_factor > 3.0


def test_monitor_flags_bandwidth_collapse():
    sim = Simulator()
    mon = HealthMonitor(NVMeSSD(sim), min_samples=4, bandwidth_floor=0.5,
                        latency_threshold=1000.0)
    base = mon.baseline_latency
    for _ in range(8):
        # same bytes take 20x the time -> delivered bandwidth at 5%
        mon.record(base * 20.0, 4096.0)
    report = mon.check(1.0)
    assert report is not None and not report.healthy
    assert "delivered bw" in report.reason
    assert report.bandwidth_fraction < 0.5


def test_monitor_baseline_from_wrapped_healthy_device():
    """A FaultyDevice's monitor must baseline on the *inner* profile, even
    when the fault window is already open at construction time."""
    sim = Simulator()
    plan = FaultPlan([LatencyFault(start=0.0, duration=100.0, factor=50.0)], seed=0)
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    mon = HealthMonitor(faulty, min_samples=4)
    assert mon.baseline_latency == pytest.approx(faulty.inner.page_latency())


def test_monitor_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        HealthMonitor(NVMeSSD(sim), latency_threshold=1.0)
    with pytest.raises(ConfigurationError):
        HealthMonitor(NVMeSSD(sim), bandwidth_floor=1.5)
    with pytest.raises(ConfigurationError):
        HealthMonitor(NVMeSSD(sim), min_samples=0)


# ---------------------------------------------------- FailoverController
def test_controller_requires_registered_candidates():
    sim = Simulator()
    executor = SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD, local_pages=10)
    switcher = ImplicitSwitcher({
        "ssd": (executor.frontend.module("ssd").device, SwapConfig()),
        "rdma": (RDMANic(sim), SwapConfig()),  # not registered on frontend
    })
    trace = _zipf_trace(n_pages=40, n_accesses=200)
    with pytest.raises(ConfigurationError):
        FailoverController(executor.frontend, switcher, fuse(trace), 0.05)


@pytest.mark.sanitize
def test_managed_failover_detects_and_switches_once():
    onset = 0.95  # after the ssd module's 0.9 s start
    windows = [
        LatencyFault(start=onset, duration=1e6, factor=50.0),  # simlint: ignore[UNIT001] -- sentinel rest-of-run duration, seconds
        BandwidthFault(start=onset, duration=1e6, fraction=0.02),  # simlint: ignore[UNIT001] -- sentinel rest-of-run duration, seconds
    ]
    sim, executor, controller, trace = _failover_stack(windows)
    res = executor.run(trace)
    assert res.failovers == 1
    assert controller.detected_at is not None and controller.detected_at > onset
    assert controller.switched_at is not None
    assert controller.switched_at > controller.detected_at
    assert executor.frontend.active_backend == "rdma"
    assert controller.failovers == 1  # no flapping back to the degraded ssd
    # the switch event carries the degradation report that justified it
    switch_events = [e for e in controller.events if e.target == "rdma"]
    assert len(switch_events) == 1 and not switch_events[0].report.healthy


@pytest.mark.sanitize
def test_managed_failover_is_deterministic():
    onset = 0.95
    windows = [
        TransientFault(start=onset, duration=0.4, error_rate=0.4),
        LatencyFault(start=onset, duration=1e6, factor=50.0),  # simlint: ignore[UNIT001] -- sentinel rest-of-run duration, seconds
    ]
    runs = []
    for _ in range(2):
        sim, executor, controller, trace = _failover_stack(windows)
        res = executor.run(trace)
        runs.append((res.sim_time, res.faults, res.transient_retries,
                     res.failovers, controller.switched_at))
    assert runs[0] == runs[1]


@pytest.mark.sanitize
def test_transient_retries_absorb_blips_without_failover():
    """A short transient window is retried through, not failed over.

    Detection thresholds are set to blip-tolerant values: the health
    monitor's p99 over a 16-fault window is effectively its max sample,
    so at the default 3x threshold a *single* retried fault (one 50 us
    backoff on a ~tens-of-us op) legitimately flags the window.  Here
    the subject is the retry machinery, not detection tuning.
    """
    windows = [TransientFault(start=0.95, duration=0.005, error_rate=0.25)]
    sim, executor, controller, trace = _failover_stack(
        windows, latency_threshold=30.0, bandwidth_floor=0.05
    )
    res = executor.run(trace)
    assert res.transient_retries > 0
    assert executor.frontend.active_backend == "ssd"
    assert res.failovers == 0
    assert controller.switcher.availability["ssd"].available


@pytest.mark.sanitize
def test_offline_store_escalates_to_standby():
    """An offline primary fails stores over to the standby (hard failover).

    The trace is a streaming first-touch store scan: every access is a
    cold allocation that evicts a dirty victim, so the device traffic is
    pure stores — the path that escalates through the controller (loads
    instead stall on the page's owner; see ``_load_guarded``).
    """
    rng = np.random.default_rng(7)
    trace = assemble(rng, sequential_scan(12000), store_ratio=1.0, anon_ratio=1.0)
    windows = [OfflineFault(start=0.95, duration=0.5)]
    sim, executor, controller, trace = _failover_stack(windows, trace=trace)
    res = executor.run(trace)
    assert res.failovers == 1
    assert executor.frontend.active_backend == "rdma"
    # the dead backend was marked down in the switcher's availability view
    assert not controller.switcher.availability["ssd"].available
    # and the escalation event names the store failure
    assert any(e.report is None and "store" in e.reason for e in controller.events)


@pytest.mark.sanitize
def test_offline_without_standby_stalls_gracefully():
    """No standby: the run waits the window out and still finishes."""
    sim = Simulator()
    plan = FaultPlan([OfflineFault(start=0.95, duration=0.1)], seed=5)
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    executor = SwapExecutor(sim, faulty, BackendKind.SSD, local_pages=80)
    trace = _zipf_trace()
    res = executor.run(trace)
    assert res.accesses == len(trace)
    if faulty.offline_rejections:
        assert res.stall_time > 0.0


# ------------------------------------------------- batch-engine gating
def test_fault_plan_forces_event_engine():
    """Live faults must leave pure batching."""
    sim = Simulator()
    plan = FaultPlan([LatencyFault(start=1.0, duration=0.1, factor=2.0)], seed=0)
    executor = SwapExecutor(sim, FaultyDevice(NVMeSSD(sim), plan),
                            BackendKind.SSD, local_pages=80)
    assert _engine([executor]) == "hybrid"
    res = executor.run(_zipf_trace(n_pages=120, n_accesses=1500))
    # the event loop samples progress; the batch engine leaves it empty
    assert len(executor.progress) > 0
    assert res.accesses == 1500


def test_empty_plan_keeps_batch_eligibility():
    sim = Simulator()
    executor = SwapExecutor(sim, FaultyDevice(NVMeSSD(sim), FaultPlan()),
                            BackendKind.SSD, local_pages=80)
    assert _engine([executor]) == "batch"
    res = executor.run(_zipf_trace(n_pages=120, n_accesses=1500))
    assert len(executor.progress) == 0  # batched: no per-access sampling
    assert res.accesses == 1500


def test_attached_failover_forces_event_engine():
    windows = [LatencyFault(start=1.0, duration=0.1, factor=2.0)]
    sim, executor, controller, trace = _failover_stack(windows)
    assert _engine([executor]) == "hybrid"


# ------------------------------------------------- failover_study edge scale
def test_failover_study_runs_at_tiny_scale():
    """At scale 0.05 the oracle run ends while its scheduled switch is
    still in flight; the study completes the switch instead of failing."""
    from repro.experiments import EXPERIMENTS, ExperimentContext

    res = EXPERIMENTS["failover_study"](ExperimentContext(scale=0.05))
    oracle = [row for row in res.rows if row[1] == "oracle"]
    assert len(oracle) == len(res.rows) // 4 == 2
    for row in oracle:
        assert float(row[6]) > 0.0  # the switch landed, after the run ended
    for key in ("ssd_rdma", "rdma_ssd"):
        assert res.metrics[f"deterministic_{key}"] == 1.0
