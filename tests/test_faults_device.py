"""FaultyDevice: degradation mechanics, gating, and byte conservation."""

import math

import pytest

from repro.devices import NVMeSSD, RDMANic
from repro.errors import ConfigurationError, DeviceOfflineError, TransientDeviceError
from repro.faults import (
    BandwidthFault,
    FaultPlan,
    FaultyDevice,
    LatencyFault,
    OfflineFault,
    TransientFault,
)
from repro.simcore import Simulator
from repro.units import PAGE_SIZE

pytestmark = pytest.mark.faults


def _timed(sim, op):
    """Run the device operation ``op`` as its own process; return its span."""
    t0 = sim.now
    sim.run(until=sim.process(op))
    return sim.now - t0


def test_wrapper_validation():
    sim = Simulator()
    inner = NVMeSSD(sim)
    wrapped = FaultyDevice(inner, FaultPlan())
    with pytest.raises(ConfigurationError):
        FaultyDevice(wrapped, FaultPlan())  # no stacking
    with pytest.raises(ConfigurationError):
        FaultyDevice(NVMeSSD(sim), "not a plan")


def test_empty_plan_is_transparent():
    sim_a, sim_b = Simulator(), Simulator()
    bare = NVMeSSD(sim_a)
    faulty = FaultyDevice(NVMeSSD(sim_b), FaultPlan())
    t_bare = _timed(sim_a, bare.read(PAGE_SIZE))
    t_faulty = _timed(sim_b, faulty.read(PAGE_SIZE))
    assert t_faulty == t_bare
    assert faulty.page_latency() == bare.page_latency()


@pytest.mark.sanitize
def test_latency_window_inflates_op_time():
    factor = 10.0
    plan = FaultPlan([LatencyFault(start=0.0, duration=100.0, factor=factor)], seed=0)
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    t_in = _timed(sim, faulty.read(PAGE_SIZE))
    # analytic surface agrees with the DES measurement while degraded
    assert t_in == pytest.approx(faulty.page_latency(), rel=1e-9)
    # and both exceed the healthy profile (inner is untouched)
    assert t_in > faulty.inner.page_latency()
    sim2 = Simulator()
    healthy = _timed(sim2, NVMeSSD(sim2).read(PAGE_SIZE))
    assert t_in > healthy


@pytest.mark.sanitize
def test_bandwidth_window_stalls_but_conserves_bytes():
    fraction = 0.1
    plan = FaultPlan([BandwidthFault(start=0.0, duration=100.0, fraction=fraction)], seed=0)
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    nbytes = 64 * PAGE_SIZE
    t = _timed(sim, faulty.read(nbytes, granularity=PAGE_SIZE))
    sim2 = Simulator()
    t_healthy = _timed(sim2, NVMeSSD(sim2).read(nbytes, granularity=PAGE_SIZE))
    assert t > t_healthy
    assert faulty.degradation_stall > 0.0
    # every requested byte still crossed the accounting, rounded to granules
    moved = math.ceil(nbytes / PAGE_SIZE) * PAGE_SIZE
    assert faulty.bytes_read == moved
    # the payload time approaches moved / (bw * fraction): the stall added
    # exactly the difference between degraded and healthy payload time
    expected_stall = moved / (faulty.inner._media_bw(False) * fraction) - (
        moved / faulty.inner._media_bw(False)
    )
    assert faulty.degradation_stall == pytest.approx(expected_stall, rel=1e-9)


def test_transient_window_raises_seeded_errors():
    plan = FaultPlan(
        [TransientFault(start=0.0, duration=100.0, error_rate=1.0)], seed=1
    )
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    proc = sim.process(faulty.read(PAGE_SIZE))
    with pytest.raises(TransientDeviceError):
        sim.run(until=proc)
    assert faulty.transient_errors == 1
    assert faulty.bytes_read == 0.0  # rejected at admission: nothing moved


def test_offline_window_rejects_everything():
    plan = FaultPlan([OfflineFault(start=0.0, duration=100.0)], seed=0)
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    with pytest.raises(DeviceOfflineError):
        sim.run(until=sim.process(faulty.read(PAGE_SIZE)))
    with pytest.raises(DeviceOfflineError):
        sim.run(until=sim.process(faulty.write(PAGE_SIZE)))
    assert faulty.offline_rejections == 2


def test_ops_before_window_opens_run_clean():
    plan = FaultPlan([OfflineFault(start=50.0, duration=1.0)], seed=0)
    sim = Simulator()
    faulty = FaultyDevice(RDMANic(sim), plan)
    t = _timed(sim, faulty.read(PAGE_SIZE))
    assert t == pytest.approx(faulty.inner.page_latency(), rel=1e-9)
    assert faulty.offline_rejections == 0


@pytest.mark.sanitize
def test_wrapper_shares_inner_contention_state():
    """The wrapper funnels bytes through the wrapped device's pipes and
    channel pool — one consistent device for sanitizer and co-tenants."""
    sim = Simulator()
    inner = NVMeSSD(sim)
    faulty = FaultyDevice(inner, FaultPlan())
    assert faulty.channel_pool is inner.channel_pool
    assert faulty._media_read is inner._media_read
    assert faulty._media_write is inner._media_write
    sim.run(until=sim.process(faulty.read(8 * PAGE_SIZE)))


def test_analytic_surface_tracks_window_edges():
    plan = FaultPlan(
        [
            LatencyFault(start=10.0, duration=5.0, factor=4.0),
            BandwidthFault(start=10.0, duration=5.0, fraction=0.5),
        ],
        seed=0,
    )
    sim = Simulator()
    faulty = FaultyDevice(NVMeSSD(sim), plan)
    healthy_lat = faulty.inner.page_latency()
    assert faulty.page_latency() == healthy_lat  # t=0: before the window
    def advance():
        yield sim.timeout(12.0)

    sim.run(until=sim.process(advance(), name="advance"))
    assert faulty.page_latency() > healthy_lat
    assert faulty.effective_bandwidth() < faulty.inner.effective_bandwidth()
