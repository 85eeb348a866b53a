"""Differential tests for the event engine's inline clock advance.

When the running process is the only thing that can happen next,
:meth:`Simulator.skip` moves the clock itself and devices resolve their
payload stages with :meth:`FairShareLink.solo_transfer` instead of
scheduling events.  The contract is bit-identity with the heap path, which
a simulator with an ``event_log`` always takes:

* **link level** — ``solo_transfer`` vs ``transfer`` driven through the
  heap: completion time, ``busy_time``, ``total_bytes`` and
  ``_last_update`` match bit for bit, including zero and sub-epsilon
  sizes, and clocks where finish delays underflow;
* **executor level** — inline vs heap-forced runs over every backend x
  fault shape x failover mode, sanitizer on and off, and through the
  hybrid planner's event spans: every result field, device and link
  meter, channel tally, progress sample and health report agrees
  exactly;
* **guards** — a ``run(until=<float>)`` horizon is never overshot, a
  pending event keeps the process on the heap until it fires, a sibling
  callback still waiting at the current time blocks the inline path, and
  a negative delay raises like :class:`Timeout`.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.switching import ImplicitSwitcher
from repro.devices import CXLMemory, FarDRAM, HDD, BackendKind, NVMeSSD, RDMANic
from repro.errors import SimulationError
from repro.faults import (
    BandwidthFault,
    FailoverController,
    FaultPlan,
    FaultyDevice,
    LatencyFault,
    OfflineFault,
    TransientFault,
)
from repro.mem.page import PageOp
from repro.rng import derive
from repro.simcore import FairShareLink, Simulator
from repro.simcore.bandwidth import _EPS_BYTES
from repro.swap import SwapConfig, SwapExecutor, run_event, run_tenants
from repro.trace import fuse
from repro.trace.schema import make_trace
from repro.units import PAGE_SIZE

__all__: list[str] = []


def _same(a, b) -> bool:
    """Bitwise float equality (NaN equals NaN), plain equality otherwise."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _assert_same(got, want, what):
    assert _same(got, want), f"{what}: inline {got!r} != heap {want!r}"


# -- link level: solo_transfer vs the heap path --------------------------------

def _link_at(start, bandwidth, warmup):
    """A link whose clock reads ``start``, after optional heap-path history."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth, name="l")
    if warmup:
        sim.run(until=link.transfer(warmup))
    if start > sim.now:
        sim.run(until=start)
    return sim, link


def _link_state(link):
    return link.busy_time, link.total_bytes, link._last_update


_SIZES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2 * _EPS_BYTES),
    st.floats(min_value=1.0, max_value=1e10),
    st.integers(min_value=1, max_value=100_000).map(lambda n: float(n * PAGE_SIZE)),
)


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(min_value=1e-6, max_value=1e7),
    bandwidth=st.floats(min_value=1e3, max_value=1e11),
    nbytes=_SIZES,
    warmup=st.sampled_from([0.0, 4096.0, 12345.678]),
)
# a finish delay that underflows the clock: force-completed at once
@example(start=1e7, bandwidth=1e11, nbytes=1e-5, warmup=0.0)
@example(start=123.456, bandwidth=3e9, nbytes=5e-7, warmup=4096.0)
# a residue above the completion epsilon after the first wakeup: re-woken
@example(start=788210.3121389773, bandwidth=7862.817617817433,
         nbytes=9803840748.612064, warmup=12345.678)
@example(start=386045.14323517925, bandwidth=95534.52594075099,
         nbytes=6390446389.739307, warmup=4096.0)
def test_solo_transfer_matches_heap_path(start, bandwidth, nbytes, warmup):
    hsim, hlink = _link_at(start, bandwidth, warmup)
    ev = hlink.transfer(nbytes)
    hsim.run(until=ev)

    isim, ilink = _link_at(start, bandwidth, warmup)
    done = ilink.solo_transfer(nbytes)

    _assert_same(done, hsim.now, "completion time")
    for name, got, want in zip(("busy_time", "total_bytes", "_last_update"),
                               _link_state(ilink), _link_state(hlink)):
        _assert_same(got, want, name)
    assert ilink.active_flows == 0 and hlink.active_flows == 0
    assert isim.idle  # nothing was scheduled


def test_solo_transfer_validates_like_transfer():
    sim = Simulator()
    link = FairShareLink(sim, 1e9)
    with pytest.raises(ValueError, match="nbytes"):
        link.solo_transfer(-1.0)
    link.transfer(4096.0)
    with pytest.raises(SimulationError, match="idle link"):
        link.solo_transfer(4096.0)


# -- guards ---------------------------------------------------------------------

def test_skip_rejects_negative_delay_like_timeout():
    sim = Simulator()
    for delay in (-1.0, math.nan):
        with pytest.raises(ValueError, match="timeout delay must be >= 0"):
            sim.timeout(delay)
        with pytest.raises(ValueError, match="timeout delay must be >= 0"):
            sim.skip(delay)

    def proc():
        sim.skip(math.nan)  # inside a run, where a skip would go inline
        yield sim.timeout(1.0)

    with pytest.raises(ValueError, match="timeout delay must be >= 0"):
        sim.run(until=sim.process(proc()))
    assert not math.isnan(sim.now)


def test_skip_to_rejects_time_running_backwards():
    sim = Simulator()
    sim.run(until=2.0)
    for when in (1.0, math.nan):
        with pytest.raises(SimulationError, match="time ran backwards"):
            sim.skip_to(when)


def _ticker(sim, n, flags, delay=1.0):
    """A process that waits ``delay`` n times, recording whether each wait
    went inline."""
    for _ in range(n):
        inline = sim.skip(delay)
        flags.append(inline)
        if not inline:
            yield sim.timeout(delay)


def test_skip_declines_outside_a_run_and_under_an_event_log():
    assert Simulator().skip(1.0) is False  # bare: no run loop
    sim = Simulator(event_log=[])
    flags: list[bool] = []
    sim.run(until=sim.process(_ticker(sim, 3, flags)))
    assert flags == [False, False, False]
    assert math.isclose(sim.now, 3.0)
    plain = Simulator()
    flags = []
    plain.run(until=plain.process(_ticker(plain, 3, flags)))
    assert flags == [True, True, True]
    assert math.isclose(plain.now, 3.0)


def test_float_horizon_is_never_overshot():
    sim = Simulator()
    flags: list[bool] = []
    proc = sim.process(_ticker(sim, 5, flags))
    sim.run(until=2.5)
    # the solo process stopped at the horizon with its next wait pending
    assert math.isclose(sim.now, 2.5)
    assert flags == [False, False, False]
    assert not sim.idle and proc.is_alive
    sim.run(until=proc)
    assert math.isclose(sim.now, 5.0)
    assert flags == [False, False, False, True, True]


def test_pending_event_keeps_the_process_on_the_heap():
    sim = Simulator()
    fired: list[float] = []

    def other():
        yield sim.timeout(2.5)
        fired.append(sim.now)

    sim.process(other())
    flags: list[bool] = []
    proc = sim.process(_ticker(sim, 5, flags))
    sim.run(until=proc)
    assert fired == [2.5]
    assert flags == [False, False, False, True, True]
    assert math.isclose(sim.now, 5.0)


def test_sibling_callback_blocks_the_inline_path():
    sim = Simulator()
    gate = sim.event()
    seen: list[tuple[str, float, bool | None]] = []

    def first():
        yield gate
        flags: list[bool] = []
        yield from _ticker(sim, 1, flags)
        seen.append(("first", sim.now, flags[0]))

    def second():
        yield gate
        seen.append(("second", sim.now, None))

    a = sim.process(first())
    b = sim.process(second())
    gate.succeed(None, delay=1.0)
    sim.run(until=sim.all_of([a, b]))
    # ``second`` still ran at t=1 although ``first`` resumed before it
    assert ("second", 1.0, None) in seen
    assert ("first", 2.0, False) in seen


def test_run_until_target_stops_when_the_target_fires():
    """A process resumed by the run's own target must not run past it."""
    sim = Simulator()
    target = sim.timeout(1.0)
    flags: list[bool] = []

    def waiter():
        yield target
        yield from _ticker(sim, 2, flags)

    proc = sim.process(waiter())
    sim.run(until=target)
    assert math.isclose(sim.now, 1.0) and flags == [False]
    sim.run(until=proc)
    assert math.isclose(sim.now, 3.0) and flags == [False, True]


# -- executor level: inline vs heap-forced runs -----------------------------------

_BACKENDS = {
    "ssd": (NVMeSSD, BackendKind.SSD),
    "rdma": (RDMANic, BackendKind.RDMA),
    "dram": (FarDRAM, BackendKind.DRAM),
    "cxl": (CXLMemory, BackendKind.CXL),
    "hdd": (HDD, BackendKind.HDD),
}
_STANDBY = {"ssd": "rdma", "rdma": "ssd", "dram": "rdma", "cxl": "ssd",
            "hdd": "ssd"}


@functools.lru_cache(maxsize=None)
def _trace(seed=3, n=2500, distinct=200):
    rng = derive(seed, "tests/simcore_inline")
    pages = (rng.zipf(1.3, size=n) - 1) % distinct
    ops = np.where(rng.random(n) < 0.3, int(PageOp.STORE), int(PageOp.LOAD))
    return make_trace(pages, ops=ops)


@functools.lru_cache(maxsize=None)
def _features():
    return fuse(_trace())


def _windows(shape, t0, span):
    at = t0 + 0.3 * span
    return {
        "clean": [],
        "latency": [LatencyFault(start=at, duration=0.15 * span, factor=8.0)],
        "bandwidth": [BandwidthFault(start=at, duration=0.2 * span, fraction=0.25)],
        "transient": [TransientFault(start=at, duration=0.1 * span, error_rate=0.3)],
        "offline": [OfflineFault(start=at, duration=0.05 * span)],
    }[shape]


def _stack(backend, windows, failover, sanitize, heap):
    sim = Simulator(sanitize=sanitize, event_log=[] if heap else None)
    cls, kind = _BACKENDS[backend]
    device = FaultyDevice(cls(sim), FaultPlan(windows, seed=5))
    executor = SwapExecutor(sim, device, kind, local_pages=80)
    devices = {backend: device}
    controller = None
    if failover != "none":
        name = _STANDBY[backend]
        scls, skind = _BACKENDS[name]
        standby = scls(sim)
        devices[name] = standby
        executor.add_standby(skind, standby)
        switcher = ImplicitSwitcher({
            kind.value: (device, SwapConfig()),
            skind.value: (standby, SwapConfig()),
        })
        loose = failover == "managed"
        controller = FailoverController(
            executor.frontend, switcher, _features(), compute_time=0.05,
            min_samples=8,
            latency_threshold=1000.0 if loose else 3.0,
            bandwidth_floor=0.001 if loose else 0.5,
        )
        executor.attach_failover(controller, health_check_interval=16)
    return sim, executor, controller, devices


@functools.lru_cache(maxsize=None)
def _clock_span(backend):
    """(t0, T) of a clean event run: fault windows sit at fractions of it."""
    sim, executor, _, _ = _stack(backend, [], "none", False, False)
    t0 = sim.now
    return t0, run_event([executor], [_trace()])[0].sim_time


def _windows_for(backend, shape, failover):
    t0, span = _clock_span(backend)
    windows = _windows(shape, t0, span)
    if failover == "switch":
        # a degradation that never closes drives one mid-run switch
        windows = windows + [
            LatencyFault(start=t0 + 0.6 * span, duration=1e6, factor=50.0),
            BandwidthFault(start=t0 + 0.6 * span, duration=1e6, fraction=0.02),
        ]
    return windows


def _observe(sim, executor, controller, devices, result):
    """Everything an inline run must reproduce bit for bit."""
    obs = {"now": sim.now}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "fault_latency":
            value = (value.n, value._mean, value._m2, value.minimum,
                     value.maximum, value.total)
        obs[f"result.{f.name}"] = value
    for name, device in devices.items():
        inner = getattr(device, "inner", device)
        obs[f"{name}.io"] = (inner.ops, inner.bytes_read, inner.bytes_written)
        if inner is not device:
            obs[f"{name}.faults"] = (device.transient_errors,
                                     device.offline_rejections,
                                     device.degradation_stall)
        pool = inner.channel_pool
        obs[f"{name}.channels"] = (pool.total_grants, pool.total_wait)
        for write in (False, True):
            for pipe in inner.stage_pipes(write):
                obs[f"{pipe.name}"] = (pipe.busy_time, pipe.total_bytes,
                                       pipe._last_update)
    obs["progress"] = (list(executor.progress._t), list(executor.progress._v))
    obs["active"] = executor.frontend.active_backend
    if controller is not None:
        obs["detected_at"] = controller.detected_at
        obs["switched_at"] = controller.switched_at
        obs["events"] = [(e.time, e.backend, e.target, e.reason)
                         for e in controller.events]
        for name, monitor in sorted(controller.monitors.items()):
            obs[f"reports.{name}"] = [dataclasses.astuple(r)
                                      for r in monitor.reports]
    return obs


def _assert_observations_equal(got, want):
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if isinstance(w, (tuple, list)):
            assert len(g) == len(w), key
            for a, b in zip(g, w):
                if isinstance(b, (tuple, list)):
                    assert len(a) == len(b), key
                    assert all(_same(x, y) for x, y in zip(a, b)), (key, a, b)
                else:
                    assert _same(a, b), (key, a, b)
        else:
            assert _same(g, w), (key, g, w)


def _run_both(backend, windows, failover, sanitize, run):
    """Run ``run([executor], [trace])`` on the heap and inline; they must
    observe the same."""
    observed = []
    for heap in (True, False):
        sim, executor, controller, devices = _stack(backend, windows, failover,
                                                    sanitize, heap)
        result = run([executor], [_trace()])[0]
        observed.append(_observe(sim, executor, controller, devices, result))
    heap_obs, inline_obs = observed
    _assert_observations_equal(inline_obs, heap_obs)
    return heap_obs


@pytest.mark.faults
@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("failover", ["none", "managed", "switch"])
@pytest.mark.parametrize("shape", ["clean", "latency", "bandwidth", "transient",
                                   "offline"])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_inline_event_run_matches_heap(backend, shape, failover, sanitize):
    obs = _run_both(backend, _windows_for(backend, shape, failover), failover,
                    sanitize, run_event)
    assert obs["result.faults"] > 100
    if failover == "switch":
        assert obs["switched_at"] is not None


@pytest.mark.faults
@pytest.mark.parametrize("failover", ["none", "switch"])
@pytest.mark.parametrize("backend", ["ssd", "rdma", "hdd"])
def test_inline_hybrid_event_spans_match_heap(backend, failover):
    """The hybrid planner's event spans take the inline path too."""
    windows = _windows_for(backend, "latency", failover)
    for heap in (True, False):
        _, executor, _, _ = _stack(backend, windows, failover, False, heap)
        executor.run(_trace())
        assert executor.execution_plan is not None, "hybrid engine not taken"
        assert any(s.engine == "event" for s in executor.execution_plan.segments)
    _run_both(backend, windows, failover, False, run_tenants)


@pytest.mark.faults
def test_oracle_switch_stays_on_the_heap_until_it_fires():
    """``failover_study``'s oracle shape: a switch process sleeps until the
    fault onset while the executor runs; every wait before the switch
    completes goes through the heap, and the run matches a heap-forced
    one exactly."""
    # a slow primary, so the run outlasts the standby's module start-up
    t0, span = _clock_span("hdd")
    windows = _windows("latency", t0, span)
    observed = []
    for heap in (True, False):
        sim, executor, _, devices = _stack("hdd", windows, "none", False, heap)
        standby = NVMeSSD(sim)
        executor.add_standby(BackendKind.SSD, standby)
        executor.migrate_on_fault = True
        devices["ssd"] = standby
        onset = sim.now + 0.1 * span
        switched: list[float] = []

        def oracle(sim=sim, executor=executor, onset=onset, done=switched):
            yield sim.timeout(onset - sim.now)
            yield executor.frontend.switch_to("ssd")
            done.append(sim.now)

        waits: list[tuple[float, bool]] = []
        skip = sim.skip

        def recording_skip(delay, skip=skip, sim=sim, waits=waits):
            inline = skip(delay)
            waits.append((sim.now, inline))
            return inline

        sim.skip = recording_skip
        proc = sim.process(oracle(), name="oracle-switch")
        result = run_event([executor], [_trace()])[0]
        sim.run(until=proc)
        obs = _observe(sim, executor, None, devices, result)
        obs["switched"] = switched[0]
        observed.append(obs)
        inline_times = [t for t, inline in waits if inline]
        if heap:
            assert not inline_times
        else:
            assert switched[0] < result.sim_time + t0
            assert inline_times and min(inline_times) > switched[0]
            assert not [t for t, inline in waits
                        if not inline and t > switched[0]]
    _assert_observations_equal(observed[1], observed[0])
