"""Unit tests for Resource and FairShareLink."""

import pytest

from repro.errors import SimulationError
from repro.simcore import FairShareLink, Resource, Simulator


# ---------------------------------------------------------------- Resource
def test_resource_serializes_when_capacity_one():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish = []

    def job(tag):
        grant = yield res.request()
        yield sim.timeout(1.0)
        res.release(grant)
        finish.append((tag, sim.now))

    for t in ("a", "b", "c"):
        sim.process(job(t))
    sim.run()
    assert [t for t, _ in finish] == ["a", "b", "c"]
    assert [w for _, w in finish] == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_resource_parallel_when_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finish = []

    def job(tag):
        grant = yield res.request()
        yield sim.timeout(1.0)
        res.release(grant)
        finish.append(sim.now)

    for t in range(4):
        sim.process(job(t))
    sim.run()
    assert finish == [pytest.approx(1.0), pytest.approx(1.0), pytest.approx(2.0), pytest.approx(2.0)]


def test_resource_tracks_mean_wait():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job():
        grant = yield res.request()
        yield sim.timeout(2.0)
        res.release(grant)

    sim.process(job())
    sim.process(job())
    sim.run()
    # second job waited 2.0; mean over two grants = 1.0
    assert res.mean_wait == pytest.approx(1.0)


def test_resource_resize_grows_and_wakes_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish = []

    def job(tag):
        grant = yield res.request()
        yield sim.timeout(1.0)
        res.release(grant)
        finish.append(sim.now)

    def grower():
        yield sim.timeout(0.25)
        res.resize(3)

    for t in range(3):
        sim.process(job(t))
    sim.process(grower())
    sim.run()
    # first job holds [0,1]; jobs 2+3 start at resize time 0.25
    assert finish == [pytest.approx(1.0), pytest.approx(1.25), pytest.approx(1.25)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release(None)  # type: ignore[arg-type]


def test_resource_rejects_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
    res = Resource(sim, capacity=1)
    with pytest.raises(ValueError):
        res.resize(0)


# ---------------------------------------------------------- FairShareLink
def test_link_single_flow_time():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    done = link.transfer(250.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.5)


def test_link_two_flows_share_capacity():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    t_done = {}

    def xfer(tag, nbytes):
        yield link.transfer(nbytes)
        t_done[tag] = sim.now

    sim.process(xfer("a", 100.0))
    sim.process(xfer("b", 100.0))
    sim.run()
    # both share 100 B/s, so each gets 50 B/s -> 2.0 s
    assert t_done["a"] == pytest.approx(2.0)
    assert t_done["b"] == pytest.approx(2.0)


def test_link_short_flow_releases_share():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    t_done = {}

    def xfer(tag, nbytes):
        yield link.transfer(nbytes)
        t_done[tag] = sim.now

    sim.process(xfer("short", 50.0))
    sim.process(xfer("long", 150.0))
    sim.run()
    # short: 50 B at 50 B/s -> done at 1.0. long has 100 B left, now full rate
    assert t_done["short"] == pytest.approx(1.0)
    assert t_done["long"] == pytest.approx(2.0)


def test_link_late_arrival():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    t_done = {}

    def first():
        yield link.transfer(150.0)
        t_done["first"] = sim.now

    def second():
        yield sim.timeout(1.0)
        yield link.transfer(100.0)
        t_done["second"] = sim.now

    sim.process(first())
    sim.process(second())
    sim.run()
    # first: 100 B alone in [0,1], then shares 50 B/s -> remaining 50 B done at t=2
    assert t_done["first"] == pytest.approx(2.0)
    # second: 50 B in [1,2] at 50 B/s, then 50 B at 100 B/s -> t=2.5
    assert t_done["second"] == pytest.approx(2.5)


def test_link_zero_bytes_completes_instantly():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=10.0)
    done = link.transfer(0.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.0)


def test_link_utilization_tracks_busy_time():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)

    def xfer():
        yield link.transfer(100.0)
        yield sim.timeout(1.0)  # idle second
        yield link.transfer(100.0)

    p = sim.process(xfer())
    sim.run(until=p)
    assert link.utilization() == pytest.approx(2.0 / 3.0)


def test_link_validates_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        FairShareLink(sim, bandwidth=0.0)
    with pytest.raises(ValueError):
        FairShareLink(sim, bandwidth=float("nan"))
    link = FairShareLink(sim, bandwidth=1.0)
    with pytest.raises(ValueError):
        link.transfer(-5.0)
