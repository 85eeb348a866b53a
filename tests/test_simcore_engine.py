"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simcore import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = sim.timeout(2.5)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.5)


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=2.0)


def test_process_sequences_timeouts():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.0)
        log.append(sim.now)
        yield sim.timeout(2.0)
        log.append(sim.now)
        return "done"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "done"
    assert log == [pytest.approx(1.0), pytest.approx(3.0)]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.5)
        raise RuntimeError("boom")

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield sim.process(bad())
        return "caught"

    w = sim.process(waiter())
    assert sim.run(until=w) == "caught"


def test_event_value_passthrough():
    sim = Simulator()
    ev = sim.event()

    def setter():
        yield sim.timeout(1.0)
        ev.succeed(42)

    def getter():
        value = yield ev
        return value

    sim.process(setter())
    g = sim.process(getter())
    assert sim.run(until=g) == 42


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event

    def late():
        value = yield ev
        return value

    p = sim.process(late())
    assert sim.run(until=p) == "early"


def test_deadlock_detection():
    sim = Simulator()
    never = sim.event()

    def stuck():
        yield never

    p = sim.process(stuck())
    with pytest.raises(DeadlockError):
        sim.run(until=p)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    ps = [sim.process(worker(d, i)) for i, d in enumerate([3.0, 1.0, 2.0])]
    gate = sim.all_of(ps)
    assert sim.run(until=gate) == [0, 1, 2]
    assert sim.now == pytest.approx(3.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    gate = sim.all_of([])
    assert sim.run(until=gate) == []


def test_all_of_fails_fast():
    sim = Simulator()

    def ok():
        yield sim.timeout(5.0)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("first failure")

    gate = sim.all_of([sim.process(ok()), sim.process(bad())])
    with pytest.raises(ValueError, match="first failure"):
        sim.run(until=gate)


def test_process_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 1.0  # plain float, not an Event

    p = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run(until=p)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_processes():
    sim = Simulator()

    def inner(x):
        yield sim.timeout(1.0)
        return x * 2

    def outer():
        a = yield sim.process(inner(10))
        b = yield sim.process(inner(a))
        return b

    p = sim.process(outer())
    assert sim.run(until=p) == 40
    assert sim.now == pytest.approx(2.0)
