"""Event loop, events, and generator-based processes.

The engine is deliberately minimal: a binary heap of ``(time, seq, event)``
entries and a dispatch loop.  Processes are Python generators that yield
:class:`Event` objects; when a yielded event fires, the process is resumed
with the event's value (or the event's exception is thrown into it).

Determinism: events scheduled at the same timestamp fire in scheduling
order (the monotone ``seq`` counter breaks ties), so runs are bit-stable.

Inline advance: a process that is the only thing that can happen next may
move the clock itself (:meth:`Simulator.skip`) instead of scheduling a
timeout and waiting for the loop to pop it.  The clock lands on the same
float either way; the heap path still runs whenever anything else is
pending.

Sanitizer mode (``REPRO_SANITIZE=1`` or ``Simulator(sanitize=True)``)
additionally enforces event-lifecycle legality: double-triggering an event
and registering a callback on an already-processed event raise
:class:`~repro.errors.SanitizerError` instead of misbehaving or being
engine-policed only where cheap.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, SanitizerError, SimulationError
from repro.simcore.sanitize import sanitizer_enabled

__all__ = ["Event", "Timeout", "Process", "Simulator"]


class _DeadCallbacks(list):
    """Sanitizer guard installed once an event's callbacks have run.

    A callback appended after processing would silently never fire; in
    sanitizer mode that is a lifecycle violation ("wait-after-processed").
    """

    def append(self, cb: Callable[["Event"], None]) -> None:
        raise SanitizerError(
            "wait-after-processed: callback registered on an already-processed "
            "event would never run; check Event.processed before waiting"
        )


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled with a value or error), *processed* (callbacks ran).  Multiple
    processes may wait on the same event; all are resumed at the trigger
    time in registration order.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The value the event fired with (valid once processed/triggered)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise self._double_trigger()
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by raising ``exc`` in its waiters."""
        if self._triggered:
            raise self._double_trigger()
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, delay)
        return self

    def _double_trigger(self) -> SimulationError:
        cls = SanitizerError if self.sim.sanitize else SimulationError
        return cls("event already triggered")

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = (
            self.callbacks,
            _DeadCallbacks() if self.sim.sanitize else [],
        )
        if len(callbacks) > 1:
            # later callbacks still run at the current time, so a process
            # resumed by an earlier one must not advance the clock inline
            sim = self.sim
            held, sim._until = sim._until, None
            try:
                for cb in callbacks[:-1]:
                    cb(self)
            finally:
                sim._until = held
            callbacks[-1](self)
        elif callbacks:
            callbacks[0](self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # negated so a NaN delay fails too
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        # Inlined Event.__init__ — timeouts are the most-created object in
        # any replay and the extra super() frame is measurable.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """A running coroutine; also an event that fires when the coroutine ends.

    The coroutine is a generator yielding :class:`Event` instances.  The
    process's own event fires with the generator's return value, or fails
    with any exception that escapes it.
    """

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = "") -> None:
        super().__init__(sim)
        if not isinstance(gen, Generator):
            raise TypeError(f"Process needs a generator, got {type(gen).__name__}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Event | None = None
        # Bootstrap: resume the generator at time-zero-of-creation.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            target = self.gen.throw(event._exc) if event._exc is not None else self.gen.send(event._value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if not self._triggered:
                self.fail(exc)
                if isinstance(exc, SanitizerError):
                    # Sanitizer violations are fatal: surface them out of
                    # sim.run() even when nothing waits on this process.
                    raise
                return
            raise
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, expected Event"
            )
        if target._processed:
            # Already fired: resume immediately at current time.
            immediate = Event(self.sim)
            immediate.callbacks.append(self._resume)
            if target._exc is not None:
                immediate.fail(target._exc)
            else:
                immediate.succeed(target._value)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} alive={self.is_alive}>"


class _Drain:
    """Target of ``run(until=None)``: an event that never fires."""

    __slots__ = ()
    _processed = False


_DRAIN = _Drain()


class Simulator:
    """The event loop: owns the clock and the pending-event heap.

    Parameters
    ----------
    sanitize:
        ``True``/``False`` force sanitizer mode on/off; ``None`` (default)
        reads the ``REPRO_SANITIZE`` environment variable.
    event_log:
        Optional list that :meth:`step` appends ``(time, seq, event-type)``
        entries to — the determinism regression tests compare these logs
        across seeded runs.
    """

    def __init__(self, sanitize: bool | None = None,
                 event_log: list[tuple[float, int, str]] | None = None) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self.sanitize: bool = sanitizer_enabled() if sanitize is None else bool(sanitize)
        self.event_log = event_log
        # the target of the running ``run(until=Event)`` / ``run(None)``
        # loop while inline advances are allowed (see skip), else None
        self._until: Event | _Drain | None = None

    @property
    def now(self) -> float:  # simlint: dim[return=seconds]
        """Current simulated time in seconds."""
        return self._now

    @property
    def idle(self) -> bool:
        """True when no events are pending (nothing scheduled to fire)."""
        return not self._heap

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def skip(self, delay: float) -> bool:  # simlint: dim[delay=seconds]
        """Advance the clock by ``delay`` inline if nothing else can fire first.

        The caller is the running process; on ``True`` it continues as if a
        ``yield sim.timeout(delay)`` had just fired, on ``False`` it must
        yield that timeout.  Inline is exact only when the timeout would
        be the next event the loop pops and only the caller waits on it,
        so this returns ``False`` unless every guard holds:

        * the heap is empty — no other event can fire before ``now +
          delay`` (and no fair-share flow is in flight: every active flow
          keeps a wakeup on the heap);
        * the loop runs under ``run(until=Event)`` with the target not yet
          processed, or under ``run(until=None)`` — ``run(until=<float>)``
          and bare :meth:`step` never advance inline, so a horizon is never
          overshot;
        * no later callback of the event being dispatched is still waiting
          to run at the current time;
        * no ``event_log`` is attached — a logged run records every event.

        The clock lands on ``self._now + delay``, the float ``_schedule``
        would have pushed.
        """
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        return self.skip_to(self._now + delay)

    def skip_to(self, when: float) -> bool:  # simlint: dim[when=seconds]
        """Move the clock to ``when`` inline; same guards as :meth:`skip`."""
        if not when >= self._now:
            cls = SanitizerError if self.sanitize else SimulationError
            raise cls(f"time ran backwards: {when} < {self._now}")
        until = self._until
        if until is None or until._processed or self._heap:
            return False
        self._now = when
        return True

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, gen, name=name)

    def all_of(self, events: list[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired.

        Fires with the list of individual values (in input order); fails
        fast with the first failure observed.
        """
        gate = self.event()
        remaining = len(events)
        values: list[Any] = [None] * len(events)
        if remaining == 0:
            gate.succeed([])
            return gate

        def make_cb(i: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                nonlocal remaining
                if gate.triggered:
                    return
                if ev._exc is not None:
                    gate.fail(ev._exc)
                    return
                values[i] = ev._value
                remaining -= 1
                if remaining == 0:
                    gate.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            if ev._processed:
                if ev._exc is not None:
                    if not gate.triggered:
                        gate.fail(ev._exc)
                else:
                    values[i] = ev._value
                    remaining -= 1
            else:
                ev.callbacks.append(make_cb(i))
        if remaining == 0 and not gate.triggered:
            gate.succeed(list(values))
        return gate

    # -- execution -------------------------------------------------------
    def step(self) -> float:
        """Fire the next event; returns the new clock value."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, seq, event = heapq.heappop(self._heap)
        if when < self._now:
            cls = SanitizerError if self.sanitize else SimulationError
            raise cls(f"time ran backwards: {when} < {self._now}")
        if self.event_log is not None:
            self.event_log.append((when, seq, type(event).__name__))
        self._now = when
        event._run_callbacks()
        return self._now

    def run(self, until: float | Event | None = None) -> Any:
        """Run the loop.

        * ``until=None`` — drain all events.
        * ``until=<float>`` — stop when the clock would pass that time.
        * ``until=<Event>`` — stop when that event has fired; returns its
          value (raises its exception).  Raises :class:`DeadlockError` if
          the queue drains first.

        The event and drain shapes share one dispatch loop (a drain waits
        on :data:`_DRAIN`, which never fires), written inline rather than
        calling :meth:`step` — this is the simulator's innermost loop and
        the method-call + attribute-lookup overhead is measurable on
        executor-scale replays.  Keep the two in sync.  Only these shapes
        allow inline clock advances (:meth:`skip`).
        """
        held = self._until
        if until is None or isinstance(until, Event):
            target = _DRAIN if until is None else until
            heap = self._heap
            pop = heapq.heappop
            log = self.event_log
            self._until = target if log is None else None
            try:
                while not target._processed:
                    if not heap:
                        if target is _DRAIN:
                            return None
                        raise DeadlockError(
                            f"event queue drained before target event fired (t={self._now})"
                        )
                    when, seq, event = pop(heap)
                    if when < self._now:
                        cls = SanitizerError if self.sanitize else SimulationError
                        raise cls(f"time ran backwards: {when} < {self._now}")
                    if log is not None:
                        log.append((when, seq, type(event).__name__))
                    self._now = when
                    event._run_callbacks()
            finally:
                self._until = held
            return target.value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        heap = self._heap
        self._until = None
        try:
            while heap and heap[0][0] <= horizon:
                self.step()
        finally:
            self._until = held
        self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} pending={len(self._heap)}>"
