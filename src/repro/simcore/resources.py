"""FCFS resources for the event engine.

:class:`Resource` models a pool of identical servers (disk I/O channels,
RDMA queue pairs, CPU cores): requests queue first-come-first-served and
each grant occupies one server until released.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SanitizerError, SimulationError
from repro.simcore.engine import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A multi-server FCFS resource.

    Usage inside a process::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(grant)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # metrics
        self.total_grants = 0
        self.total_wait = 0.0
        self._enqueue_times: dict[int, float] = {}
        # sanitizer mode: outstanding grant tokens, to catch double-release
        self._granted: set[Event] = set()

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._queue)

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay over all grants so far."""
        return self.total_wait / self.total_grants if self.total_grants else 0.0

    def request(self) -> Event:
        """Ask for one server; the returned event fires when granted.

        The event's value is an opaque grant token to pass to
        :meth:`release`.
        """
        ev = Event(self.sim)
        if self._in_use < self.capacity and not self._queue:
            self._grant(ev)
            ev.succeed(ev)
        else:
            self._enqueue_times[id(ev)] = self.sim.now
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> Event | None:
        """Grant a server synchronously if one is free, else ``None``.

        Fast path for uncontended resources: the returned grant token is
        never scheduled through the event heap, so the caller proceeds in
        the same engine step.  Fall back to :meth:`request` (and yield)
        when this returns ``None``::

            grant = pool.try_acquire()
            if grant is None:
                grant = yield pool.request()
        """
        if self._in_use >= self.capacity or self._queue:
            return None
        ev = Event(self.sim)
        self._grant(ev)
        return ev

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.total_grants += 1
        if self.sim.sanitize:
            self._granted.add(ev)

    def release(self, grant: Event) -> None:
        """Return the server obtained via ``grant`` to the pool."""
        if self.sim.sanitize:
            if grant not in self._granted:
                raise SanitizerError(
                    f"release of un-granted or already-released grant on "
                    f"resource {self.name!r}"
                )
            self._granted.discard(grant)
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        self._in_use -= 1
        if self._queue:
            nxt = self._queue.popleft()
            self._grant(nxt)
            self.total_wait += self.sim.now - self._enqueue_times.pop(id(nxt))
            nxt.succeed(nxt)
        if self.sim.sanitize:
            self._check_occupancy()

    def _check_occupancy(self) -> None:
        """Sanitizer invariants: occupancy and wait-queue bookkeeping agree."""
        if self._in_use < 0:
            raise SanitizerError(f"resource {self.name!r}: negative occupancy {self._in_use}")
        if len(self._queue) != len(self._enqueue_times):
            raise SanitizerError(
                f"resource {self.name!r}: wait-queue bookkeeping diverged "
                f"({len(self._queue)} queued vs {len(self._enqueue_times)} stamps)"
            )

    def resize(self, capacity: int) -> None:
        """Change the number of servers (the I/O-width tuning knob).

        Growing wakes queued requests immediately; shrinking lets current
        holders drain naturally (no preemption), matching how changing an
        SSD's I/O thread count behaves.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self._queue and self._in_use < self.capacity:
            nxt = self._queue.popleft()
            self._grant(nxt)
            self.total_wait += self.sim.now - self._enqueue_times.pop(id(nxt))
            nxt.succeed(nxt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name or id(self):} cap={self.capacity} "
            f"busy={self._in_use} queued={len(self._queue)}>"
        )
