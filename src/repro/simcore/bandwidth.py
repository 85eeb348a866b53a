"""Fluid fair-share bandwidth link.

Models a shared pipe (a PCIe root complex, a NIC port, an SSD's internal
bus) through which several transfers proceed simultaneously, each receiving
an equal share of the capacity.  This is the classic processor-sharing
fluid model: with *n* active flows, each drains at ``capacity / n``
bytes/second.

The implementation advances lazily: flow states are only updated when the
active set changes (arrival or departure), so cost is O(active flows) per
change rather than per byte.  :meth:`FairShareLink.solo_transfer` resolves
a lone flow on an idle link in closed form, replaying the same float steps
the event loop would take.
"""

from __future__ import annotations

import math

from repro.errors import SanitizerError, SimulationError
from repro.simcore.engine import Event, Simulator

__all__ = ["FairShareLink"]

#: Residual bytes below this are considered delivered. Transfers in this
#: simulator are >= page scale (4 KiB), so a micro-byte epsilon is safely
#: below any real payload while absorbing float rounding.
_EPS_BYTES = 1e-6


class _Flow:
    __slots__ = ("event", "remaining")

    def __init__(self, event: Event, nbytes: float) -> None:
        self.event = event
        self.remaining = float(nbytes)


class FairShareLink:
    """A capacity-``bandwidth`` link shared fairly among active transfers."""

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "") -> None:
        if not bandwidth > 0:  # negated so a NaN bandwidth fails too
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self._flows: list[_Flow] = []
        self._last_update = 0.0
        self._wakeup: Event | None = None
        # metrics
        self.total_bytes = 0.0
        self.busy_time = 0.0

    @property
    def active_flows(self) -> int:
        """Number of transfers currently in progress."""
        return len(self._flows)

    def utilization(self, horizon: float | None = None) -> float:  # simlint: dim[return=dimensionless]
        """Fraction of wall time the link carried at least one flow.

        With flows still in flight, the open interval since the last state
        change counts as busy (``_last_update`` is refreshed on every
        arrival and departure, and the flow set was non-empty throughout
        it).  A ``horizon`` earlier than the time busy-time has already
        been accrued to would overstate utilization; the result is clamped
        to 1.0 either way.
        """
        elapsed = horizon if horizon is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        busy = self.busy_time
        if self._flows:
            busy += self.sim.now - self._last_update
        return min(1.0, busy / elapsed)

    def account_external(self, nbytes: float, busy: float) -> None:
        """Credit traffic resolved outside the event loop.

        The rack fabric (:mod:`repro.topology.rack`) credits the lease
        traffic its per-node runs measured onto each donor's link here, so
        ``total_bytes``/``busy_time``/:meth:`utilization` agree with what
        a fleet-wide event run would have recorded.
        """
        if nbytes < 0 or busy < 0:
            raise ValueError(
                f"external credit must be non-negative, got {nbytes} bytes / {busy} s"
            )
        if self.sim.sanitize and not (math.isfinite(nbytes) and math.isfinite(busy)):
            raise SanitizerError(
                f"link {self.name!r}: non-finite external credit "
                f"({nbytes!r} bytes, {busy!r} s)"
            )
        self.total_bytes += nbytes
        self.busy_time += busy

    # -- internal fluid mechanics ----------------------------------------
    def _sanitize_state(self) -> None:
        """Sanitizer invariants: capacity and flow state are finite and sane."""
        if not math.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise SanitizerError(
                f"link {self.name!r}: non-positive or non-finite bandwidth "
                f"{self.bandwidth!r}"
            )
        for f in self._flows:
            if not math.isfinite(f.remaining):
                raise SanitizerError(
                    f"link {self.name!r}: non-finite residual {f.remaining!r} bytes"
                )

    # Lone-flow arithmetic, shared by the event path (_advance,
    # _earliest_finish) and solo_transfer, so both take the same float
    # steps.  A lone flow gets the whole capacity: the general loops'
    # ``bandwidth / len(flows)`` at one flow, which is exact.
    def _lone_drain(self, remaining: float, dt: float) -> float:  # simlint: dim[return=bytes, remaining=bytes, dt=seconds]
        """Drain a lone flow for ``dt`` busy seconds; returns its residue."""
        self.busy_time += dt
        drained = self.bandwidth * dt
        remaining -= drained
        self.total_bytes += min(drained, max(0.0, remaining + drained))
        return remaining

    def _lone_finish(self, remaining: float) -> float:  # simlint: dim[return=seconds, remaining=bytes]
        """Seconds until a lone flow with ``remaining`` bytes drains."""
        return remaining / self.bandwidth

    def _advance(self) -> None:
        """Drain bytes for time elapsed since the last state change."""
        if self.sim.sanitize:
            self._sanitize_state()
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        if dt <= 0 or not flows:
            return
        if len(flows) == 1:
            # lone-flow fast path: the common case on per-device media pipes
            f = flows[0]
            f.remaining = self._lone_drain(f.remaining, dt)
            if f.remaining <= _EPS_BYTES:
                del flows[0]
                f.event.succeed(None)
            return
        self.busy_time += dt
        drained = self.bandwidth / len(flows) * dt  # every flow's equal share
        done: list[_Flow] = []
        for f in flows:
            f.remaining -= drained
            self.total_bytes += min(drained, max(0.0, f.remaining + drained))
            if f.remaining <= _EPS_BYTES:
                done.append(f)
        for f in done:
            flows.remove(f)
            f.event.succeed(None)

    def _complete_underflowed(self) -> float | None:
        """Force-complete flows whose finish delay underflows the clock.

        With a residue of a few nano-bytes, ``now + dt == now`` in float64
        and the wakeup loop would spin without advancing time; such flows
        are physically done.  Returns the earliest finish delay of the
        surviving flows (``None`` when the link drains idle) so the caller
        does not recompute it.
        """
        while True:
            dt = self._earliest_finish()
            if dt is None:
                return None
            now = self.sim._now
            if now + dt > now:
                return dt
            f = min(self._flows, key=lambda fl: fl.remaining)
            self._flows.remove(f)
            f.event.succeed(None)

    def _earliest_finish(self) -> float | None:  # simlint: dim[return=seconds]
        flows = self._flows
        if not flows:
            return None
        if len(flows) == 1:
            return self._lone_finish(flows[0].remaining)
        rate = self.bandwidth / len(flows)
        return min(f.remaining / rate for f in flows)

    def _reschedule(self) -> None:
        # Invalidate any previously scheduled wakeup by replacing it; stale
        # wakeups become no-ops because _advance() recomputes from scratch.
        dt = self._complete_underflowed()
        if dt is None:
            self._wakeup = None
            return
        wake = self.sim.timeout(dt if dt > 0.0 else 0.0)
        self._wakeup = wake
        wake.callbacks.append(self._on_wake)

    def _on_wake(self, event: Event) -> None:
        if event is not self._wakeup:
            return  # superseded by a later state change
        self._advance()
        self._reschedule()

    def _check_transfer(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.sim.sanitize and not math.isfinite(nbytes):
            # NaN slips past the sign check and stalls the fluid model.
            raise SanitizerError(
                f"link {self.name!r}: non-finite transfer ({nbytes!r} bytes)"
            )

    # -- public API --------------------------------------------------------
    def transfer(self, nbytes: float) -> Event:
        """Start moving ``nbytes`` through the link; fires on completion."""
        self._check_transfer(nbytes)
        ev = Event(self.sim)
        if nbytes == 0:
            ev.succeed(None)
            return ev
        self._advance()
        self._flows.append(_Flow(ev, nbytes))
        self._reschedule()
        return ev

    def solo_transfer(self, nbytes: float) -> float:  # simlint: dim[return=seconds]
        """Completion time of a lone ``nbytes`` flow started now on this idle link.

        Replays what :meth:`transfer` and the event loop do when nothing
        else touches the link until the flow completes: the same wakeup
        times (``now + finish delay``, re-woken while a residue above the
        completion epsilon is left), the same force-completion once a
        finish delay underflows the clock, and the same ``busy_time``,
        ``total_bytes`` and ``_last_update`` credits, float for float.
        Schedules no event; the caller owns the clock
        (:meth:`Simulator.skip_to`).
        """
        self._check_transfer(nbytes)
        now = self.sim._now
        if nbytes == 0:
            return now
        if self._flows:
            raise SimulationError("solo_transfer() is only valid on an idle link")
        sanitize = self.sim.sanitize
        if sanitize:
            self._sanitize_state()
        # transfer(): _advance() on the idle link only stamps the clock
        self._last_update = now
        remaining = float(nbytes)
        while True:
            # _reschedule(): a finish delay that underflows the clock
            # force-completes the flow, else a wakeup fires at now + dt
            dt = self._lone_finish(remaining)
            if not now + dt > now:
                return now
            now = now + dt
            # _on_wake() -> _advance() at the wakeup
            if sanitize:
                self._sanitize_state()
            elapsed = now - self._last_update
            self._last_update = now
            remaining = self._lone_drain(remaining, elapsed)
            if remaining <= _EPS_BYTES:
                return now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FairShareLink {self.name or id(self)} bw={self.bandwidth:.3g} flows={len(self._flows)}>"
