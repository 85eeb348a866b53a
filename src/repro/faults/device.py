"""Fault-injecting decorator for far-memory devices.

:class:`FaultyDevice` wraps any :class:`~repro.devices.base.FarMemoryDevice`
and applies a :class:`~repro.faults.plan.FaultPlan` to every interface the
wrapped device exposes:

* the **analytic** interface (``transfer_latency`` / ``effective_bandwidth``
  / ``page_latency``) reflects the degradation active *now* — a path model
  built against the wrapper at time *t* prices the degraded device, while
  one built against ``inner`` prices the healthy profile (the health
  monitor's baseline);
* the **DES** interface (``_io``) gates each admission (offline windows
  reject, transient windows fail seeded draws) and then delegates to the
  wrapped device's *shared* channel pool and media pipes, so every byte
  still crosses the same sanitizer-checked accounting as a healthy run —
  fault windows slow flows down but never lose bytes.

Degradation mechanics:

* latency inflation rides through :meth:`_op_cost` (the command phase the
  base ``_io`` charges serially on the channel);
* bandwidth degradation appends a serial stall after the fair-share
  payload stages, sized so an uncontended transfer's payload time equals
  ``moved / (bw * fraction)`` — the pipes themselves stay at profile speed
  so co-tenants on the shared device are not artificially slowed.

Gating happens at *admission* (the moment the request enters the device);
an op admitted just before a window opens completes normally, mirroring
in-flight I/O surviving a cable pull's first instants.
"""

from __future__ import annotations

import math

from repro.devices.base import FarMemoryDevice
from repro.errors import ConfigurationError, DeviceOfflineError, TransientDeviceError
from repro.faults.plan import FaultPlan

__all__ = ["FaultyDevice"]


class FaultyDevice(FarMemoryDevice):
    """A :class:`FarMemoryDevice` decorator that injects a fault plan."""

    def __init__(self, inner: FarMemoryDevice, plan: FaultPlan) -> None:
        if isinstance(inner, FaultyDevice):
            raise ConfigurationError(
                "stacking FaultyDevice wrappers is not supported; "
                "merge the windows into one plan"
            )
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(f"not a FaultPlan: {plan!r}")
        super().__init__(
            inner.sim,
            inner.profile,
            link=inner.link,
            switch=inner.switch,
            name=f"faulty:{inner.name}",
        )
        self.inner = inner
        self.fault_plan = plan
        # share the wrapped device's contention state: channel grants and
        # payload bytes go through the same pool/pipes whether a caller
        # holds the wrapper or the bare device, so byte accounting and the
        # runtime sanitizer see one consistent device
        self.channel_pool = inner.channel_pool
        self._media_read = inner._media_read
        self._media_write = inner._media_write
        #: injected transient failures surfaced to callers
        self.transient_errors = 0
        #: admissions rejected by an offline window
        self.offline_rejections = 0
        #: total serial stall seconds added by bandwidth windows
        self.degradation_stall = 0.0

    # -- degraded analytic surface -----------------------------------------
    def _op_cost(self, write: bool, granularity: int) -> float:  # simlint: dim[return=seconds]
        return self.inner._op_cost(write, granularity) * self.fault_plan.latency_factor(
            self.sim.now
        )

    def _media_bw(self, write: bool) -> float:  # simlint: dim[return=bytes/sec]
        return self.inner._media_bw(write) * self.fault_plan.bandwidth_fraction(
            self.sim.now
        )

    # -- gating ------------------------------------------------------------
    def _gate(self, write: bool) -> None:
        """Admission check; raises during offline/failed-draw windows."""
        t = self.sim.now
        offline = self.fault_plan.offline(t)
        if offline is not None:
            self.offline_rejections += 1
            raise DeviceOfflineError(
                f"{self.name}: device offline until t={offline.end:.6f} "
                f"(rejected at t={t:.6f})"
            )
        if self.fault_plan.draw_transient(t):
            self.transient_errors += 1
            op = "write" if write else "read"
            raise TransientDeviceError(
                f"{self.name}: injected transient {op} failure at t={t:.6f}"
            )

    def _degradation_stall_gen(self, moved: float, write: bool, fraction: float):  # simlint: dim[moved=bytes, fraction=dimensionless]
        """Serial stall that brings payload time down to degraded bandwidth."""
        if fraction < 1.0:
            healthy = self.inner._media_bw(write)
            stall = moved / (healthy * fraction) - moved / healthy
            self.degradation_stall += stall
            if not self.sim.skip(stall):
                yield self.sim.timeout(stall)

    # -- DES interface -----------------------------------------------------
    def _io(self, nbytes: int, write: bool, granularity: int):
        if nbytes <= 0:
            return 0.0
        if granularity <= 0:
            raise ConfigurationError(f"granularity must be positive, got {granularity}")
        start = self.sim.now
        self._gate(write)
        # sample the bandwidth window at admission so one op sees one
        # consistent degradation level even if a window edge passes mid-op
        fraction = self.fault_plan.bandwidth_fraction(start)
        moved = math.ceil(nbytes / granularity) * granularity
        yield from super()._io(nbytes, write=write, granularity=granularity)
        yield from self._degradation_stall_gen(moved, write, fraction)
        return self.sim.now - start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultyDevice {self.name} plan={self.fault_plan!r}>"
