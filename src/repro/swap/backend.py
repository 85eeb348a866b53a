"""Pre-assembled swap backend modules.

Section IV-A1: "We prepare a set of pre-configured FM backend modules to
serve as swapper backends... Each FM backend module functions as a
supplementary patch to the original swap kernel.  Implementing these
patches into the OS entails kernel recompiling overhead.  To streamline
this process and minimize compilation time, we proactively assemble FM
backend modules as backups for low-overhead switching."

A :class:`SwapBackendModule` binds one far-memory device to swap store/load
functions and a slot allocator, and carries the start/stop costs that the
switching-overhead study (Fig 18-b) measures.
"""

from __future__ import annotations

from repro.devices.base import FarMemoryDevice
from repro.devices.registry import BackendKind
from repro.errors import BackendUnavailableError, SwapError
from repro.simcore import Simulator
from repro.swap.slots import SwapSlotAllocator
from repro.units import PAGE_SIZE, msec

__all__ = ["SwapBackendModule", "build_backend_module", "MODULE_START_COST", "MODULE_STOP_COST"]

#: Start-up cost of a pre-assembled backend module, seconds (Fig 18-b: all
#: switches < 5 s; DRAM is slowest because the host must allocate/pin the
#: reserved region).
MODULE_START_COST: dict[BackendKind, float] = {
    BackendKind.SSD: 0.9,    # swapon on a prepared partition
    BackendKind.RDMA: 1.3,   # QP setup + memory registration on the VF
    BackendKind.DRAM: 2.8,   # host-side region allocation + pinning
    BackendKind.HDD: 1.1,
    BackendKind.CXL: 0.8,
    BackendKind.ZSWAP: 0.4,  # pool allocation only, no device init
}

#: Shut-down cost (drain + swapoff of in-flight pages), seconds.
MODULE_STOP_COST: dict[BackendKind, float] = {
    BackendKind.SSD: 0.6,
    BackendKind.RDMA: 0.5,
    BackendKind.DRAM: 0.4,
    BackendKind.HDD: 0.9,
    BackendKind.CXL: 0.4,
    BackendKind.ZSWAP: 0.7,  # must decompress or write back the pool
}


class SwapBackendModule:
    """One switchable backend: device + slots + lifecycle."""

    def __init__(
        self,
        sim: Simulator,
        kind: BackendKind,
        device: FarMemoryDevice,
        swap_bytes: int | None = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.kind = kind
        self.device = device
        area = swap_bytes if swap_bytes is not None else device.profile.capacity
        self.slots = SwapSlotAllocator.for_bytes(area)
        self.name = name or f"{kind}:{device.name}"
        self.active = False
        #: page -> slot, the swap map
        self._map: dict[int, int] = {}
        self.pages_stored = 0
        self.pages_loaded = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def start_cost(self) -> float:
        """Seconds to bring this module online (pre-assembled, no rebuild)."""
        return MODULE_START_COST[self.kind]

    @property
    def stop_cost(self) -> float:
        """Seconds to drain and take this module offline."""
        return MODULE_STOP_COST[self.kind]

    def start(self):
        """DES process: activate the module."""
        def proc():
            yield self.sim.timeout(self.start_cost)
            self.active = True
        return self.sim.process(proc(), name=f"{self.name}:start")

    def stop(self):
        """DES process: deactivate (must hold no pages)."""
        def proc():
            if self._map:
                raise SwapError(f"{self.name}: stop with {len(self._map)} pages resident")
            yield self.sim.timeout(self.stop_cost)
            self.active = False
        return self.sim.process(proc(), name=f"{self.name}:stop")

    # -- data path ---------------------------------------------------------
    def _require_active(self) -> None:
        if not self.active:
            raise BackendUnavailableError(f"backend {self.name} is not active")

    def holds(self, page: int) -> bool:
        """Whether this backend currently stores ``page``."""
        return page in self._map

    def store(self, page: int, granularity: int = PAGE_SIZE):
        """Swap ``page`` out to this backend.

        Slot bookkeeping and validation run eagerly, at the call; the
        returned generator runs the device write when the caller's
        process ``yield from``s it and returns the slot.
        """
        self._require_active()
        if page in self._map:
            raise SwapError(f"page {page} already stored on {self.name}")
        slot = self.slots.allocate()
        self._map[page] = slot

        def gen():
            yield from self.device.write(granularity, granularity=granularity)
            self.pages_stored += 1
            return slot

        return gen()

    def load(self, page: int, granularity: int = PAGE_SIZE, keep: bool = False):
        """Swap ``page`` back in; validated eagerly like :meth:`store`.

        ``keep=True`` retains the slot and copy (swap-cache semantics: a
        clean page can later be reclaimed again without a rewrite);
        ``keep=False`` frees the slot (the default kernel fast path once
        the page is dirtied).
        """
        self._require_active()
        if page not in self._map:
            raise SwapError(f"page {page} not present on {self.name}")
        if not keep:
            slot = self._map.pop(page)
            self.slots.release(slot)

        def gen():
            yield from self.device.read(granularity, granularity=granularity)
            self.pages_loaded += 1
            return page

        return gen()

    def adopt_pages(self, pages) -> None:
        """Materialize map + slots for pages stored through batched flows.

        The batch engines book stores as aggregate flows with no per-page
        slot or map bookkeeping, then reconcile the far-resident set here
        once (the swap map is only observable between accesses, which a
        batched replay never is).
        """
        for page in pages:
            if page in self._map:
                raise SwapError(f"page {page} already stored on {self.name}")
            self._map[int(page)] = self.slots.allocate()

    def abort_store(self, page: int) -> None:
        """Roll back an in-flight :meth:`store` whose device I/O failed.

        ``store`` claims the slot and map entry eagerly, before the
        device write; a caller that catches an injected device error
        mid-store must release them before re-submitting, or the retry
        would see the page as already stored.
        """
        if page not in self._map:
            raise SwapError(f"abort_store: page {page} has no in-flight store on {self.name}")
        slot = self._map.pop(page)
        self.slots.release(slot)

    def invalidate(self, page: int) -> None:
        """Drop a retained swap-cache copy without any I/O (page dirtied)."""
        if page not in self._map:
            raise SwapError(f"page {page} not present on {self.name}")
        slot = self._map.pop(page)
        self.slots.release(slot)

    def invalidate_pages(self, pages) -> None:
        """Bulk :meth:`invalidate` — the batch replay's per-chunk seam
        reconciliation drops thousands of copies at once and the
        per-page call overhead dominates the dict work."""
        swap_map = self._map
        release = self.slots.release
        for page in pages:
            if page not in swap_map:
                raise SwapError(f"page {page} not present on {self.name}")
            release(swap_map.pop(page))

    @property
    def resident_pages(self) -> int:
        """Pages currently swapped out to this backend."""
        return len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SwapBackendModule {self.name} active={self.active} pages={len(self._map)}>"


def build_backend_module(
    sim: Simulator,
    kind: BackendKind,
    device: FarMemoryDevice,
    swap_bytes: int | None = None,
) -> SwapBackendModule:
    """Assemble (but do not start) a backend module for ``device``."""
    if kind not in MODULE_START_COST:
        raise BackendUnavailableError(f"no module template for backend kind {kind!r}")
    return SwapBackendModule(sim, kind, device, swap_bytes=swap_bytes)
