"""Pre-assembled swap backend modules.

Section IV-A1: "We prepare a set of pre-configured FM backend modules to
serve as swapper backends... Each FM backend module functions as a
supplementary patch to the original swap kernel.  Implementing these
patches into the OS entails kernel recompiling overhead.  To streamline
this process and minimize compilation time, we proactively assemble FM
backend modules as backups for low-overhead switching."

A :class:`SwapBackendModule` binds one far-memory device to swap store/load
functions over a swap area of ``n_slots`` pages, and carries the start/stop
costs that the switching-overhead study (Fig 18-b) measures.  Which backend
owns a page is the frontend's record; a module keeps only the set of pages
it holds (or is storing), which its own capacity and double-store checks
need.
"""

from __future__ import annotations

from repro.devices.base import FarMemoryDevice
from repro.devices.registry import BackendKind
from repro.errors import BackendUnavailableError, SlotExhaustedError, SwapError
from repro.simcore import Simulator
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
    """One switchable backend: device + swap area + lifecycle."""

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
        if area < PAGE_SIZE:
            raise ValueError(f"swap area of {area} bytes holds no {PAGE_SIZE}-byte slot")
        #: page slots in the swap area
        self.n_slots = area // PAGE_SIZE
        self.name = name or f"{kind}:{device.name}"
        self.active = False
        #: pages this backend holds or is storing
        self._pages: set[int] = set()

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
            if self._pages:
                raise SwapError(f"{self.name}: stop with {len(self._pages)} pages resident")
            yield self.sim.timeout(self.stop_cost)
            self.active = False
        return self.sim.process(proc(), name=f"{self.name}:stop")

    # -- data path ---------------------------------------------------------
    def _require_active(self) -> None:
        if not self.active:
            raise BackendUnavailableError(f"backend {self.name} is not active")

    def holds(self, page: int) -> bool:
        """Whether this backend currently stores ``page``."""
        return page in self._pages

    def store(self, page: int, granularity: int = PAGE_SIZE):
        """Swap ``page`` out to this backend.

        Validation and the page's slot claim run eagerly, at the call,
        which returns the device's write generator for the caller's
        process to ``yield from``.  A caller whose write failed releases
        the claim with :meth:`invalidate`.
        """
        self._require_active()
        if page in self._pages:
            raise SwapError(f"page {page} already stored on {self.name}")
        if len(self._pages) >= self.n_slots:
            raise SlotExhaustedError(f"all {self.n_slots} swap slots of {self.name} in use")
        self._pages.add(page)
        return self.device.write(granularity, granularity=granularity)

    def load(self, page: int, granularity: int = PAGE_SIZE):
        """Swap ``page`` back in; validated eagerly like :meth:`store`,
        returning the device's read generator.

        The far copy stays (swap-cache semantics: a clean page can later
        be reclaimed again without a rewrite); :meth:`invalidate` drops
        it once the resident page is dirtied.
        """
        self._require_active()
        if page not in self._pages:
            raise SwapError(f"page {page} not present on {self.name}")
        return self.device.read(granularity, granularity=granularity)

    def adopt_pages(self, pages) -> None:
        """Record ``pages`` as held, all or none.

        The batch engines book stores as aggregate flows with no per-page
        bookkeeping, then reconcile the far-resident set here once (it is
        only observable between accesses, which a batched replay never
        is).
        """
        pages = set(pages)
        if not pages.isdisjoint(self._pages):
            raise SwapError(f"page {min(pages & self._pages)} already stored on {self.name}")
        if len(self._pages) + len(pages) > self.n_slots:
            raise SlotExhaustedError(f"{len(pages)} pages overflow the swap slots of {self.name}")
        self._pages |= pages

    def invalidate(self, page: int) -> None:
        """Drop a far copy without any I/O: the resident page was dirtied,
        or the store that claimed its slot failed."""
        if page not in self._pages:
            raise SwapError(f"page {page} not present on {self.name}")
        self._pages.remove(page)

    def invalidate_pages(self, pages) -> None:
        """Bulk :meth:`invalidate`, all or none — the batch replay's seam
        reconciliation drops thousands of copies at once."""
        pages = set(pages)
        if not pages <= self._pages:
            raise SwapError(f"page {min(pages - self._pages)} not present on {self.name}")
        self._pages -= pages

    @property
    def resident_pages(self) -> int:
        """Pages currently swapped out to this backend."""
        return len(self._pages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SwapBackendModule {self.name} active={self.active} pages={len(self._pages)}>"


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
