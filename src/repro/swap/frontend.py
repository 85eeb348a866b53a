"""The switchable swap frontend (Fig 7's modified frontswap).

The frontend sits between page reclaim and the backend modules:

* **store path** (data offloading, (1)-(2) in Fig 7): reclaim hands over
  anonymous pages drawn from the LRU lists; the frontend forwards each to
  the *active* backend's write function.  File-backed pages never reach
  it: the executor counts them as ``file_skips`` ("the frontend skips
  file-backed page operations directly").
* **load path** (data fetching, (5)): a page fault on a swapped page calls
  back into the owning backend — pages swapped out before a switch remain
  readable from their old backend until faulted back (lazy migration).
* **switching** ((3)-(4), ``switch_to_SSD`` / ``switch_to_RDMA``): new
  stores go to the new backend immediately; the old module stays up while
  it still holds pages.

``_owner`` is the one record of which backend holds a valid far copy of
each page (the page -> backend view the paper's listening queue keeps in
sync).  It changes with each store and invalidation; a load keeps the
copy (swap-cache semantics), and a dirtied page drops it through
:meth:`SwapFrontend.invalidate_page`.  Each data-path method returns a
generator that the caller's process drives with ``yield from``: a load
checks its page and hands back the device's read generator itself, and
a store wraps the device write so it can record the owner afterwards.
"""

from __future__ import annotations

from repro.errors import BackendUnavailableError, SwitchInProgressError
from repro.simcore import Simulator
from repro.swap.backend import SwapBackendModule
from repro.units import PAGE_SIZE

__all__ = ["SwapFrontend"]


class SwapFrontend:
    """Per-VM swap frontend with pluggable, switchable backends."""

    def __init__(self, sim: Simulator, name: str = "frontend") -> None:
        self.sim = sim
        self.name = name
        self._modules: dict[str, SwapBackendModule] = {}
        self._active: str | None = None
        self._switching = False
        #: page -> backend-name that holds it
        self._owner: dict[int, str] = {}
        self.switches = 0

    # -- module management --------------------------------------------------
    def register(self, module: SwapBackendModule) -> None:
        """Install a pre-assembled backend module (inactive until switched to)."""
        if module.name in self._modules:
            raise BackendUnavailableError(f"module {module.name} already registered")
        self._modules[module.name] = module

    @property
    def backends(self) -> tuple[str, ...]:
        """Registered backend module names."""
        return tuple(self._modules)

    @property
    def active_backend(self) -> str | None:
        """Name of the module new stores go to."""
        return self._active

    def module(self, name: str) -> SwapBackendModule:
        """Look up a registered module."""
        try:
            return self._modules[name]
        except KeyError:
            raise BackendUnavailableError(f"unknown backend {name!r}") from None

    def switch_to(self, name: str):
        """DES process: make ``name`` the active backend.

        Costs = stop of nothing (the old module keeps serving its resident
        pages) + start of the new module if it is not already up.  Mirrors
        the paper's warm-start: pre-assembled modules make this seconds,
        not a host reboot.
        """
        target = self.module(name)
        if self._switching:
            raise SwitchInProgressError(f"{self.name}: switch already in progress")
        self._switching = True

        def proc():
            try:
                if not target.active:
                    yield target.start()
                self._active = name
                self.switches += 1
            finally:
                self._switching = False
            return name

        return self.sim.process(proc(), name=f"{self.name}:switch:{name}")

    # -- data path ------------------------------------------------------------
    def store_page(self, page: int, granularity: int = PAGE_SIZE):
        """Offload one reclaimed anonymous page to the active backend."""
        if self._active is None:
            raise BackendUnavailableError(f"{self.name}: no active backend")
        # capture the active name once: a concurrent switch_to may complete
        # while the device I/O is in flight, and ownership must record the
        # module that actually took the page, not whoever is active by then
        active = self._active
        module = self._modules[active]
        yield from module.store(page, granularity=granularity)
        self._owner[page] = active

    def load_page(self, page: int, granularity: int = PAGE_SIZE):
        """Fault one page back in from whichever backend holds it.

        Checked at the call, like :meth:`SwapBackendModule.load`, which
        returns the owning device's read generator for the caller to
        drive.  The far copy stays in place (swap-cache semantics), so a
        clean reclaim later needs no rewrite and the page still answers
        True to :meth:`swapped_out` until :meth:`invalidate_page` drops
        it.
        """
        owner = self._owner.get(page)
        if owner is None:
            raise BackendUnavailableError(f"{self.name}: page {page} not swapped out")
        return self._modules[owner].load(page, granularity=granularity)

    def adopt_far_pages(self, pages) -> None:
        """Record ``pages`` as far-resident on the active backend — the
        batch replay's ownership sync after it booked the stores as
        aggregate flows."""
        name = self._active
        if name is None:
            raise BackendUnavailableError(f"{self.name}: no active backend")
        self._modules[name].adopt_pages(pages)
        self._owner.update(dict.fromkeys(pages, name))

    def abort_store(self, page: int) -> None:
        """Roll back a failed in-flight store before ownership was recorded.

        Called by retry loops that caught a device error out of
        :meth:`store_page`: the module's eager slot claim is released so
        the store can be re-submitted (to this backend or, after a
        failover, another).  The claim is looked up across modules rather
        than on the active one — a switch may have completed while the
        failed store was in flight.
        """
        for module in self._modules.values():
            if module.holds(page):
                module.invalidate(page)
                return
        raise BackendUnavailableError(
            f"{self.name}: page {page} has no in-flight store to abort"
        )

    def invalidate_page(self, page: int) -> None:
        """Drop a retained far copy (the resident page was dirtied)."""
        owner = self._owner.pop(page, None)
        if owner is None:
            raise BackendUnavailableError(f"{self.name}: page {page} has no far copy")
        self._modules[owner].invalidate(page)

    def invalidate_pages(self, pages) -> None:
        """Bulk :meth:`invalidate_page`, grouped per owning backend, all or
        none: every page is checked before any copy is dropped, and a
        repeated page counts once."""
        owner_map = self._owner
        groups: dict[str, list[int]] = {}
        for page in dict.fromkeys(pages):
            owner = owner_map.get(page)
            if owner is None:
                raise BackendUnavailableError(
                    f"{self.name}: page {page} has no far copy")
            groups.setdefault(owner, []).append(page)
        for name, group in groups.items():
            self._modules[name].invalidate_pages(group)
            for page in group:
                del owner_map[page]

    def swapped_out(self, page: int) -> bool:
        """Whether ``page`` currently lives on some backend."""
        return page in self._owner

    def owner_of(self, page: int) -> str | None:
        """Backend name currently holding ``page`` (None if not swapped out)."""
        return self._owner.get(page)

    @property
    def resident_far_pages(self) -> int:
        """Pages currently in far memory across all modules."""
        return len(self._owner)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SwapFrontend {self.name} active={self._active} "
            f"backends={list(self._modules)} far={len(self._owner)}>"
        )
