"""Local-memory accounting with cgroup ``memory.high`` semantics.

The paper triggers data swap by "configur[ing] the memory.high file in
Cgroup to limit the usage of local memory" (Section V-A2 step i).  The
model here reproduces that mechanism: charges above the high watermark
invoke a reclaim callback that must free pages (by swapping them out)
until usage is back under the limit.  The far-memory-*ratio* knob of
Table III is expressed through :meth:`CgroupMemoryLimiter.set_fm_ratio`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import CapacityError, ConfigurationError
from repro.units import PAGE_SIZE

__all__ = ["LocalMemoryAllocator", "CgroupMemoryLimiter"]

#: Table III bounds the far-memory ratio to 0..0.9 — at least 10% of the
#: working set must stay local or the system livelocks on its own reclaim.
MAX_FM_RATIO = 0.9


class LocalMemoryAllocator:
    """Byte-granular accounting of one pool of local DRAM."""

    def __init__(self, capacity: int, name: str = "") -> None:
        if not capacity > 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.used = 0
        self.peak = 0

    @property
    def free(self) -> int:
        """Bytes not currently charged."""
        return self.capacity - self.used

    def charge(self, nbytes: int) -> None:
        """Account an allocation; raises :class:`CapacityError` when full."""
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.used + nbytes > self.capacity:
            raise CapacityError(
                f"{self.name or 'allocator'}: {nbytes} requested, {self.free} free"
            )
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used

    def uncharge(self, nbytes: int) -> None:
        """Release a previous charge."""
        if not 0 <= nbytes <= self.used:
            raise ValueError(f"uncharge({nbytes}) invalid with used={self.used}")
        self.used -= nbytes


class CgroupMemoryLimiter:
    """``memory.high`` for one workload: charge pages, reclaim over limit.

    ``reclaim`` is called with the number of *pages* that must be freed and
    must return the number actually freed (the swap path does the freeing
    by evicting LRU-cold pages to the bound backend).
    """

    def __init__(
        self,
        limit_bytes: int,
        reclaim: Callable[[int], int] | None = None,
        page_size: int = PAGE_SIZE,
        name: str = "",
    ) -> None:
        if not limit_bytes > 0:
            raise ConfigurationError(f"limit_bytes must be positive, got {limit_bytes}")
        if not page_size > 0:
            raise ConfigurationError(f"page_size must be positive, got {page_size}")
        self.limit_bytes = limit_bytes
        self.reclaim = reclaim
        self.page_size = page_size
        self.name = name
        self.resident_pages = 0
        self.reclaim_invocations = 0
        self.pages_reclaimed = 0

    @property
    def limit_pages(self) -> int:
        """The high watermark in pages."""
        return self.limit_bytes // self.page_size

    def charge_page(self) -> int:
        """Charge one page; returns pages reclaimed to stay under the limit."""
        self.resident_pages += 1
        freed = 0
        over = self.resident_pages - self.limit_pages
        if over > 0:
            if self.reclaim is None:
                self.resident_pages -= 1
                raise CapacityError(
                    f"{self.name or 'cgroup'}: over memory.high with no reclaimer"
                )
            self.reclaim_invocations += 1
            freed = self.reclaim(over)
            if freed < over:
                raise CapacityError(
                    f"{self.name or 'cgroup'}: reclaim freed {freed} < needed {over}"
                )
            self.resident_pages -= freed
            self.pages_reclaimed += freed
        return freed

    def uncharge_page(self, n: int = 1) -> None:
        """Release ``n`` resident pages (process exit, madvise(DONTNEED))."""
        if not 0 <= n <= self.resident_pages:
            raise ValueError(f"uncharge_page({n}) invalid with resident={self.resident_pages}")
        self.resident_pages -= n

    def set_limit(self, limit_bytes: int) -> None:
        """Rewrite memory.high; reclaims immediately if now over."""
        if not limit_bytes > 0:
            raise ConfigurationError(f"limit_bytes must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        over = self.resident_pages - self.limit_pages
        if over > 0:
            if self.reclaim is None:
                raise CapacityError(f"{self.name or 'cgroup'}: shrink with no reclaimer")
            self.reclaim_invocations += 1
            freed = self.reclaim(over)
            self.resident_pages -= freed
            self.pages_reclaimed += freed

    def set_fm_ratio(self, working_set_bytes: int, fm_ratio: float) -> None:
        """Express the Table-III far-memory-ratio knob as a memory.high value.

        ``fm_ratio`` of the working set is pushed to far memory; the limit
        becomes the remaining local share.  Valid range 0..0.9.
        """
        if not 0.0 <= fm_ratio <= MAX_FM_RATIO:
            raise ConfigurationError(
                f"fm_ratio must be in [0, {MAX_FM_RATIO}], got {fm_ratio}"
            )
        if not working_set_bytes > 0:
            raise ConfigurationError("working_set_bytes must be positive")
        local = max(self.page_size, int(working_set_bytes * (1.0 - fm_ratio)))
        self.set_limit(local)
