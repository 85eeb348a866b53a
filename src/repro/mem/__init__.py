"""Memory subsystem: pages, LRU lists, reuse distances, allocation, THP, NUMA.

Two layers cooperate here:

* an **exact, event-level** layer (:mod:`repro.mem.lru`,
  :mod:`repro.mem.allocator`) that the DES swap path uses when co-location
  and contention matter (the isolation study, Fig 17); and
* an **analytic** layer (:mod:`repro.mem.reuse`) that converts a page trace
  into a miss-ratio curve once, after which the fault count for *any*
  local-memory budget — the far-memory-ratio knob — is an O(1) lookup.
  This is what makes sweeping SLOs (Fig 15) and parameter searches
  (the configuration console) tractable.
"""

from repro.mem.page import PAGE_SIZE, PageKind, PageOp
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.reuse import MissRatioCurve, reuse_distances
from repro.mem.allocator import CgroupMemoryLimiter, LocalMemoryAllocator
from repro.mem.thp import THPPolicy, effective_page_size
from repro.mem.numa_policy import NUMAPlacement, NUMAPolicy

__all__ = [
    "PAGE_SIZE",
    "PageKind",
    "PageOp",
    "ActiveInactiveLRU",
    "reuse_distances",
    "MissRatioCurve",
    "LocalMemoryAllocator",
    "CgroupMemoryLimiter",
    "THPPolicy",
    "effective_page_size",
    "NUMAPolicy",
    "NUMAPlacement",
]
