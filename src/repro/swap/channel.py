"""Swap channels: the isolation spectrum of Fig 17.

* **SHARED** — the traditional kernel design: every co-located task funnels
  through one swap path and one global LRU; tenants contend for queue slots
  *and* flush each other's inactive lists.
* **ISOLATED** — Canvas-style per-application swap partitions and queues on
  a bare-metal host: no cross-tenant contention.
* **VM_ISOLATED** — xDM's approach: each VM carries its own frontend +
  backend pair (SR-IOV VF / dedicated SSD partition), giving isolation at a
  small virtualization tax.

:class:`~repro.swap.pathmodel.SwapPathModel` prices each mode: it applies
:data:`VM_ISOLATION_TAX` and :data:`SHARED_LRU_INTERFERENCE` (plus a
per-co-tenant queueing factor on shared channels) to the template terms.
"""

from __future__ import annotations

import enum

__all__ = ["ChannelMode"]


class ChannelMode(str, enum.Enum):
    """How swap traffic of co-located tasks is segregated."""

    SHARED = "shared"            #: one global swap path (Linux swap, Fastswap)
    ISOLATED = "isolated"        #: per-app channels on the host (Canvas)
    VM_ISOLATED = "vm-isolated"  #: per-VM channels via SR-IOV/partitions (xDM)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Extra per-operation cost factor of crossing the VM boundary (VM exits,
#: vIOMMU translation). SR-IOV keeps this small — the point of using it.
VM_ISOLATION_TAX = 0.06
#: LRU-interference factor on a shared channel: each co-located tenant
#: inflates the victim's fault count by this fraction (their reclaim scans
#: evict each other's warm pages).
SHARED_LRU_INTERFERENCE = 0.18
