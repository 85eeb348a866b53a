"""Page-level vocabulary shared by the memory and swap subsystems.

The swap frontend only ever sees **anonymous** pages: Linux's frontswap
hook (and therefore xDM's swapper) intercepts anonymous-page reclaim, while
file-backed pages are written back to their files instead (Section IV-A1:
"the frontend skips file-backed page operations directly").  The
anonymous/file distinction is therefore load-bearing for the switching
strategy (Fig 8) and is carried on every trace record.

Per-page state lives with its users: residency in the executor's LRU,
and which backend holds a page's far copy in the swap frontend's owner
record (:class:`repro.swap.frontend.SwapFrontend`).
"""

from __future__ import annotations

import enum

from repro.units import PAGE_SIZE

__all__ = ["PAGE_SIZE", "PageKind", "PageOp"]


class PageKind(enum.IntEnum):
    """What backs a virtual page."""

    ANON = 0   #: anonymous (heap/stack/tmpfs) — swappable via frontswap
    FILE = 1   #: file-backed — written back to its file, never frontswapped


class PageOp(enum.IntEnum):
    """The access type recorded in page traces."""

    LOAD = 0
    STORE = 1
