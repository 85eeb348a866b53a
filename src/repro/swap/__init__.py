"""Swap subsystem: the machinery between page reclaim and far memory.

Event-level pieces (used where contention/interleaving matters):

* :class:`~repro.swap.backend.SwapBackendModule` — a pre-assembled backend
  "patch" binding a far-memory device and its swap area to swap read/write
  functions;
* :class:`~repro.swap.frontend.SwapFrontend` — the frontswap-style frontend
  xDM modifies: dispatches anonymous-page store/load to the active backend
  (the executor skips file-backed pages before they reach it), supports
  live backend switching, and records which backend holds each far page;
* :class:`~repro.swap.channel.ChannelMode` — shared vs isolated vs
  VM-isolated swap channels (Fig 17's three contenders).

Analytic pieces (used for parameter sweeps and the big tables):

* :class:`~repro.swap.pathmodel.SwapConfig` / :class:`~repro.swap.pathmodel.SwapPathModel`
  — closed-form swap cost for one (workload, device, configuration), the
  quantitative heart of the reproduction;
* :class:`~repro.swap.pathmodel.MultiPathModel` — traffic split across
  several simultaneous far-memory paths (the multi-backend case).
"""

from repro.swap.backend import SwapBackendModule, build_backend_module
from repro.swap.channel import ChannelMode
from repro.swap.frontend import SwapFrontend
from repro.swap.executor import (
    SwapExecutionResult,
    SwapExecutor,
    make_contended_executors,
    run_event,
    run_tenants,
)
from repro.swap.replay import replay_run_multi
from repro.swap.pathmodel import (
    PathType,
    SwapConfig,
    SwapCost,
    SwapPathModel,
    MultiPathModel,
)

__all__ = [
    "SwapBackendModule",
    "build_backend_module",
    "ChannelMode",
    "SwapFrontend",
    "SwapExecutor",
    "SwapExecutionResult",
    "run_event",
    "run_tenants",
    "make_contended_executors",
    "replay_run_multi",
    "PathType",
    "SwapConfig",
    "SwapCost",
    "SwapPathModel",
    "MultiPathModel",
]
