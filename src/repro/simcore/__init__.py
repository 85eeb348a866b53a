"""Discrete-event simulation core.

A small, dependency-free engine in the style of SimPy, tuned for the needs
of the xDM reproduction:

* :class:`~repro.simcore.engine.Simulator` — event loop with a float clock.
* :class:`~repro.simcore.engine.Process` — generator-based coroutine
  processes (``yield sim.timeout(dt)``, ``yield resource.request()``, …).
* :class:`~repro.simcore.resources.Resource` — FCFS multi-server resource
  (models I/O channels, RDMA queue pairs, CPU cores).
* :class:`~repro.simcore.bandwidth.FairShareLink` — fluid-flow fair-share
  link (models a PCIe root complex shared by several far-memory backends).
* :class:`~repro.simcore.stats.OnlineStats`/:class:`~repro.simcore.stats.Histogram`
  — cheap online metric collectors.
* :mod:`~repro.simcore.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  sanitizer switch; violations raise :class:`~repro.errors.SanitizerError`.
"""

from repro.simcore.engine import Event, Process, Simulator, Timeout
from repro.simcore.resources import Resource
from repro.simcore.bandwidth import FairShareLink
from repro.simcore.sanitize import REPRO_SANITIZE_VAR, sanitizer_enabled
from repro.simcore.stats import Histogram, OnlineStats, TimeSeries

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Resource",
    "FairShareLink",
    "OnlineStats",
    "Histogram",
    "TimeSeries",
    "REPRO_SANITIZE_VAR",
    "sanitizer_enabled",
]
