"""The smart FM configuration console (Fig 9).

Given one application's fused page characteristics and one far-memory
device, the console decides the multi-dimensional parameter vector:

* **data granularity** — guided by the THP policy (fragment ratio gates
  promotion; sequential share scales it), then refined by predicted-cost
  search over the 4K-2M candidates;
* **I/O width** — as many channels as the application's fault parallelism
  can drive, refined by search ("we prioritize adding/reducing the
  bandwidth of applications with a more/less sequential data access
  ratio");
* **data distribution** — the far-memory ratio whose predicted runtime
  meets the SLO (binary search on the miss-ratio curve), plus the NUMA
  placement decision for the local share.

The search prices the closed-form :class:`SwapPathModel` through the
batched tuner (:mod:`repro.tune.search`) — the same "offline preparation"
role the paper's profiling shells play — so a full decision costs
microseconds, suitable for per-dispatch use (Algorithm 1 line 4).  The
exhaustive scalar sweeps the tuner replaced are test oracles
(``tests/oracles.py``) that every decision is held identical to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GRANULARITY_CANDIDATES, TunableLimits, xdm_config
from repro.devices.base import FarMemoryDevice
from repro.errors import ConfigurationError
from repro.mem.numa_policy import NUMAPlacement
from repro.mem.thp import THPPolicy
from repro.swap.pathmodel import SwapConfig, SwapCost, SwapPathModel
from repro.trace.fusion import PageFeatures
from repro.tune.search import TuneStats, select_config, slo_bisection
from repro.units import PAGE_SIZE

__all__ = ["ConfigDecision", "SmartConsole"]


@dataclass(frozen=True)
class ConfigDecision:
    """The console's output for one (application, device) pair."""

    config: SwapConfig
    fm_ratio: float
    local_pages: int
    numa_placement: NUMAPlacement
    predicted: SwapCost

    @property
    def granularity(self) -> int:
        """Chosen average page / chunk size."""
        return self.config.granularity

    @property
    def io_width(self) -> int:
        """Chosen channel allocation."""
        return self.config.io_width


class SmartConsole:
    """Parameter optimizer for xDM far-memory paths."""

    def __init__(
        self,
        limits: TunableLimits | None = None,
        thp: THPPolicy | None = None,
        slo_hit_ratio: float = 0.9,
    ) -> None:
        if not 0.0 < slo_hit_ratio <= 1.0:
            raise ConfigurationError(f"slo_hit_ratio must be in (0,1], got {slo_hit_ratio}")
        self.limits = limits or TunableLimits()
        self.thp = thp or THPPolicy()
        self.slo_hit_ratio = slo_hit_ratio
        #: simulated-run ledger across every decision this console makes
        #: (vectorized batches and replays, against the grid reference)
        self.stats = TuneStats()

    def fingerprint(self) -> tuple:
        """Everything a decision depends on besides its call arguments.

        Memoizing callers (fig16's SLO-search memo) key on this so a
        console with different limits/THP/SLO tunables never aliases
        another console's decisions.
        """
        return (
            self.limits.max_fm_ratio,
            self.limits.max_io_channels,
            self.limits.min_page_size,
            self.limits.max_page_size,
            self.thp.min_fragment_ratio,
            self.thp.tlb_benefit,
            self.thp.reclaim_penalty,
            self.slo_hit_ratio,
        )

    # -- individual knobs -------------------------------------------------
    def granularity_candidates(self, features: PageFeatures) -> list[int]:
        """Candidate page sizes, pruned by the THP policy's ceiling."""
        ceiling = self.thp.granularity(features.fragment_ratio, features.seq_access_ratio)
        cands = [g for g in GRANULARITY_CANDIDATES if g <= max(ceiling, PAGE_SIZE)]
        return cands or [PAGE_SIZE]

    def io_width_candidates(
        self, features: PageFeatures, device: FarMemoryDevice, fault_parallelism: float
    ) -> list[int]:
        """Candidate widths up to min(device channels, limits, parallelism headroom)."""
        cap = min(
            device.profile.channels,
            self.limits.max_io_channels,
            max(1, int(fault_parallelism * (1.0 + features.seq_access_ratio))),
        )
        widths = [1]
        while widths[-1] * 2 <= cap:
            widths.append(widths[-1] * 2)
        if widths[-1] != cap:
            widths.append(cap)
        return widths

    def numa_placement(self, numa_sensitivity: float, threshold: float = 0.5) -> NUMAPlacement:
        """Bind sensitive tasks; let insensitive ones spill for balance."""
        if not 0.0 <= numa_sensitivity <= 1.0:
            raise ConfigurationError(f"numa_sensitivity must be in [0,1], got {numa_sensitivity}")
        return (
            NUMAPlacement.LOCAL_BIND
            if numa_sensitivity > threshold
            else NUMAPlacement.REMOTE_SPILL
        )

    def min_fm_ratio_local_pages(self, features: PageFeatures) -> int:
        """Minimum resident pages keeping the hot set local (Section IV-B1)."""
        return features.min_local_pages(self.slo_hit_ratio)

    # -- the full decision ---------------------------------------------------
    def configure(
        self,
        features: PageFeatures,
        device: FarMemoryDevice,
        fault_parallelism: float = 1.0,
        fm_ratio: float | None = None,
        numa_sensitivity: float = 0.5,
        objective: str = "sys_time",
        co_tenants: int = 0,
    ) -> ConfigDecision:
        """Choose granularity, I/O width, and data distribution.

        ``fm_ratio=None`` derives the ratio from the hot-data estimate
        (offload everything beyond the hot set, capped at Table III's 0.9);
        otherwise the given ratio is validated and used.  ``objective``
        selects the predicted quantity to minimize (``sys_time``,
        ``stall_time``).
        """
        if objective not in ("sys_time", "stall_time"):
            raise ConfigurationError(f"unknown objective {objective!r}")
        model = SwapPathModel(device, features, fault_parallelism=fault_parallelism)
        if fm_ratio is None:
            n_pages = max(1, features.mrc.n_pages)
            hot = self.min_fm_ratio_local_pages(features)
            fm_ratio = min(self.limits.max_fm_ratio, max(0.0, 1.0 - hot / n_pages))
        else:
            self.limits.validate_fm_ratio(fm_ratio)
        local_pages = model.local_pages_for(fm_ratio)

        g_cands = self.granularity_candidates(features)
        w_cands = self.io_width_candidates(features, device, fault_parallelism)
        # the whole lattice priced in one vectorized batch — same scan
        # order and tie-break as an exhaustive scalar sweep
        chosen, predicted = select_config(
            model, local_pages, g_cands, w_cands,
            template=xdm_config(co_tenants=co_tenants),
            objective=objective, stats=self.stats,
        )
        return ConfigDecision(
            config=chosen,
            fm_ratio=fm_ratio,
            local_pages=local_pages,
            numa_placement=self.numa_placement(numa_sensitivity),
            predicted=predicted,
        )

    def max_offload_under_slo(
        self,
        features: PageFeatures,
        device: FarMemoryDevice,
        compute_time: float,
        slo: float,
        fault_parallelism: float = 1.0,
    ) -> tuple[float, ConfigDecision | None]:
        """Largest far-memory ratio whose predicted runtime meets the SLO.

        ``slo`` is the permissible runtime multiple over the no-swap
        runtime (Fig 15's x-axis: 1.2 - 1.8).  Returns (ratio, decision);
        ratio 0.0 with decision None when even the smallest offload step
        violates the SLO.
        """
        if slo < 1.0:
            raise ConfigurationError(f"slo must be >= 1.0, got {slo}")
        if compute_time <= 0:
            raise ConfigurationError("compute_time must be positive")
        budget = compute_time * slo
        # the whole bisection tree priced in two batches — the same midpoint
        # sequence, argmins and feasibility booleans as a 12-step scalar
        # bisection (see tune.search.slo_bisection)
        model = SwapPathModel(device, features, fault_parallelism=fault_parallelism)
        found = slo_bisection(
            model,
            template=xdm_config(),
            g_cands=self.granularity_candidates(features),
            w_cands=self.io_width_candidates(features, device, fault_parallelism),
            compute_time=compute_time,
            budget=budget,
            max_ratio=self.limits.max_fm_ratio,
            stats=self.stats,
        )
        if found is None:
            return 0.0, None
        ratio, local_pages, config, predicted = found
        return ratio, ConfigDecision(
            config=config,
            fm_ratio=ratio,
            local_pages=local_pages,
            numa_placement=self.numa_placement(0.5),
            predicted=predicted,
        )
