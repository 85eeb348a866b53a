"""Shared experiment context: devices, features, baseline/xDM evaluation.

One :class:`ExperimentContext` memoizes everything expensive — workload
traces, fused features (each carrying its reuse-distance pass), single
devices, and xDM variants — so that running every experiment in a session
costs one feature pass per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines import BaselineSystem, FASTSWAP, LINUX_SWAP
from repro.core import SmartConsole, make_variant
from repro.core.config import xdm_config
from repro.core.xdm import XDMVariant
from repro.devices import BackendKind, FarMemoryDevice, make_device
from repro.devices.base import DeviceProfile
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapCost, SwapPathModel
from repro.trace.fusion import PageFeatures
from repro.workloads import TABLE_V, get_workload
from repro.workloads.base import Workload

__all__ = ["ExperimentContext", "DEFAULT_SCALE"]

#: Default workload scale for experiments: full repo-scale traces.
DEFAULT_SCALE = 0.5


@dataclass(frozen=True)
class EvaluatedRun:
    """One (workload, device, config) evaluation plus derived quantities."""

    cost: SwapCost
    compute_time: float

    @property
    def runtime(self) -> float:
        """End-to-end runtime."""
        return self.cost.runtime(self.compute_time)

    @property
    def throughput(self) -> float:
        """Swap bytes per second of runtime."""
        return self.cost.throughput(self.compute_time)


class ExperimentContext:
    """Memoized substrate shared by all experiments."""

    def __init__(self, scale: float = DEFAULT_SCALE, seed: int | None = None) -> None:
        self.scale = scale
        self.seed = seed
        self.sim = Simulator()
        self.console = SmartConsole()
        self._devices: dict[BackendKind, FarMemoryDevice] = {}
        self._variants: dict[str, XDMVariant] = {}
        self._xdm_decisions: dict[tuple[str, BackendKind, float], object] = {}

    # -- lazily built hardware ---------------------------------------------
    def device(self, kind: BackendKind) -> FarMemoryDevice:
        """The single baseline-grade device of ``kind`` (memoized)."""
        if kind not in self._devices:
            self._devices[kind] = make_device(self.sim, kind)
        return self._devices[kind]

    def variant(self, name: str) -> XDMVariant:
        """One of the Table IV xDM variants (memoized)."""
        if name not in self._variants:
            self._variants[name] = make_variant(name, self.sim)
        return self._variants[name]

    # -- workload access -----------------------------------------------------
    def workload(self, name: str) -> Workload:
        """Table V lookup."""
        return get_workload(name)

    def features(self, name: str) -> PageFeatures:
        """Fused features at the context scale (cached inside Workload)."""
        return self.workload(name).features(self.scale, self.seed)

    def compute_time(self, name: str) -> float:
        """Pure-compute runtime at the context scale."""
        return self.workload(name).compute_time(self.scale, self.seed)

    def all_workloads(self) -> list[str]:
        """Every Table V abbreviation, in table order."""
        return list(TABLE_V)

    # -- evaluation helpers ---------------------------------------------------
    def model(self, name: str, kind: BackendKind) -> SwapPathModel:
        """Path model of workload ``name`` on the single device of ``kind``."""
        w = self.workload(name)
        return SwapPathModel(
            self.device(kind), self.features(name),
            fault_parallelism=w.spec.fault_parallelism,
        )

    def run_baseline(
        self,
        name: str,
        baseline: BaselineSystem,
        kind: BackendKind,
        fm_ratio: float = 0.5,
        co_tenants: int = 0,
    ) -> EvaluatedRun:
        """Evaluate a baseline system's fixed config."""
        model = self.model(name, kind)
        local = model.local_pages_for(fm_ratio * baseline.offload_aggressiveness)
        cost = model.cost(local, baseline.swap_config(kind, co_tenants=co_tenants))
        return EvaluatedRun(cost=cost, compute_time=self.compute_time(name))

    def run_xdm(
        self,
        name: str,
        kind: BackendKind,
        fm_ratio: float = 0.5,
        co_tenants: int = 0,
    ) -> EvaluatedRun:
        """Evaluate xDM's console-tuned config on a single backend."""
        w = self.workload(name)
        key = (name, kind, fm_ratio)
        if key not in self._xdm_decisions:
            self._xdm_decisions[key] = self.console.configure(
                self.features(name),
                self.device(kind),
                fault_parallelism=w.spec.fault_parallelism,
                fm_ratio=fm_ratio,
                numa_sensitivity=w.spec.numa_sensitivity,
            )
        decision = self._xdm_decisions[key]
        model = self.model(name, kind)
        config = decision.config
        if co_tenants:
            config = replace(config, co_tenants=co_tenants)
        cost = model.cost(decision.local_pages, config)
        return EvaluatedRun(cost=cost, compute_time=self.compute_time(name))

    # -- common fixed configs --------------------------------------------------
    @staticmethod
    def baseline_for(kind: BackendKind) -> BaselineSystem:
        """The paper's Table VI pairing: Linux swap on block devices,
        Fastswap on RDMA/DRAM."""
        return LINUX_SWAP if kind in (BackendKind.SSD, BackendKind.HDD) else FASTSWAP
