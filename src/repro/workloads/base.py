"""Workload abstraction: spec + trace synthesis + cached feature fusion."""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import cache as disk_cache
from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.trace.fusion import PageFeatures, fuse
from repro.trace.schema import PageTrace

__all__ = ["WorkloadCategory", "WorkloadSpec", "Workload"]


class WorkloadCategory(str, enum.Enum):
    """Table V's three workload families."""

    COMPUTE = "compute"   #: regular computing (Stream, Linpack, K-means, sort, Spark)
    GRAPH = "graph"       #: graph processing (GridGraph, Ligra)
    AI = "ai"             #: AI inference (TensorFlow, Bert, CLIP, ChatGLM)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one Table-V application.

    ``swap_feature`` records the **paper's** S/F label (Table VI:
    swap-sensitive = average speedup < 1.5x, swap-friendly >= 1.5x); the
    reproduction *derives* its own classification from the model and
    checks it against this.
    """

    name: str
    category: WorkloadCategory
    description: str
    #: Table V "Max Mem." — the paper-scale working set.
    max_mem_bytes: int
    #: the paper's swap-feature label: "S" (sensitive) or "F" (friendly)
    swap_feature: str
    #: CPU seconds of useful work per recorded page access
    compute_per_access: float
    #: share of runtime bound by memory latency (Fig 12's spread)
    numa_sensitivity: float
    #: app-level page-fault concurrency: how many faults the application
    #: keeps outstanding at once (parallel frameworks like Ligra/Spark/TF
    #: fault from many threads; single-threaded sort faults one at a time).
    #: This is the headroom the I/O-width knob can actually exploit.
    fault_parallelism: float = 1.0
    #: generator parameters (documented per workload in suite.py)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.swap_feature not in ("S", "F"):
            raise ConfigurationError(f"swap_feature must be 'S' or 'F', got {self.swap_feature!r}")
        if self.max_mem_bytes <= 0:
            raise ConfigurationError(f"{self.name}: max_mem_bytes must be positive")
        if not self.compute_per_access >= 0:
            raise ConfigurationError(f"{self.name}: compute_per_access must be >= 0")
        if not 0.0 <= self.numa_sensitivity <= 1.0:
            raise ConfigurationError(f"{self.name}: numa_sensitivity must be in [0,1]")
        if not self.fault_parallelism >= 1.0:
            raise ConfigurationError(f"{self.name}: fault_parallelism must be >= 1")


class Workload:
    """A runnable workload: synthesizes traces and fuses features on demand.

    ``synth(rng, scale) -> PageTrace`` produces one execution's page trace;
    ``scale`` shrinks the footprint/access count proportionally so tests
    and benchmarks run in seconds while preserving every ratio the
    policies consume.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        synth: Callable[[np.random.Generator, float], PageTrace],
    ) -> None:
        self.spec = spec
        self._synth = synth
        self._trace_cache: dict[tuple[float, int | None], PageTrace] = {}
        self._feature_cache: dict[tuple[float, int | None], PageFeatures] = {}

    @property
    def name(self) -> str:
        """Workload short name (Table V "Abbr.")."""
        return self.spec.name

    def trace(self, scale: float = 1.0, seed: int | None = None) -> PageTrace:
        """Synthesize (and cache) this workload's page trace."""
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        key = (scale, seed)
        if key not in self._trace_cache:
            trace = None
            if disk_cache.cache_enabled():
                trace = disk_cache.load_trace(self.spec, scale, seed)
            if trace is None:
                gen = rng_mod.derive(seed, f"workload/{self.spec.name}")
                trace = self._synth(gen, scale)
                if disk_cache.cache_enabled():
                    disk_cache.store_trace(self.spec, scale, seed, trace)
            self._trace_cache[key] = trace
        return self._trace_cache[key]

    def features(self, scale: float = 1.0, seed: int | None = None) -> PageFeatures:
        """Fused page characteristics of this workload's trace (cached)."""
        key = (scale, seed)
        if key not in self._feature_cache:
            features = None
            if disk_cache.cache_enabled():
                features = disk_cache.load_features(self.spec, scale, seed)
            if features is None:
                features = fuse(self.trace(scale, seed))
                if disk_cache.cache_enabled():
                    disk_cache.store_features(self.spec, scale, seed, features)
            self._feature_cache[key] = features
        return self._feature_cache[key]

    def compute_time(self, scale: float = 1.0, seed: int | None = None) -> float:
        """Pure-CPU seconds for one run (no swap stalls)."""
        return len(self.trace(scale, seed)) * self.spec.compute_per_access

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Workload {self.spec.name} ({self.spec.category})>"
