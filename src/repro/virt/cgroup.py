"""Per-VM resource controls (Cgroup + namespace, Section V-A1).

"We use Cgroup and namespace to control the CPU core, memory usage,
network channel, and swap space for each process."  This object carries
those limits for one VM/instance and owns the memory.high limiter that
triggers data swap (Section V-A2 step i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.mem.allocator import CgroupMemoryLimiter
from repro.units import PAGE_SIZE

__all__ = ["VMResourceControls"]


@dataclass
class VMResourceControls:
    """Cgroup/namespace limits for one VM."""

    cpu_cores: int
    memory_bytes: int
    network_channels: int
    swap_bytes: int
    numa_node: int = 0
    _limiter: CgroupMemoryLimiter | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.cpu_cores >= 1:
            raise ConfigurationError(f"cpu_cores must be >= 1, got {self.cpu_cores}")
        if not self.memory_bytes >= PAGE_SIZE:
            raise ConfigurationError(f"memory_bytes must be >= one page, got {self.memory_bytes}")
        if not self.network_channels >= 0:
            raise ConfigurationError(f"network_channels must be >= 0, got {self.network_channels}")
        if not self.swap_bytes >= 0:
            raise ConfigurationError(f"swap_bytes must be >= 0, got {self.swap_bytes}")

    def memory_limiter(self, reclaim=None) -> CgroupMemoryLimiter:
        """The memory.high limiter for this VM (created once)."""
        if self._limiter is None:
            self._limiter = CgroupMemoryLimiter(
                limit_bytes=self.memory_bytes, reclaim=reclaim, name="vm-cgroup"
            )
        return self._limiter

    def set_fm_ratio(self, working_set_bytes: int, fm_ratio: float) -> None:
        """Rewrite memory.high so ``fm_ratio`` of the working set swaps."""
        self.memory_limiter().set_fm_ratio(working_set_bytes, fm_ratio)
