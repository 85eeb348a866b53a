"""One cluster node: a server with local DRAM and optional far memory."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError
from repro.topology.server import ServerSpec, paper_testbed

__all__ = ["ClusterNode"]


@dataclass
class ClusterNode:
    """A server node's memory occupancy view for scheduling."""

    name: str
    spec: ServerSpec = field(default_factory=paper_testbed)
    #: far-memory bytes reachable from this node (0 = no FM)
    fm_bytes: int = 0
    used_local: int = 0
    used_fm: int = 0
    running: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("fm_bytes", "used_local", "used_fm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def local_capacity(self) -> int:
        """Usable local DRAM."""
        return self.spec.dram_bytes

    @property
    def free_local(self) -> int:
        """Unreserved local DRAM bytes."""
        return self.local_capacity - self.used_local

    @property
    def free_fm(self) -> int:
        """Unreserved far-memory bytes."""
        return self.fm_bytes - self.used_fm

    @property
    def memory_utilization(self) -> float:
        """Local memory utilization in [0, 1].

        A DRAM-less node (an FM-only expander blade lending its capacity
        to the pool) reports 0.0 rather than dividing by zero.
        """
        if self.local_capacity == 0:
            return 0.0
        return self.used_local / self.local_capacity

    def admit(self, task_name: str, local_bytes: int, fm_bytes: int = 0) -> None:
        """Reserve memory for a task; raises :class:`CapacityError` if short."""
        if local_bytes < 0 or fm_bytes < 0:
            raise ValueError("reservations must be non-negative")
        if local_bytes > self.free_local:
            raise CapacityError(f"{self.name}: {local_bytes} local requested, {self.free_local} free")
        if fm_bytes > self.free_fm:
            raise CapacityError(f"{self.name}: {fm_bytes} FM requested, {self.free_fm} free")
        self.used_local += local_bytes
        self.used_fm += fm_bytes
        self.running.append(task_name)

    def release(self, task_name: str, local_bytes: int, fm_bytes: int = 0) -> None:
        """Return a task's reservations."""
        if task_name not in self.running:
            raise ValueError(f"{task_name} not running on {self.name}")
        self.running.remove(task_name)
        self.used_local -= local_bytes
        self.used_fm -= fm_bytes
        if self.used_local < 0 or self.used_fm < 0:
            raise ValueError("release exceeds reservations")

    def fits(self, local_bytes: int, fm_bytes: int = 0) -> bool:
        """Whether a reservation would be admitted."""
        return local_bytes <= self.free_local and fm_bytes <= self.free_fm

    def resize_fm(self, fm_bytes: int) -> None:
        """Retarget reachable far memory (lease churn re-ran the match).

        The new capacity may land *below* ``used_fm``: running tasks keep
        their reservations (lazy migration drains the revoked lease), the
        node simply admits nothing new until completions recover headroom —
        ``free_fm`` goes negative and :meth:`fits` rejects.
        """
        if fm_bytes < 0:
            raise ValueError("fm_bytes must be non-negative")
        self.fm_bytes = fm_bytes
