"""Hypervisor: host resources, VM pool, boot-cost accounting (Fig 18).

Fig 18-(a): traditional backend switching requires a *host* shutdown and
reboot (kernel module changes on bare metal); xDM switches by rebooting —
or merely reconfiguring — a VM, 2.6x faster.  The constants below are the
modeled user+sys boot costs; Fig 18-(b)'s per-backend module start/stop
costs live in :mod:`repro.swap.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.simcore import Simulator
from repro.topology.server import ServerSpec
from repro.units import gib
from repro.virt.cgroup import VMResourceControls
from repro.virt.vm import VM, VMState

__all__ = [
    "HOST_BOOT_COST",
    "VM_BOOT_COST",
    "VM_REBOOT_COST",
    "BootCost",
    "Hypervisor",
]


@dataclass(frozen=True)
class BootCost:
    """User-level + system-level boot latency (Fig 18-a's two bars)."""

    user: float
    system: float

    @property
    def total(self) -> float:
        """End-to-end boot seconds."""
        return self.user + self.system


#: Physical host shutdown + firmware + kernel + services.
HOST_BOOT_COST = BootCost(user=38.0, system=27.0)
#: Fresh VM boot through QEMU/KVM (kernel + minimal userspace).
VM_BOOT_COST = BootCost(user=17.0, system=13.0)
#: VM soft reboot (no QEMU re-exec, warm page cache) — 2.6x faster than a
#: host boot, Fig 18-a's headline.
VM_REBOOT_COST = BootCost(user=16.0, system=9.0)


class Hypervisor:
    """QEMU/KVM-style manager of a host's VM pool."""

    def __init__(self, sim: Simulator, spec: ServerSpec, reserve_host_memory: int = gib(4)) -> None:
        if not reserve_host_memory >= 0:
            raise ConfigurationError("reserve_host_memory must be >= 0")
        self.sim = sim
        self.spec = spec
        self.host_cpus = spec.total_cores
        self.host_memory = spec.dram_bytes - reserve_host_memory
        if not self.host_memory > 0:
            raise ConfigurationError("host reservation exceeds server memory")
        self.vms: dict[str, VM] = {}
        self._vm_seq = 0
        self.host_boots = 0

    # -- capacity ----------------------------------------------------------
    @property
    def allocated_cpus(self) -> int:
        """vCPUs committed to non-off VMs."""
        return sum(vm.controls.cpu_cores for vm in self.vms.values() if vm.state is not VMState.OFF)

    @property
    def allocated_memory(self) -> int:
        """Guest memory committed to non-off VMs."""
        return sum(vm.controls.memory_bytes for vm in self.vms.values() if vm.state is not VMState.OFF)

    def host_resource_available(self, controls: VMResourceControls) -> bool:
        """Algorithm 1 line 21's "host resource is available" check."""
        return (
            self.allocated_cpus + controls.cpu_cores <= self.host_cpus
            and self.allocated_memory + controls.memory_bytes <= self.host_memory
        )

    # -- VM lifecycle ----------------------------------------------------------
    def create_vm(self, controls: VMResourceControls, max_apps: int = 1, name: str = ""):
        """DES process: ``CreateVM``: allocate and boot a fresh VM (cold start)."""
        if not self.host_resource_available(controls):
            raise CapacityError("host lacks CPU/memory for a new VM")
        self._vm_seq += 1
        vm = VM(self.sim, name or f"vm{self._vm_seq}", controls, max_apps=max_apps)
        self.vms[vm.name] = vm
        return vm.boot(VM_BOOT_COST.total)

    def reboot_vm(self, vm: VM):
        """DES process: soft-reboot an existing VM (xDM's switch vehicle)."""
        if vm.name not in self.vms:
            raise ConfigurationError(f"{vm.name} is not managed by this hypervisor")

        def proc():
            vm.state = VMState.OFF
            yield self.sim.timeout(VM_REBOOT_COST.total)
            vm.state = VMState.FREE
            vm.boot_count += 1
            return vm.name

        return self.sim.process(proc(), name=f"{vm.name}:reboot")

    def reboot_host(self):
        """DES process: the traditional full-host reboot (for comparison)."""

        def proc():
            for vm in self.vms.values():
                vm.state = VMState.OFF
            yield self.sim.timeout(HOST_BOOT_COST.total)
            self.host_boots += 1
            for vm in self.vms.values():
                vm.state = VMState.FREE
            return "host"

        return self.sim.process(proc(), name="host:reboot")

    # -- pool views (Algorithm 1's OVs / FVs) -------------------------------
    def online_vms(self) -> list[VM]:
        """VMs currently running applications."""
        return [vm for vm in self.vms.values() if vm.state is VMState.ONLINE]

    def free_vms(self) -> list[VM]:
        """Warm idle VMs."""
        return [vm for vm in self.vms.values() if vm.state is VMState.FREE]
