"""Unit tests for VMs, hypervisor, SR-IOV, and cgroup controls."""

import dataclasses

import pytest

from repro.devices import RDMANic
from repro.errors import CapacityError, ConfigurationError, VMStateError
from repro.simcore import Simulator
from repro.topology import paper_testbed
from repro.units import gib
from repro.virt import (
    HOST_BOOT_COST,
    Hypervisor,
    SRIOVManager,
    VM,
    VMResourceControls,
    VMState,
    VM_BOOT_COST,
    VM_REBOOT_COST,
)


NAN = float("nan")


def _controls(mem=gib(8), cpus=4):
    return VMResourceControls(
        cpu_cores=cpus, memory_bytes=mem, network_channels=2, swap_bytes=gib(16)
    )


@pytest.fixture()
def sim():
    return Simulator()


# ------------------------------------------------------------------- VM
def test_vm_lifecycle(sim):
    vm = VM(sim, "vm0", _controls())
    assert vm.state is VMState.OFF
    assert not vm.accept("a")
    sim.run(until=vm.boot(2.0))
    assert vm.state is VMState.FREE
    vm.dispatch("a")
    assert vm.state is VMState.ONLINE
    vm.finish("a")
    assert vm.state is VMState.FREE


def test_vm_boot_twice_raises(sim):
    vm = VM(sim, "vm0", _controls())
    sim.run(until=vm.boot(1.0))
    with pytest.raises(VMStateError):
        vm.boot(1.0)


def test_vm_capacity_limits(sim):
    vm = VM(sim, "vm0", _controls(), max_apps=1)
    sim.run(until=vm.boot(1.0))
    vm.dispatch("a")
    assert not vm.accept("b")
    with pytest.raises(CapacityError):
        vm.dispatch("b")


def test_vm_finish_unknown_app_raises(sim):
    vm = VM(sim, "vm0", _controls())
    sim.run(until=vm.boot(1.0))
    with pytest.raises(VMStateError):
        vm.finish("ghost")


def test_vm_switch_while_off_raises(sim):
    vm = VM(sim, "vm0", _controls())
    with pytest.raises(VMStateError):
        vm.switch_backend("ssd")


# ------------------------------------------------------------- hypervisor
def test_hypervisor_creates_and_tracks_vms(sim):
    hv = Hypervisor(sim, paper_testbed())
    sim.run(until=hv.create_vm(_controls()))
    assert len(hv.free_vms()) == 1
    assert hv.allocated_cpus == 4
    assert hv.allocated_memory == gib(8)


def test_hypervisor_capacity_check(sim):
    hv = Hypervisor(sim, paper_testbed())
    # 64 GiB host, 4 reserved: 7x 8 GiB fits, the 8th does not
    for _ in range(7):
        sim.run(until=hv.create_vm(_controls(cpus=2)))
    assert not hv.host_resource_available(_controls(cpus=2))
    with pytest.raises(CapacityError):
        hv.create_vm(_controls(cpus=2))


def test_fig18a_vm_reboot_vs_host_boot(sim):
    """Fig 18-a: VM reboot beats host reboot by ~2.6x."""
    ratio = HOST_BOOT_COST.total / VM_REBOOT_COST.total
    assert 2.2 < ratio < 3.0
    # and fresh VM boot sits in between
    assert VM_REBOOT_COST.total < VM_BOOT_COST.total < HOST_BOOT_COST.total


def test_hypervisor_reboot_paths(sim):
    hv = Hypervisor(sim, paper_testbed())
    sim.run(until=hv.create_vm(_controls()))
    vm = hv.free_vms()[0]
    t0 = sim.now
    sim.run(until=hv.reboot_vm(vm))
    assert sim.now - t0 == pytest.approx(VM_REBOOT_COST.total)
    t0 = sim.now
    sim.run(until=hv.reboot_host())
    assert sim.now - t0 == pytest.approx(HOST_BOOT_COST.total)
    assert hv.host_boots == 1


def test_hypervisor_validates_reservation(sim):
    with pytest.raises(ConfigurationError):
        Hypervisor(sim, paper_testbed(), reserve_host_memory=gib(65))


@pytest.mark.parametrize("reserve, dram, match", [
    pytest.param(NAN, gib(64), ">= 0", id="reserve_host_memory"),
    # ServerSpec rejects a NaN dram_bytes; inf - inf makes host_memory NaN
    pytest.param(float("inf"), float("inf"), "exceeds", id="host_memory"),
])
def test_hypervisor_rejects_nan(sim, reserve, dram, match):
    spec = dataclasses.replace(paper_testbed(), dram_bytes=dram)
    with pytest.raises(ConfigurationError, match=match):
        Hypervisor(sim, spec, reserve_host_memory=reserve)


# ------------------------------------------------------------------ SR-IOV
def test_sriov_allocates_balanced(sim):
    nics = [RDMANic(sim, name=f"mlx{i}") for i in range(2)]
    mgr = SRIOVManager(nics, max_vfs_per_nic=2)
    vfs = [mgr.allocate(f"vm{i}") for i in range(4)]
    assert mgr.vf_count(nics[0]) == 2
    assert mgr.vf_count(nics[1]) == 2
    assert all(vf.link is None for vf in vfs)  # NICs not on a switch here
    with pytest.raises(CapacityError):
        mgr.allocate("vm4")


def test_sriov_release_and_rebind(sim):
    mgr = SRIOVManager([RDMANic(sim)], max_vfs_per_nic=1)
    mgr.allocate("vm0")
    with pytest.raises(ConfigurationError):
        mgr.allocate("vm0")
    mgr.release("vm0")
    assert mgr.vf_of("vm0") is None
    mgr.allocate("vm1")
    assert mgr.vf_of("vm1") is not None
    with pytest.raises(ConfigurationError):
        mgr.release("vm0")


def test_sriov_vf_bandwidth_share(sim):
    nic = RDMANic(sim)
    mgr = SRIOVManager([nic], max_vfs_per_nic=4)
    vf = mgr.allocate("vm0")
    assert vf.profile.read_bandwidth == pytest.approx(nic.profile.read_bandwidth / 4)


def test_sriov_validates():
    with pytest.raises(ConfigurationError):
        SRIOVManager([])


# ------------------------------------------------------------------ cgroup
def test_cgroup_controls_validate():
    with pytest.raises(ConfigurationError):
        VMResourceControls(cpu_cores=0, memory_bytes=gib(1), network_channels=1, swap_bytes=0)
    with pytest.raises(ConfigurationError):
        VMResourceControls(cpu_cores=1, memory_bytes=100, network_channels=1, swap_bytes=0)


@pytest.mark.parametrize("field", ["cpu_cores", "memory_bytes", "network_channels",
                                   "swap_bytes"])
def test_cgroup_controls_reject_nan(field):
    kw = dict(cpu_cores=1, memory_bytes=gib(1), network_channels=1, swap_bytes=0)
    kw[field] = NAN
    with pytest.raises(ConfigurationError, match=field):
        VMResourceControls(**kw)


def test_cgroup_fm_ratio_rewrites_memory_high():
    c = _controls(mem=gib(8))
    c.memory_limiter(reclaim=lambda n: n)
    c.set_fm_ratio(working_set_bytes=gib(8), fm_ratio=0.5)
    assert c.memory_limiter().limit_bytes == pytest.approx(gib(4), rel=0.01)
