"""Unit tests for cgroup limiter, THP policy, and NUMA placement."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.mem import (
    CgroupMemoryLimiter,
    LocalMemoryAllocator,
    NUMAPlacement,
    NUMAPolicy,
    THPPolicy,
    effective_page_size,
)
from repro.topology import NUMADomain
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, gib, mib


# ---------------------------------------------------------- allocator
def test_allocator_charge_release_peak():
    a = LocalMemoryAllocator(mib(10))
    a.charge(mib(6))
    a.uncharge(mib(2))
    a.charge(mib(1))
    assert a.used == mib(5)
    assert a.peak == mib(6)
    assert a.free == mib(5)


def test_allocator_overflow_raises():
    a = LocalMemoryAllocator(mib(1))
    with pytest.raises(CapacityError):
        a.charge(mib(2))


def test_allocator_validates():
    with pytest.raises(ConfigurationError):
        LocalMemoryAllocator(0)
    a = LocalMemoryAllocator(mib(1))
    with pytest.raises(ValueError):
        a.uncharge(1)


# -------------------------------------------------------------- cgroup
def test_cgroup_reclaims_over_high_watermark():
    freed_log = []

    def reclaim(n):
        freed_log.append(n)
        return n

    cg = CgroupMemoryLimiter(limit_bytes=4 * PAGE_SIZE, reclaim=reclaim)
    for _ in range(4):
        assert cg.charge_page() == 0
    assert cg.charge_page() == 1  # 5th page triggers reclaim of 1
    assert freed_log == [1]
    assert cg.resident_pages == 4


def test_cgroup_without_reclaimer_raises():
    cg = CgroupMemoryLimiter(limit_bytes=PAGE_SIZE)
    cg.charge_page()
    with pytest.raises(CapacityError):
        cg.charge_page()
    assert cg.resident_pages == 1  # failed charge rolled back


def test_cgroup_set_limit_shrink_reclaims():
    cg = CgroupMemoryLimiter(limit_bytes=8 * PAGE_SIZE, reclaim=lambda n: n)
    for _ in range(8):
        cg.charge_page()
    cg.set_limit(2 * PAGE_SIZE)
    assert cg.resident_pages == 2
    assert cg.pages_reclaimed == 6


def test_cgroup_fm_ratio_knob():
    cg = CgroupMemoryLimiter(limit_bytes=gib(1), reclaim=lambda n: n)
    cg.set_fm_ratio(working_set_bytes=gib(1), fm_ratio=0.75)
    assert cg.limit_bytes == pytest.approx(gib(1) * 0.25, rel=0.01)
    with pytest.raises(ConfigurationError):
        cg.set_fm_ratio(gib(1), 0.95)  # Table III caps at 0.9
    with pytest.raises(ConfigurationError):
        cg.set_fm_ratio(0, 0.5)


def test_cgroup_uncharge_validates():
    cg = CgroupMemoryLimiter(limit_bytes=gib(1))
    with pytest.raises(ValueError):
        cg.uncharge_page()


NAN = float("nan")


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: LocalMemoryAllocator(NAN), ConfigurationError, "capacity",
                 id="allocator-capacity"),
    pytest.param(lambda: LocalMemoryAllocator(mib(1)).charge(NAN), ValueError, "nbytes",
                 id="allocator-charge"),
    pytest.param(lambda: LocalMemoryAllocator(mib(1)).uncharge(NAN), ValueError, "uncharge",
                 id="allocator-uncharge"),
    pytest.param(lambda: CgroupMemoryLimiter(limit_bytes=NAN), ConfigurationError,
                 "limit_bytes", id="cgroup-limit"),
    pytest.param(lambda: CgroupMemoryLimiter(limit_bytes=PAGE_SIZE, page_size=NAN),
                 ConfigurationError, "page_size", id="cgroup-page-size"),
    pytest.param(lambda: CgroupMemoryLimiter(limit_bytes=PAGE_SIZE).uncharge_page(NAN),
                 ValueError, "uncharge_page", id="cgroup-uncharge"),
    pytest.param(lambda: CgroupMemoryLimiter(limit_bytes=PAGE_SIZE).set_limit(NAN),
                 ConfigurationError, "limit_bytes", id="cgroup-set-limit"),
    pytest.param(lambda: CgroupMemoryLimiter(limit_bytes=PAGE_SIZE).set_fm_ratio(NAN, 0.5),
                 ConfigurationError, "working_set_bytes", id="cgroup-fm-working-set"),
])
def test_range_checks_reject_nan(call, error, match):
    """A NaN fails every range check the same way an out-of-range number
    does, rather than slipping past a ``< 0`` comparison."""
    with pytest.raises(error, match=match):
        call()


# ----------------------------------------------------------------- THP
def test_effective_page_size_interpolates():
    assert effective_page_size(0.0) == PAGE_SIZE
    assert effective_page_size(1.0) == HUGE_PAGE_SIZE
    mid = effective_page_size(0.5)
    assert PAGE_SIZE < mid < HUGE_PAGE_SIZE


def test_effective_page_size_validates():
    with pytest.raises(ConfigurationError):
        effective_page_size(1.5)
    with pytest.raises(ConfigurationError):
        effective_page_size(0.5, base=0)


def test_thp_policy_skips_fragmented_workloads():
    pol = THPPolicy()
    assert pol.huge_fraction(fragment_ratio=0.2, seq_ratio=0.9) == 0.0
    assert pol.granularity(0.2, 0.9) == PAGE_SIZE


def test_thp_policy_promotes_contiguous_workloads():
    pol = THPPolicy()
    f = pol.huge_fraction(fragment_ratio=0.95, seq_ratio=0.9)
    assert f > 0.5
    assert pol.granularity(0.95, 0.9) > 64 * PAGE_SIZE


def test_thp_compute_speedup_bounded():
    pol = THPPolicy()
    s = pol.compute_speedup(0.95, 0.9)
    assert 1.0 - pol.tlb_benefit <= s < 1.0
    assert pol.compute_speedup(0.1, 0.1) == 1.0


def test_thp_validates():
    pol = THPPolicy()
    with pytest.raises(ConfigurationError):
        pol.huge_fraction(1.5, 0.5)
    with pytest.raises(ConfigurationError):
        pol.huge_fraction(0.5, -0.1)


# ---------------------------------------------------------------- NUMA
def test_numa_local_bind_no_slowdown():
    dom = NUMADomain.two_socket()
    pol = NUMAPolicy(NUMAPlacement.LOCAL_BIND)
    assert pol.slowdown(dom, 0, sensitivity=1.0, remote_fraction=0.0) == 1.0


def test_numa_spill_slowdown_scales_with_sensitivity():
    dom = NUMADomain.two_socket(remote_distance=21.0)
    pol = NUMAPolicy(NUMAPlacement.REMOTE_SPILL)
    insensitive = pol.slowdown(dom, 0, sensitivity=0.1, remote_fraction=0.5)
    sensitive = pol.slowdown(dom, 0, sensitivity=0.9, remote_fraction=0.5)
    assert 1.0 < insensitive < sensitive
    # full remote, full sensitivity: the raw 2.1x SLIT penalty
    assert pol.slowdown(dom, 0, 1.0, 1.0) == pytest.approx(2.1)


def test_numa_place_local_when_room():
    dom = NUMADomain.two_socket(mem_per_socket=gib(4))
    pol = NUMAPolicy(NUMAPlacement.REMOTE_SPILL)
    slices = pol.place(dom, 0, gib(2), sensitivity=0.2)
    assert slices == [(0, gib(2))]


def test_numa_place_spills_insensitive_tasks():
    dom = NUMADomain.two_socket(mem_per_socket=gib(4))
    dom.nodes[0].allocate(gib(3))
    pol = NUMAPolicy(NUMAPlacement.REMOTE_SPILL)
    slices = pol.place(dom, 0, gib(2), sensitivity=0.2)
    assert slices == [(0, gib(1)), (1, gib(1))]


def test_numa_place_refuses_to_spill_sensitive_tasks():
    dom = NUMADomain.two_socket(mem_per_socket=gib(4))
    dom.nodes[0].allocate(gib(3))
    pol = NUMAPolicy(NUMAPlacement.REMOTE_SPILL)
    with pytest.raises(CapacityError):
        pol.place(dom, 0, gib(2), sensitivity=0.9)


def test_numa_place_interleave_splits_evenly():
    dom = NUMADomain.two_socket(mem_per_socket=gib(4))
    pol = NUMAPolicy(NUMAPlacement.INTERLEAVE)
    slices = pol.place(dom, 0, gib(2), sensitivity=0.2)
    assert len(slices) == 2
    assert sum(b for _, b in slices) == gib(2)


def test_numa_policy_validates():
    dom = NUMADomain.two_socket()
    pol = NUMAPolicy()
    with pytest.raises(ConfigurationError):
        pol.slowdown(dom, 0, sensitivity=2.0)
    with pytest.raises(ValueError):
        pol.place(dom, 0, -1, sensitivity=0.1)
