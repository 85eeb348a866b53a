"""Unit tests for swap backend modules and the frontend."""

import pytest

from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.errors import (
    BackendUnavailableError,
    SlotExhaustedError,
    SwapError,
    SwitchInProgressError,
)
from repro.simcore import Simulator
from repro.swap import SwapFrontend, build_backend_module
from repro.units import PAGE_SIZE


def _run(sim, op):
    """Drive one data-path operation as its own process; return its value."""
    return sim.run(until=sim.process(op))


# ---------------------------------------------------------------- backend
def test_backend_module_lifecycle():
    sim = Simulator()
    ssd = NVMeSSD(sim)
    mod = build_backend_module(sim, BackendKind.SSD, ssd)
    assert not mod.active
    sim.run(until=mod.start())
    assert mod.active
    assert sim.now == pytest.approx(mod.start_cost)
    sim.run(until=mod.stop())
    assert not mod.active


def test_backend_store_load_roundtrip():
    sim = Simulator()
    ssd = NVMeSSD(sim)
    mod = build_backend_module(sim, BackendKind.SSD, ssd)
    sim.run(until=mod.start())
    _run(sim, mod.store(42))
    assert mod.holds(42)
    assert mod.resident_pages == 1
    _run(sim, mod.load(42))
    assert mod.holds(42)  # a load keeps the far copy (swap cache)
    assert (ssd.ops, ssd.bytes_written, ssd.bytes_read) == (2, PAGE_SIZE, PAGE_SIZE)
    mod.invalidate(42)  # the resident page was dirtied
    assert not mod.holds(42)
    assert mod.resident_pages == 0


def test_backend_swap_area_bounds_stores():
    sim = Simulator()
    mod = build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim), swap_bytes=2 * PAGE_SIZE)
    assert mod.n_slots == 2
    sim.run(until=mod.start())
    _run(sim, mod.store(1))
    _run(sim, mod.store(2))
    with pytest.raises(SlotExhaustedError):
        mod.store(3)
    mod.invalidate(1)  # frees a slot
    with pytest.raises(SlotExhaustedError):
        mod.adopt_pages([3, 4])
    assert not mod.holds(3)  # adoption is all or none
    mod.adopt_pages([3])
    assert mod.resident_pages == 2
    with pytest.raises(ValueError):
        build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim), swap_bytes=100)


def test_backend_rejects_inactive_io():
    sim = Simulator()
    mod = build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim))
    with pytest.raises(BackendUnavailableError):
        mod.store(1)


def test_backend_rejects_double_store_and_missing_load():
    sim = Simulator()
    mod = build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim))
    sim.run(until=mod.start())
    _run(sim, mod.store(1))
    with pytest.raises(SwapError):
        mod.store(1)
    with pytest.raises(SwapError):
        mod.load(2)
    with pytest.raises(SwapError):
        mod.invalidate(2)
    with pytest.raises(SwapError):
        mod.invalidate_pages([1, 2])
    assert mod.holds(1)  # a bulk invalidation is all or none


def test_backend_stop_refuses_with_resident_pages():
    sim = Simulator()
    mod = build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim))
    sim.run(until=mod.start())
    _run(sim, mod.store(7))
    with pytest.raises(SwapError):
        sim.run(until=mod.stop())


def test_dram_module_slowest_to_start():
    """Fig 18-b: DRAM backend start dominated by host allocation."""
    sim = Simulator()
    from repro.swap.backend import MODULE_START_COST

    assert MODULE_START_COST[BackendKind.DRAM] == max(MODULE_START_COST.values())
    # and every switch (stop + start) is under 5 seconds
    from repro.swap.backend import MODULE_STOP_COST

    for a in MODULE_STOP_COST:
        for b in MODULE_START_COST:
            assert MODULE_STOP_COST[a] + MODULE_START_COST[b] < 5.0


# --------------------------------------------------------------- frontend
def _frontend_with_two_backends(sim):
    fe = SwapFrontend(sim)
    ssd_mod = build_backend_module(sim, BackendKind.SSD, NVMeSSD(sim))
    ssd_mod.name = "ssd"
    rdma_mod = build_backend_module(sim, BackendKind.RDMA, RDMANic(sim))
    rdma_mod.name = "rdma"
    fe.register(ssd_mod)
    fe.register(rdma_mod)
    return fe


def test_frontend_switch_and_store():
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    assert fe.active_backend is None
    sim.run(until=fe.switch_to("ssd"))
    assert fe.active_backend == "ssd"
    _run(sim, fe.store_page(1))
    assert fe.swapped_out(1)


def test_frontend_bulk_invalidate_is_all_or_nothing():
    """A batch with a page that has no far copy raises before any copy is
    dropped; a repeated page counts once."""
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    sim.run(until=fe.switch_to("ssd"))
    fe.adopt_far_pages([1, 2])
    with pytest.raises(BackendUnavailableError):
        fe.invalidate_pages([1, 99])
    assert fe.owner_of(1) == "ssd" and fe.module("ssd").holds(1)
    assert fe.resident_far_pages == fe.module("ssd").resident_pages == 2
    fe.invalidate_pages([1, 2, 1])
    assert fe.resident_far_pages == fe.module("ssd").resident_pages == 0


def test_frontend_lazy_migration_across_switch():
    """Pages stored before a switch stay readable from their old backend."""
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    sim.run(until=fe.switch_to("ssd"))
    _run(sim, fe.store_page(1))
    sim.run(until=fe.switch_to("rdma"))
    _run(sim, fe.store_page(2))
    assert fe.module("ssd").holds(1)
    assert fe.module("rdma").holds(2)
    _run(sim, fe.load_page(1))  # served by the old backend
    assert fe.owner_of(1) == "ssd"  # which keeps its copy
    assert fe.module("ssd").device.bytes_read == PAGE_SIZE
    assert fe.module("rdma").device.bytes_read == 0


def test_frontend_switch_without_store_raises():
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    with pytest.raises(BackendUnavailableError):
        _run(sim, fe.store_page(1))


def test_frontend_unknown_backend():
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    with pytest.raises(BackendUnavailableError):
        fe.switch_to("nvlink")


def test_frontend_duplicate_registration():
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    with pytest.raises(BackendUnavailableError):
        fe.register(fe.module("ssd"))


def test_frontend_load_unknown_page_raises():
    sim = Simulator()
    fe = _frontend_with_two_backends(sim)
    sim.run(until=fe.switch_to("ssd"))
    with pytest.raises(BackendUnavailableError):
        _run(sim, fe.load_page(404))
