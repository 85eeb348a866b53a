"""Vectorized cost model: bit-equality with the scalar path model.

The tuner's whole correctness story rests on one contract: pricing a
candidate through :class:`VectorCostModel` returns the *same bits* as
``SwapPathModel.cost`` on that candidate — same misses, same times, same
per-op latency — for every device, template, and candidate mix.  These
tests assert the equality field by field with ``==`` (no tolerances),
both on deterministic sweeps and under Hypothesis-random features and
templates.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import FarDRAM, NVMeSSD, RDMANic
from repro.errors import ConfigurationError
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap import ChannelMode, PathType, SwapConfig, SwapPathModel
from repro.trace import fuse, make_trace
from repro.tune import OBJECTIVES, VectorCostModel
from repro.units import MiB, PAGE_SIZE
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses

__all__: list[str] = []

_COST_FIELDS = (
    "misses", "blocking_faults", "ops_in", "ops_out", "bytes_in",
    "bytes_out", "sys_time", "stall_time", "per_op_latency", "t_in",
    "t_out", "fault_time",
)

_TEMPLATES = [
    SwapConfig(),
    SwapConfig(channel=ChannelMode.SHARED, co_tenants=3),
    SwapConfig(merge_pages=8, readahead_pages=4, max_readahead_pages=32),
    SwapConfig(path=PathType.HIERARCHICAL),
    SwapConfig(synchronous_faults=True),
]


@pytest.fixture()
def sim():
    return Simulator()


def _features(kind: str, n_pages: int = 1024, passes: int = 4, seed: int = 11):
    rng = derive(seed, "tests/tune-costmodel")
    if kind == "seq":
        pages = sequential_scan(n_pages, passes=passes)
    else:
        pages = zipf_accesses(rng, n_pages, n_pages * passes, alpha=1.05)
    return fuse(assemble(rng, pages, anon_ratio=1.0, store_ratio=0.2))


def assert_batch_matches_scalar(model, template, locals_, gs, ws):
    """Every (local, g, w) triple: batch row == scalar SwapPathModel.cost."""
    vcm = VectorCostModel(model, template)
    points = [(lp, g, w) for lp in locals_ for g in gs for w in ws]
    la, ga, wa = (np.array(a) for a in zip(*points))
    batch = vcm.evaluate(la, ga, wa)
    assert len(batch) == len(points)
    for i, (lp, g, w) in enumerate(points):
        want = model.cost(lp, replace(template, granularity=g, io_width=w))
        got = batch.cost(i)
        for name in _COST_FIELDS:
            assert getattr(got, name) == getattr(want, name), (
                f"{name} mismatch at local={lp} g={g} w={w}: "
                f"{getattr(got, name)!r} != {getattr(want, name)!r}"
            )


@pytest.mark.parametrize("device_cls", [RDMANic, NVMeSSD, FarDRAM])
@pytest.mark.parametrize("kind", ["seq", "rand"])
def test_bit_equality_across_devices_and_templates(sim, device_cls, kind):
    f = _features(kind)
    for par in (1.0, 8.0):
        model = SwapPathModel(device_cls(sim), f, fault_parallelism=par)
        for template in _TEMPLATES:
            assert_batch_matches_scalar(
                model, template,
                locals_=[2, 64, 300, f.mrc.n_pages + 5],
                gs=[PAGE_SIZE, 16 * PAGE_SIZE, 2 * MiB],
                ws=[1, 4, 16],
            )


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.8, 1.6),
    n_pages=st.integers(64, 800),
    anon=st.floats(0.3, 1.0),
    store=st.floats(0.0, 0.8),
    co_tenants=st.integers(0, 4),
    merge=st.sampled_from([1, 4, 16]),
    par=st.floats(1.0, 16.0),
    seed=st.integers(0, 2**16),
)
def test_bit_equality_random_features_and_templates(
    alpha, n_pages, anon, store, co_tenants, merge, par, seed
):
    rng = derive(seed, "tests/tune-costmodel-hypothesis")
    pages = zipf_accesses(rng, n_pages, n_pages * 3, alpha=alpha)
    f = fuse(assemble(rng, pages, anon_ratio=anon, store_ratio=store))
    sim = Simulator()
    model = SwapPathModel(RDMANic(sim), f, fault_parallelism=par)
    template = SwapConfig(
        channel=ChannelMode.SHARED if co_tenants else ChannelMode.ISOLATED,
        co_tenants=co_tenants,
        merge_pages=merge,
    )
    assert_batch_matches_scalar(
        model, template,
        locals_=[2, max(2, n_pages // 3), n_pages + 1],
        gs=[PAGE_SIZE, 64 * PAGE_SIZE],
        ws=[1, 8],
    )


def test_zero_miss_rows_short_circuit(sim):
    f = _features("seq")
    model = SwapPathModel(RDMANic(sim), f)
    vcm = VectorCostModel(model, SwapConfig())
    full = f.mrc.n_pages + 10
    batch = vcm.evaluate([full, 16], [PAGE_SIZE, PAGE_SIZE], [1, 1])
    assert batch.misses[0] == 0 and batch.misses[1] > 0
    assert batch.sys_time[0] == 0.0 and batch.bytes_in[0] == 0.0
    # idle rows report the idle page latency at the configured granularity
    want = model.cost(full, SwapConfig())
    assert batch.cost(0).per_op_latency == want.per_op_latency


def test_broadcasting_scalar_local_over_lattice(sim):
    f = _features("rand")
    model = SwapPathModel(RDMANic(sim), f)
    vcm = VectorCostModel(model, SwapConfig())
    gs = np.array([PAGE_SIZE, 4 * PAGE_SIZE, PAGE_SIZE, 4 * PAGE_SIZE])
    ws = np.array([1, 1, 8, 8])
    batch = vcm.evaluate(np.int64(100), gs, ws)
    assert len(batch) == 4
    assert (batch.local_pages == 100).all()


def test_objective_and_argmin_validation(sim):
    f = _features("rand")
    model = SwapPathModel(RDMANic(sim), f)
    batch = VectorCostModel(model, SwapConfig()).evaluate([64], [PAGE_SIZE], [1])
    for name in OBJECTIVES:
        assert batch.objective(name).shape == (1,)
    with pytest.raises(ConfigurationError):
        batch.objective("bytes_in")
    with pytest.raises(ConfigurationError):
        batch.argmin("nope")


def test_argmin_is_first_occurrence(sim):
    f = _features("rand")
    model = SwapPathModel(RDMANic(sim), f)
    vcm = VectorCostModel(model, SwapConfig())
    # identical candidates tie exactly; grid keeps the first seen
    batch = vcm.evaluate([64, 64, 64], [PAGE_SIZE] * 3, [2, 2, 2])
    assert batch.argmin("sys_time") == 0


def test_sensitivities_shape_and_shares(sim):
    f = _features("rand")
    model = SwapPathModel(RDMANic(sim), f, fault_parallelism=8)
    vcm = VectorCostModel(model, SwapConfig())
    s = vcm.sensitivities(64, SwapConfig(granularity=PAGE_SIZE, io_width=2))
    assert s["objective"] > 0.0
    # sys_time = fault_time + t_in + 0.5*t_out, so the shares partition it
    assert s["share_fault_time"] + s["share_t_in"] + s["share_t_out"] == (
        pytest.approx(1.0)
    )
    # more local memory never hurts; more width never hurts a parallel app
    assert s["d_local_pages"] <= 0.0
    assert s["d_io_width"] <= 0.0


def test_sensitivities_validation(sim):
    f = _features("rand")
    vcm = VectorCostModel(SwapPathModel(RDMANic(sim), f), SwapConfig())
    with pytest.raises(ConfigurationError):
        vcm.sensitivities(64, SwapConfig(), objective="bytes_in")
    with pytest.raises(ConfigurationError):
        vcm.sensitivities(64, SwapConfig(), rel_step=1.5)
