"""Invariant tests for :class:`FairShareLink` — the shared-pipe model.

Every device stage pipe, PCIe slot and switch is one of these links, and
the batched replay engines admit their aggregate steps through the same
links as the per-access loop, so the model must honor the
processor-sharing invariants it encodes:

* **work conservation** — while at least one flow is active, the link
  delivers at exactly its capacity: ``total_bytes == bandwidth *
  busy_time`` (fair sharing redistributes rate, never parks it);
* **per-flow byte conservation** — every admitted flow completes after
  receiving its bytes, never before ``nbytes / bandwidth`` of dedicated
  service, and the link's delivered-byte meter accounts for all demand
  up to the completion epsilon.

Plus the in-flight ``utilization()`` edge cases and the external-credit
hook the rack fabric uses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SanitizerError
from repro.simcore import FairShareLink, Simulator
from repro.simcore.bandwidth import _EPS_BYTES


def _start_flow(sim, link, delay, nbytes, record, idx):
    def proc():
        if delay:
            yield sim.timeout(delay)
        t0 = sim.now
        yield link.transfer(nbytes)
        record[idx] = (t0, sim.now)
    return sim.process(proc(), name=f"flow:{idx}")


# -- deterministic progressive-filling check ---------------------------------

def test_three_flow_progressive_filling_exact_times():
    """Hand-solved piecewise-linear schedule, checked to the float.

    bw=100 B/s.  A: 300 B at t=0, B: 100 B at t=1, C: 100 B at t=2.

    [0,1):   A alone at 100      -> A 200 left
    [1,2):   A,B at 50 each      -> A 150, B 50 left
    [2,3.5): A,B,C at 100/3      -> B drains its 50 in 1.5 s, done t=3.5;
                                    A 100 left, C 50 left
    [3.5,4.5): A,C at 50         -> C done t=4.5; A 50 left
    [4.5,5):   A alone at 100    -> A done t=5.0 (= 500 B / 100 B/s:
                                    work conservation pins the last finish)
    """
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    record = {}
    _start_flow(sim, link, 0.0, 300.0, record, "A")
    _start_flow(sim, link, 1.0, 100.0, record, "B")
    _start_flow(sim, link, 2.0, 100.0, record, "C")
    sim.run()
    assert record["B"][1] == pytest.approx(3.5, rel=1e-12)
    assert record["C"][1] == pytest.approx(4.5, rel=1e-12)
    assert record["A"][1] == pytest.approx(5.0, rel=1e-12)
    assert link.busy_time == pytest.approx(5.0, rel=1e-12)
    assert link.total_bytes == pytest.approx(500.0, abs=3 * _EPS_BYTES)
    assert link.utilization() == pytest.approx(1.0)


# -- utilization() edge cases ------------------------------------------------

def test_utilization_with_inflight_flow_counts_open_interval():
    """The ``busy += now - _last_update`` path: a flow started at t=2 and
    still in flight at t=5 contributes exactly the open 3s interval."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=10.0)
    record = {}
    _start_flow(sim, link, 2.0, 80.0, record, "A")  # completes at t=10
    sim.run(until=5.0)
    assert link.active_flows == 1
    assert link.busy_time == 0.0  # not yet accrued — only on state changes
    assert link.utilization() == pytest.approx(3.0 / 5.0)
    # horizon == sim.now must agree with the implicit default
    assert link.utilization(horizon=sim.now) == pytest.approx(3.0 / 5.0)
    sim.run()
    assert link.utilization() == pytest.approx(8.0 / 10.0)


def test_utilization_inflight_at_flow_start_instant():
    """At the exact arrival instant the open interval is empty."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=10.0)
    record = {}
    _start_flow(sim, link, 4.0, 10.0, record, "A")
    sim.run(until=4.0)
    assert link.active_flows == 1
    assert link.utilization() == pytest.approx(0.0)


def test_utilization_clamped_for_stale_horizon():
    """A horizon earlier than accrued busy time cannot exceed 1.0."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=10.0)
    record = {}
    _start_flow(sim, link, 0.0, 100.0, record, "A")
    sim.run()
    assert sim.now == pytest.approx(10.0)
    assert link.utilization(horizon=1.0) == 1.0
    assert link.utilization(horizon=0.0) == 0.0


# -- external credit hook ----------------------------------------------------

def test_account_external_credits_metrics():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    record = {}
    _start_flow(sim, link, 0.0, 100.0, record, "A")
    sim.run()
    base_bytes, base_busy = link.total_bytes, link.busy_time
    link.account_external(500.0, 2.0)
    assert link.total_bytes == base_bytes + 500.0
    assert link.busy_time == base_busy + 2.0
    sim.run(until=4.0)
    assert link.utilization() == pytest.approx((base_busy + 2.0) / 4.0)


def test_account_external_rejects_bad_credit():
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=100.0)
    with pytest.raises(ValueError):
        link.account_external(-1.0, 0.0)
    with pytest.raises(ValueError):
        link.account_external(0.0, -1.0)


@pytest.mark.sanitize
def test_account_external_sanitizer_rejects_nonfinite():
    sim = Simulator(sanitize=True)
    link = FairShareLink(sim, bandwidth=100.0, name="l")
    with pytest.raises(SanitizerError):
        link.account_external(float("nan"), 0.0)
    with pytest.raises(SanitizerError):
        link.account_external(0.0, float("inf"))


# -- property tests ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),   # start delay
            st.floats(min_value=0.5, max_value=5000.0),  # nbytes
        ),
        min_size=1,
        max_size=12,
    ),
    bandwidth=st.floats(min_value=0.1, max_value=1e4),
)
def test_property_work_and_byte_conservation(flows, bandwidth):
    """Random flow churn: every flow completes, no flow beats dedicated
    service, the link never idles while demand exists, and delivered
    bytes account for all demand up to the completion epsilon."""
    sim = Simulator()
    link = FairShareLink(sim, bandwidth=bandwidth)
    record = {}
    for i, (delay, nbytes) in enumerate(flows):
        _start_flow(sim, link, delay, nbytes, record, i)
    sim.run()
    assert len(record) == len(flows)  # per-flow: all completed
    total = sum(nbytes for _, nbytes in flows)
    # per-flow byte conservation: service time bounded below by a
    # dedicated link, and the flow set drained completely
    for i, (delay, nbytes) in enumerate(flows):
        t0, t1 = record[i]
        assert t0 == pytest.approx(delay)
        min_service = (nbytes - _EPS_BYTES) / bandwidth
        assert t1 - t0 >= min_service - 1e-9 * max(1.0, min_service)
    assert link.active_flows == 0
    # work conservation: whenever >= 1 flow is active the link moves at
    # exactly `bandwidth`, so delivered bytes == bandwidth * busy_time
    assert link.total_bytes == pytest.approx(
        bandwidth * link.busy_time, rel=1e-9, abs=len(flows) * _EPS_BYTES
    )
    # ... and the meter accounts for all admitted demand
    assert link.total_bytes == pytest.approx(total, abs=(len(flows) + 1) * 1e-3)
    assert link.total_bytes <= total + 1e-9 * total + _EPS_BYTES

