"""Unit tests for fault plans: windows, queries, seeding, JSON round-trip."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    BandwidthFault,
    FaultPlan,
    LatencyFault,
    OfflineFault,
    TransientFault,
)

pytestmark = pytest.mark.faults


# ----------------------------------------------------------- validation
def test_window_validation():
    with pytest.raises(ConfigurationError):
        LatencyFault(start=-1.0, duration=1.0)
    with pytest.raises(ConfigurationError):
        LatencyFault(start=0.0, duration=0.0)
    with pytest.raises(ConfigurationError):
        LatencyFault(start=0.0, duration=1.0, factor=0.5)  # cannot speed up
    with pytest.raises(ConfigurationError):
        BandwidthFault(start=0.0, duration=1.0, fraction=0.0)
    with pytest.raises(ConfigurationError):
        BandwidthFault(start=0.0, duration=1.0, fraction=1.5)
    with pytest.raises(ConfigurationError):
        TransientFault(start=0.0, duration=1.0, error_rate=0.0)


def test_plan_rejects_non_windows():
    with pytest.raises(ConfigurationError):
        FaultPlan(["not a window"], seed=0)


# -------------------------------------------------------- window queries
def test_empty_plan_is_falsy_and_healthy():
    plan = FaultPlan()
    assert not plan
    assert len(plan) == 0
    assert plan.latency_factor(0.0) == 1.0
    assert plan.bandwidth_fraction(0.0) == 1.0
    assert plan.offline(0.0) is None
    assert plan.transient(0.0) is None
    assert plan.draw_transient(0.0) is False
    assert plan.next_recovery(0.0) is None


def test_window_half_open_interval():
    plan = FaultPlan([LatencyFault(start=1.0, duration=2.0, factor=5.0)], seed=0)
    assert plan.latency_factor(0.999) == 1.0
    assert plan.latency_factor(1.0) == 5.0
    assert plan.latency_factor(2.999) == 5.0
    assert plan.latency_factor(3.0) == 1.0  # end is exclusive


def test_overlapping_kinds_compose_independently():
    plan = FaultPlan(
        [
            LatencyFault(start=0.0, duration=2.0, factor=4.0),
            BandwidthFault(start=1.0, duration=2.0, fraction=0.5),
            OfflineFault(start=1.5, duration=0.5),
        ],
        seed=0,
    )
    assert plan.latency_factor(0.5) == 4.0 and plan.bandwidth_fraction(0.5) == 1.0
    assert plan.latency_factor(1.2) == 4.0 and plan.bandwidth_fraction(1.2) == 0.5
    assert plan.offline(1.6) is not None and plan.offline(1.0) is None
    assert plan.next_recovery(1.6) == 2.0  # earliest end among the 3 active


# ----------------------------------------------------------- determinism
def test_transient_draws_are_seeded_and_deterministic():
    def mk():
        return FaultPlan(
            [TransientFault(start=0.0, duration=1.0, error_rate=0.5)], seed=42
        )

    p1, p2 = mk(), mk()
    s1 = [p1.draw_transient(0.5) for _ in range(50)]
    s2 = [p2.draw_transient(0.5) for _ in range(50)]
    assert s1 == s2
    assert any(s1) and not all(s1)  # 0.5 rate actually mixes outcomes
    p3 = FaultPlan([TransientFault(start=0.0, duration=1.0, error_rate=0.5)], seed=43)
    assert [p3.draw_transient(0.5) for _ in range(50)] != s1


def test_draws_outside_windows_do_not_consume_stream():
    windows = [TransientFault(start=1.0, duration=1.0, error_rate=0.5)]
    a, b = FaultPlan(windows, seed=9), FaultPlan(windows, seed=9)
    for _ in range(100):
        assert a.draw_transient(0.0) is False  # outside: no draw consumed
    sa = [a.draw_transient(1.5) for _ in range(30)]
    sb = [b.draw_transient(1.5) for _ in range(30)]
    assert sa == sb


def test_error_rate_one_always_fails():
    plan = FaultPlan(
        [TransientFault(start=0.0, duration=1.0, error_rate=1.0)], seed=0
    )
    assert all(plan.draw_transient(0.5) for _ in range(20))


# --------------------------------------------------------- serialization
def test_json_round_trip_preserves_everything():
    plan = FaultPlan(
        [
            LatencyFault(start=0.5, duration=1.0, factor=8.0),
            BandwidthFault(start=0.25, duration=2.0, fraction=0.1),
            TransientFault(start=1.0, duration=0.5, error_rate=0.3),
            OfflineFault(start=3.0, duration=0.1),
        ],
        seed=7,
        name="rt",
    )
    back = FaultPlan.from_json(plan.to_json())
    assert back.to_dict() == plan.to_dict()
    assert back.windows == plan.windows
    assert back.seed == 7 and back.name == "rt"


def test_load_from_file(tmp_path):
    plan = FaultPlan([OfflineFault(start=1.0, duration=0.5)], seed=3, name="file")
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(), encoding="utf-8")
    assert FaultPlan.load(path).to_dict() == plan.to_dict()


def test_bad_json_rejected():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json("{not json")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json('{"no_windows": []}')
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json('{"windows": [{"kind": "meteor", "start": 0, "duration": 1}]}')
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json(
            '{"windows": [{"kind": "latency", "start": 0, "duration": 1, "bogus": 2}]}'
        )
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json('{"windows": [], "seed": "zero"}')
    # NaN passes every < / <= range check, so it needs its own rejection
    for fields in ('"start": NaN, "duration": 1', '"start": 0, "duration": NaN',
                   '"start": 0, "duration": 1, "factor": NaN'):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultPlan.from_json(f'{{"windows": [{{"kind": "latency", {fields}}}]}}')
    for windows in ("[1]", '{"a": 1}'):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json(f'{{"windows": {windows}}}')
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json('{"windows": [], "seed": true}')
    # retries are the executor's RetryPolicy: a plan's retry budget is an unknown field
    with pytest.raises(ConfigurationError, match="retry_budget"):
        FaultPlan.from_json(
            '{"windows": [{"kind": "transient", "start": 0, "duration": 1, "retry_budget": 2}]}'
        )
    # the fleet's "rest of the run" sentinel duration stays legal
    plan = FaultPlan.from_json(
        '{"windows": [{"kind": "latency", "start": 0.5, "duration": 1e6, "factor": 500}]}'
    )
    assert plan.windows[0].end == 0.5 + 1e6


def test_windows_sorted_by_start():
    plan = FaultPlan(
        [
            OfflineFault(start=5.0, duration=1.0),
            LatencyFault(start=1.0, duration=1.0, factor=2.0),
        ],
        seed=0,
    )
    assert [w.start for w in plan.windows] == [1.0, 5.0]
