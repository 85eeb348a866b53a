"""DES runtime sanitizer (``REPRO_SANITIZE=1``) behaviour.

Each violation class is exercised twice: under the sanitizer it raises
:class:`SanitizerError`; without it the (deliberately broken) simulation
proceeds as before — silently for breaches the production engine never
policed, with the historical ``SimulationError`` where it always did.
Plus the determinism regression: two seeded runs produce identical event
logs.
"""

import numpy as np
import pytest

from repro.devices import NVMeSSD
from repro.devices.registry import BackendKind
from repro.errors import SanitizerError, SimulationError
from repro.rng import derive
from repro.simcore import FairShareLink, Resource, Simulator, sanitizer_enabled
from repro.swap import SwapExecutor, run_event
from repro.workloads.generators import assemble, zipf_accesses


# -- enablement -----------------------------------------------------------

def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer_enabled()
    assert Simulator().sanitize


@pytest.mark.parametrize("value", ["0", "off", "no", ""])
def test_env_var_falsy_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert not sanitizer_enabled()
    assert not Simulator().sanitize


def test_explicit_flag_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert not Simulator(sanitize=False).sanitize
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Simulator(sanitize=True).sanitize


@pytest.mark.sanitize
def test_sanitize_marker_applies():
    """The ``sanitize`` pytest marker flips the env for the whole test."""
    assert sanitizer_enabled()
    assert Simulator().sanitize


# -- event lifecycle -------------------------------------------------------

def test_double_trigger_raises_sanitizer_error():
    sim = Simulator(sanitize=True)
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SanitizerError):
        ev.succeed(2)
    with pytest.raises(SanitizerError):
        ev.fail(RuntimeError("late"))


def test_double_trigger_without_sanitizer_keeps_historical_error():
    sim = Simulator(sanitize=False)
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError) as exc_info:
        ev.succeed(2)
    assert not isinstance(exc_info.value, SanitizerError)


def test_wait_after_processed_raises_under_sanitizer():
    sim = Simulator(sanitize=True)
    ev = sim.event()
    ev.succeed(42)
    sim.run()
    with pytest.raises(SanitizerError):
        ev.callbacks.append(lambda e: None)


def test_wait_after_processed_silent_without_sanitizer():
    sim = Simulator(sanitize=False)
    ev = sim.event()
    ev.succeed(42)
    sim.run()
    ev.callbacks.append(lambda e: None)  # never fires, historically tolerated


def test_processed_event_still_yieldable_under_sanitizer():
    """The engine's own already-fired path stays legal (it checks first)."""
    sim = Simulator(sanitize=True)
    fired = sim.event()
    fired.succeed("v")
    sim.run()

    def proc():
        got = yield fired  # processed: resumes immediately via a fresh event
        return got

    p = sim.process(proc())
    assert sim.run(until=p) == "v"


# -- resources -------------------------------------------------------------

def _granted(sim, res):
    ev = res.request()
    sim.run()
    return ev.value


def test_double_release_raises_under_sanitizer():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=2, name="r")
    g1 = _granted(sim, res)
    _granted(sim, res)
    res.release(g1)
    with pytest.raises(SanitizerError):
        res.release(g1)


def test_release_of_foreign_event_raises_under_sanitizer():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1, name="r")
    _granted(sim, res)
    with pytest.raises(SanitizerError):
        res.release(sim.event())


def test_double_release_passes_silently_without_sanitizer():
    sim = Simulator(sanitize=False)
    res = Resource(sim, capacity=2, name="r")
    g1 = _granted(sim, res)
    _granted(sim, res)
    res.release(g1)
    res.release(g1)  # silent corruption: in_use drops to 0 with a holder alive
    assert res.in_use == 0


def test_sanitized_resource_normal_flow_unaffected():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1, name="r")
    done = []

    def user(i):
        grant = yield res.request()
        yield sim.timeout(1.0)
        res.release(grant)
        done.append(i)

    for i in range(3):
        sim.process(user(i))
    sim.run()
    assert done == [0, 1, 2]
    assert res.in_use == 0 and res.queue_len == 0


# -- bandwidth -------------------------------------------------------------

def test_negative_bandwidth_raises_under_sanitizer():
    sim = Simulator(sanitize=True)
    link = FairShareLink(sim, bandwidth=100.0, name="l")
    link.transfer(1000.0)
    link.bandwidth = -5.0  # corrupting bug writes the field directly
    with pytest.raises(SanitizerError):
        sim.run()


def test_negative_bandwidth_passes_silently_without_sanitizer():
    sim = Simulator(sanitize=False)
    link = FairShareLink(sim, bandwidth=100.0, name="l")
    ev = link.transfer(1000.0)
    link.bandwidth = -5.0
    sim.run()  # completes (wrongly) via the underflow path: breach unnoticed
    assert ev.processed


def test_nan_transfer_raises_under_sanitizer():
    sim = Simulator(sanitize=True)
    link = FairShareLink(sim, bandwidth=100.0, name="l")
    with pytest.raises(SanitizerError):
        link.transfer(float("nan"))


def test_nan_transfer_accepted_without_sanitizer():
    sim = Simulator(sanitize=False)
    link = FairShareLink(sim, bandwidth=100.0, name="l")
    link.transfer(float("nan"))  # silently poisons the fluid state


# -- swap executor: page conservation -------------------------------------

def _executor(sanitize, local=40, event_log=None):
    sim = Simulator(sanitize=sanitize, event_log=event_log)
    ex = SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD, local_pages=local)
    return ex


def _trace(seed=7, n_pages=120, n_accesses=1500, start=0):
    rng = derive(seed, "tests/sanitizer")
    return assemble(rng, zipf_accesses(rng, n_pages, n_accesses, alpha=1.1, start=start),
                    anon_ratio=1.0)


def test_sanitized_executor_run_passes():
    ex = _executor(sanitize=True)
    res = ex.run(_trace())
    assert res.faults > 0  # the conservation check actually saw swap traffic


def test_lost_page_raises_under_sanitizer():
    ex = _executor(sanitize=True)
    ex.run(_trace())
    # lose a far page that is not also swap-cache-resident locally
    victim = next(p for p in ex.frontend._owner if p not in ex.lru)
    ex.frontend._owner.pop(victim)
    with pytest.raises(SanitizerError):
        ex.assert_page_conservation()


def test_lost_page_unnoticed_without_sanitizer():
    ex = _executor(sanitize=False)
    ex.run(_trace())
    victim = next(p for p in ex.frontend._owner if p not in ex.lru)
    ex.frontend._owner.pop(victim)  # lose one far page
    # a later run that never touches the lost page completes without complaint
    res2 = ex.run(_trace(seed=8, start=10_000))
    assert res2.accesses > 0 and not ex.frontend.swapped_out(victim)


def test_undrained_eviction_queue_detected():
    ex = _executor(sanitize=True)
    ex.run(_trace())
    ex._evicted.append(10**6)
    with pytest.raises(SanitizerError):
        ex.assert_page_conservation()


# -- determinism regression ------------------------------------------------

def _event_log_for(seed):
    # pin the per-access event executor: the batched replay engine admits
    # whole windows, leaving too few DES events for a meaningful log diff
    log = []
    ex = _executor(sanitize=False, event_log=log)
    return log, run_event([ex], [_trace(seed=seed)])[0]


def test_seeded_runs_produce_identical_event_logs():
    log_a, res_a = _event_log_for(seed=11)
    log_b, res_b = _event_log_for(seed=11)
    assert log_a == log_b
    assert len(log_a) > 100
    assert (res_a.faults, res_a.swap_ins, res_a.swap_outs, res_a.sim_time) == (
        res_b.faults, res_b.swap_ins, res_b.swap_outs, res_b.sim_time)


def test_different_seeds_diverge():
    log_a, _ = _event_log_for(seed=11)
    log_b, _ = _event_log_for(seed=12)
    assert log_a != log_b


@pytest.mark.sanitize
def test_seeded_runs_identical_under_sanitizer_marker():
    """Sanitizer checks must not perturb the event stream."""
    log_a, _ = _event_log_for(seed=11)
    assert Simulator().sanitize  # marker took effect
    sim = Simulator(event_log=(log_c := []))
    ex = SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD, local_pages=40)
    run_event([ex], [_trace(seed=11)])
    assert log_c == log_a
