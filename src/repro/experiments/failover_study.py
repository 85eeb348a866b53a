"""Failover study: mid-run backend degradation, detection, and switching.

The resilience counterpart of the switching-overhead study (Fig 18-b):
instead of asking *how much a planned switch costs*, it asks how the
runtime stack behaves when a backend degrades **mid-run** — the
multi-backend failure mode that motivates keeping pre-assembled standby
modules around.  For each direction (SSD primary with an RDMA standby,
and the reverse) four regimes replay the same trace:

* **clean** — healthy primary, no faults (the reference runtime);
* **degraded** — a latency+bandwidth fault window opens partway through
  and never closes; no standby, the run limps to the end;
* **managed** — same fault, but a :class:`~repro.faults.FailoverController`
  watches observed fault latencies and switches the swapper to the
  standby once MEI, computed against *measured* degradation, favours it;
* **oracle** — same fault, with a switch scheduled at exactly the fault
  onset (the best any detector could do).

Reported: time-to-detect (onset -> degradation flagged), time-to-switch
(flagged -> standby active), and the post-switch throughput ratio of
managed vs oracle — the managed run pays the detection delay, but once
switched it must sustain ~the oracle's pace (>= 0.9 is the acceptance
bar).  The managed run executes twice with the same seed; bit-identical
simulated times lock in that fault injection is deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.core.switching import ImplicitSwitcher
from repro.devices import BackendKind
from repro.devices.registry import make_device
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.faults import BandwidthFault, FailoverController, FaultPlan, FaultyDevice, LatencyFault
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapExecutor

__all__ = ["run", "WORKLOAD", "DIRECTIONS"]

#: swap-latency-bound workload (RDMA-preferred when healthy) — the
#: interesting case for both failover directions
WORKLOAD = "lg-bc"
FM_RATIO = 0.5
#: (primary, standby) backend kinds
DIRECTIONS = (
    (BackendKind.SSD, BackendKind.RDMA),
    (BackendKind.RDMA, BackendKind.SSD),
)
#: cap per-regime trace length: the oracle regime (pre-scheduled switch
#: process) still walks the exact event loop, but in the managed regime
#: both the healthy pre-onset quarter and — owner-aware, once the switch
#: quiesces — the post-switch tail ride the hybrid planner's batch path
_MAX_TRACE = 40_000
#: per-primary degradation (latency factor, bandwidth fraction): severe
#: enough that MEI favours the standby AND the degraded phase dwarfs the
#: standby's module-start cost — a degraded-RDMA op must get slower than
#: a healthy SSD op by a wide margin, which takes a larger factor than
#: the reverse direction needs
_DEGRADATION: dict[BackendKind, tuple[float, float]] = {
    BackendKind.SSD: (50.0, 0.02),
    BackendKind.RDMA: (500.0, 0.005),
}
#: fault onset as a fraction of the clean runtime
_ONSET_FRACTION = 0.25
_HEALTH_INTERVAL = 32


def _build(ctx: ExperimentContext, primary: BackendKind, standby: BackendKind | None,
           local: int):
    """Fresh simulator + executor with a fault-wrappable primary."""
    sim = Simulator(sanitize=True)
    inner = make_device(sim, primary)
    faulty = FaultyDevice(inner, FaultPlan())
    executor = SwapExecutor(sim, faulty, primary, local_pages=local)
    standby_dev = None
    if standby is not None:
        standby_dev = make_device(sim, standby)
        executor.add_standby(standby, standby_dev)
    return sim, executor, faulty, standby_dev


def _plan(onset: float, primary: BackendKind, seed: int | None) -> FaultPlan:
    # one very long window: the primary never recovers on its own
    duration = 1e6  # simlint: ignore[UNIT001] -- sentinel "rest of the run" duration in seconds
    factor, fraction = _DEGRADATION[primary]
    return FaultPlan(
        [
            LatencyFault(start=onset, duration=duration, factor=factor),
            BandwidthFault(start=onset, duration=duration, fraction=fraction),
        ],
        seed=seed,
        name="failover-study",
    )


def _accesses_at(executor: SwapExecutor, t: float) -> float:
    times, counts = executor.progress.arrays()
    if len(times) == 0:
        return 0.0
    return float(np.interp(t, times, counts))


def _post_switch_throughput(executor: SwapExecutor, switch_time: float,
                            end_time: float) -> float:
    """Accesses per second completed after ``switch_time``."""
    if end_time <= switch_time:
        return 0.0
    total = float(executor.result.accesses)
    done_at_switch = _accesses_at(executor, switch_time)
    return (total - done_at_switch) / (end_time - switch_time)


def _run_managed(ctx, trace, features, compute, fault_par, primary, standby, local,
                 seed, onset_delta):
    sim, executor, faulty, standby_dev = _build(ctx, primary, standby, local)
    onset = sim.now + onset_delta
    faulty.fault_plan = _plan(onset, primary, seed)
    switcher = ImplicitSwitcher({
        str(primary): (faulty, SwapConfig()),
        str(standby): (standby_dev, SwapConfig()),
    })
    controller = FailoverController(
        executor.frontend, switcher, features, compute,
        fm_ratio=FM_RATIO, fault_parallelism=fault_par,
    )
    executor.attach_failover(controller, health_check_interval=_HEALTH_INTERVAL)
    result = executor.run(trace)
    return executor, controller, result, onset


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Clean / degraded / managed / oracle regimes for both directions."""
    w = ctx.workload(WORKLOAD)
    trace = w.trace(ctx.scale, ctx.seed)
    if len(trace) > _MAX_TRACE:
        trace = trace.slice(0, _MAX_TRACE)
    features = ctx.features(WORKLOAD)
    compute = ctx.compute_time(WORKLOAD)
    fault_par = w.spec.fault_parallelism
    local = max(2, int(features.mrc.n_pages * (1.0 - FM_RATIO)))

    rows = []
    metrics: dict[str, float] = {}
    for primary, standby in DIRECTIONS:
        tag = f"{primary}->{standby}"

        # clean reference: healthy primary end to end
        sim, executor, faulty, _ = _build(ctx, primary, None, local)
        clean = executor.run(trace)
        t_clean = clean.sim_time
        rows.append([tag, "clean", f"{t_clean:.4f}", clean.faults, 0, "-", "-", "-"])

        onset_delta = _ONSET_FRACTION * t_clean

        # degraded: fault opens mid-run, nothing reacts
        sim, executor, faulty, _ = _build(ctx, primary, None, local)
        onset = sim.now + onset_delta
        faulty.fault_plan = _plan(onset, primary, ctx.seed)
        degraded = executor.run(trace)
        rows.append([tag, "degraded", f"{degraded.sim_time:.4f}", degraded.faults,
                     0, "-", "-", "-"])

        # oracle: switch scheduled at exactly the onset
        sim, executor, faulty, _std = _build(ctx, primary, standby, local)
        onset = sim.now + onset_delta
        faulty.fault_plan = _plan(onset, primary, ctx.seed)
        # same lazy-migration policy the managed run gets from
        # attach_failover, so post-switch throughputs are comparable
        executor.migrate_on_fault = True
        switch_done: list[float] = []

        def oracle_proc(sim=sim, executor=executor, onset=onset, done=switch_done):
            yield sim.timeout(onset - sim.now)
            yield executor.frontend.switch_to(str(standby))
            done.append(sim.now)

        switch_proc = sim.process(oracle_proc(), name="oracle-switch")
        oracle = executor.run(trace)
        oracle_end = sim.now
        # a short trace can finish while the switch is still in flight:
        # complete it so the row still reports when it would have landed
        # (the post-switch throughput is then 0)
        sim.run(until=switch_proc)
        oracle_tput = _post_switch_throughput(executor, switch_done[0], oracle_end)
        rows.append([tag, "oracle", f"{oracle.sim_time:.4f}", oracle.faults, 1,
                     "0.0000", f"{switch_done[0] - onset:.4f}", "-"])

        # managed: detect from observations, switch via MEI re-ranking
        executor, controller, managed, onset = _run_managed(
            ctx, trace, features, compute, fault_par, primary, standby, local,
            ctx.seed, onset_delta)
        managed_end = executor.sim.now
        detect = (controller.detected_at - onset) if controller.detected_at else float("nan")
        switch = (
            controller.switched_at - controller.detected_at
            if controller.switched_at is not None and controller.detected_at is not None
            else float("nan")
        )
        tput_ratio = (
            _post_switch_throughput(executor, controller.switched_at, managed_end)
            / oracle_tput
            if controller.switched_at is not None and oracle_tput > 0
            else 0.0
        )
        rows.append([tag, "managed", f"{managed.sim_time:.4f}", managed.faults,
                     managed.failovers, f"{detect:.4f}", f"{switch:.4f}",
                     f"{tput_ratio:.3f}"])

        # determinism: same seed, bit-identical managed run
        executor2, controller2, managed2, _ = _run_managed(
            ctx, trace, features, compute, fault_par, primary, standby, local,
            ctx.seed, onset_delta)
        identical = (
            managed2.sim_time == managed.sim_time  # simlint: ignore[UNIT002] -- bit-identical replay is the property under test
            and controller2.switched_at == controller.switched_at
            and managed2.faults == managed.faults
        )

        key = f"{primary}_{standby}"
        # the managed run rides the segmented hybrid planner (batch
        # admission until the fault onset, exact event loop after): its
        # as-executed schedule is part of the study's diagnostics
        hplan = executor.execution_plan
        if hplan is not None:
            metrics[f"hybrid_segments_{key}"] = float(hplan.n_segments)
            metrics[f"hybrid_event_time_fraction_{key}"] = (
                hplan.event_time_fraction)
        metrics[f"time_to_detect_{key}"] = detect
        metrics[f"time_to_switch_{key}"] = switch
        metrics[f"post_switch_tput_ratio_{key}"] = tput_ratio
        metrics[f"deterministic_{key}"] = float(identical)
        metrics[f"slowdown_unmanaged_{key}"] = degraded.sim_time / t_clean
        metrics[f"slowdown_managed_{key}"] = managed.sim_time / t_clean

    return ExperimentResult(
        name="failover_study",
        title="Mid-run backend degradation: detection, failover, recovery",
        headers=["direction", "regime", "sim_time", "faults", "switches",
                 "time_to_detect", "time_to_switch", "post_tput_vs_oracle"],
        rows=rows,
        metrics=metrics,
        notes=(
            "managed must detect within the configured health window, "
            "sustain >= 0.9 of the oracle's post-switch throughput, and be "
            "bit-identical across same-seed runs (sanitizer on throughout)"
        ),
    )
