"""Event-level end-to-end swap execution.

The analytic :class:`~repro.swap.pathmodel.SwapPathModel` prices a whole
run in closed form; this module *executes* one, page by page, through the
real machinery: the two-generation LRU (its capacity is the local
memory limit), the switchable frontend, backend modules, devices, and
PCIe.  It exists for three reasons:

* **fidelity checks** — integration tests replay small traces through
  both layers: cold-allocation counts must match the MRC exactly, fault
  counts must track it closely (the kernel-style two-generation LRU
  slightly beats the MRC's exact LRU on skewed traces), and time
  estimates must agree in ordering;
* **contention studies** — effects the closed form only approximates
  (queueing between co-located tenants on one device, PCIe interleaving)
  emerge naturally here;
* **online control** — the epoch hooks feed
  :class:`repro.core.online.OnlineController` with measured-behaviour
  windows, the runtime counterpart of the paper's offline profiling.

Cost model at this layer: each *blocking* fault pays the kernel fault cost
plus the backend's DES store/load (device channels, media pipe, PCIe slot,
root complex all contended); prefetched pages ride along batched.  The
per-access loop here is the reference engine (:func:`run_event`);
:meth:`SwapExecutor.run` and :func:`run_tenants` hand eligible runs to
the batch engine (:mod:`repro.swap.replay`) or the hybrid planner
(:mod:`repro.swap.plan`) through one dispatcher,
:func:`repro.swap.replay._engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.base import FarMemoryDevice
from repro.devices.registry import BackendKind
from repro.errors import (
    ConfigurationError,
    DeviceOfflineError,
    SanitizerError,
    TransientDeviceError,
)
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page import PageKind, PageOp
from repro.simcore import OnlineStats, Simulator, TimeSeries
from repro.swap.backend import build_backend_module
from repro.swap.frontend import SwapFrontend
from repro.swap.pathmodel import FAULT_COST, SwapConfig
from repro.swap.replay import _engine, _tenant_group, replay_run_multi
from repro.trace.schema import PageTrace
from repro.units import usec

__all__ = ["COUNTERS", "RetryPolicy", "SwapExecutionResult", "SwapExecutor",
           "run_event", "run_tenants", "make_contended_executors"]

#: The counters every engine must reproduce exactly, in the order ``repro
#: replay`` prints them; the fault-path pair is 0 on clean runs.
COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
            "swap_outs", "clean_drops", "file_skips", "transient_retries",
            "failovers")

#: Progress is sampled (and, in sanitizer mode, page conservation checked)
#: every this-many accesses of the event-level loop.
_PROGRESS_STRIDE = 256

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for injected device errors.

    Models the kernel block layer's requeue behaviour: a transient error
    is re-submitted up to ``max_retries`` times with
    ``backoff * backoff_factor**(attempt-1)`` between attempts, after
    which the error escalates (failover or graceful degradation).
    """

    max_retries: int = 4
    backoff: float = usec(50.0)
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff <= 0:
            raise ConfigurationError(f"backoff must be positive, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:  # simlint: dim[return=seconds]
        """Backoff before retry ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


@dataclass
class SwapExecutionResult:
    """Counters and timings from one executed trace."""

    accesses: int = 0
    hits: int = 0
    faults: int = 0            #: misses on swapped-out pages (capacity)
    cold_allocations: int = 0  #: first touches (no far-memory traffic)
    swap_ins: int = 0
    swap_outs: int = 0
    clean_drops: int = 0   #: clean victims dropped without writeback
    file_skips: int = 0
    sim_time: float = 0.0      #: simulated seconds spent swapping
    transient_retries: int = 0 #: injected transient failures that were retried
    stall_time: float = 0.0    #: graceful-degradation wait for fault windows, seconds
    failovers: int = 0         #: completed mid-run backend switches
    fault_latency: OnlineStats = field(default_factory=OnlineStats)

    @property
    def miss_ratio(self) -> float:
        """Capacity misses per access."""
        return self.faults / self.accesses if self.accesses else 0.0


class SwapExecutor:
    """Replays a page trace through the event-level swap stack."""

    def __init__(
        self,
        sim: Simulator,
        device: FarMemoryDevice,
        kind: BackendKind,
        local_pages: int,
        config: SwapConfig | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if local_pages < 2:
            raise ConfigurationError(f"local_pages must be >= 2, got {local_pages}")
        self.sim = sim
        self.config = config or SwapConfig()
        self.retry = retry or RetryPolicy()
        #: optional FailoverController (see :meth:`attach_failover`)
        self.failover = None
        #: faults between health-monitor window evaluations
        self.health_check_interval = 64
        #: lazy migration: after a fault served by a non-active owner, drop
        #: the stale far copy so the page's next eviction re-stores it on
        #: the active backend.  Off by default (planned-switch studies keep
        #: the swap-cache copy); enabled when a failover controller is
        #: attached — re-faulting a hot clean page from a degraded backend
        #: forever defeats the point of switching away from it.
        self.migrate_on_fault = False
        self.frontend = SwapFrontend(sim, name="exec:fe")
        module = build_backend_module(sim, kind, device)
        module.name = str(kind)
        self.frontend.register(module)
        sim.run(until=self.frontend.switch_to(str(kind)))
        # victims evicted by the LRU are queued for swap-out
        self._evicted: list[int] = []
        self.lru = ActiveInactiveLRU(
            capacity=local_pages, on_evict=self._evicted.append
        )
        self._touched: set[int] = set()
        self.result = SwapExecutionResult()
        #: (sim time, accesses completed) sampled every _PROGRESS_STRIDE
        #: accesses of the event-level loop; batched replay leaves it
        #: empty and the segmented hybrid engine records one sample per
        #: admitted chunk
        self.progress: TimeSeries = TimeSeries(name="exec:progress")
        #: the segment plan of the last hybrid run (see repro.swap.plan),
        #: None for pure batch/event runs
        self.execution_plan = None

    # -- fault tolerance -------------------------------------------------------
    def add_standby(self, kind: BackendKind, device: FarMemoryDevice) -> None:
        """Register (but do not start) a standby backend module.

        The standby only costs its module-start time when a failover
        actually switches to it — the pre-assembled-module warm start.
        """
        module = build_backend_module(self.sim, kind, device)
        module.name = str(kind)
        self.frontend.register(module)

    def attach_failover(self, controller, health_check_interval: int = 64) -> None:
        """Wire a :class:`~repro.faults.failover.FailoverController` in.

        The controller must share this executor's frontend.  Every served
        fault feeds the controller's active-backend health monitor, and
        every ``health_check_interval`` faults the monitor window is
        evaluated (possibly driving a mid-run backend switch).
        """
        if health_check_interval < 1:
            raise ConfigurationError(
                f"health_check_interval must be >= 1, got {health_check_interval}"
            )
        if getattr(controller, "frontend", None) is not self.frontend:
            raise ConfigurationError(
                "failover controller must be built on this executor's frontend"
            )
        self.failover = controller
        self.health_check_interval = health_check_interval
        self.migrate_on_fault = True

    def _fault_injected(self) -> bool:
        """Whether any registered module wraps a device with *live* windows.

        A plan whose every window has already elapsed (``end <= now``) can
        never perturb the run, so it does not cost batch eligibility.
        """
        now = self.sim.now
        for name in self.frontend.backends:
            plan = getattr(self.frontend.module(name).device, "fault_plan", None)
            if plan is not None and plan and plan.live_spans(now):
                return True
        return False

    # -- execution -----------------------------------------------------------
    def run(self, trace: PageTrace, classify=None) -> SwapExecutionResult:
        """Execute the whole trace; returns the accumulated counters.

        :func:`~repro.swap.replay._engine` picks the engine: ``batch``
        runs the one-tenant case of
        :func:`~repro.swap.replay.replay_run_multi` (classification plus
        windowed admission); ``hybrid`` the segmented planner of
        :mod:`repro.swap.plan` (batch outside hazard spans, the exact loop
        inside them); ``event`` :func:`run_event`, the exact per-access
        loop.  ``classify`` is the batch engine's phase-1 hook; no other
        engine calls it.
        """
        engine = _engine([self])
        if engine == "batch":
            return replay_run_multi([self], [trace], classify)[0]
        if engine == "hybrid":
            from repro.swap.plan import hybrid_run

            return hybrid_run(self, trace)
        return run_event([self], [trace])[0]

    def _cold_idle(self) -> bool:
        """Whether the stack is cold and the simulator idle.

        The premise both replay engines share: nothing resident or
        swapped out yet, no counters accumulated, no concurrent DES
        activity the per-access loop would interleave with.
        """
        return (
            self.sim.idle
            and self.result.accesses == 0
            and not self._touched
            and len(self.lru) == 0
            and not self._evicted
            and self.frontend.resident_far_pages == 0
        )

    def _run_proc(self, trace: PageTrace):
        res = self.result
        sim = self.sim
        start = sim.now
        yield from self._span_proc(
            trace.pages.tolist(), trace.kinds.tolist(), trace.ops.tolist()
        )
        if sim.sanitize:
            self.assert_page_conservation()
        self.progress.record(sim.now, float(res.accesses))
        res.sim_time = sim.now - start
        return res

    def _span_proc(self, pages, kinds, ops, stop_time=None, switched0=None):
        """Run the accesses ``pages``/``kinds``/``ops`` through the
        per-access event loop.

        The exact engine, span-shaped for the hybrid planner: with a
        ``stop_time`` the loop hands back control at the first access
        boundary after the clock reaches it — or after a failover switch
        completes (the controller's ``switched_at`` moves off
        ``switched0``, the caller's span-entry value), since the stop time
        was priced against the *pre-switch* active plan — *and* the
        failover monitor is quiescent (see
        :meth:`FailoverController.quiescent` — a batch segment must not
        inherit unevaluated health samples).  Returns the number of
        accesses processed; the caller owns start/end bookkeeping
        (``sim_time``, final progress sample, sanitizer pass).
        """
        res = self.result
        sim = self.sim
        anon = int(PageKind.ANON)
        store_op = int(PageOp.STORE)
        # the loop body runs per access — bind the hot callables once
        frontend = self.frontend
        lru_access = self.lru.access
        swapped_out = frontend.swapped_out
        touched = self._touched
        evicted = self._evicted
        granularity = self.config.granularity
        add_latency = res.fault_latency.add
        skip = sim.skip
        sanitize = sim.sanitize
        failover = self.failover
        i = 0
        for page, kind, op in zip(pages, kinds, ops):
            i += 1
            res.accesses += 1
            if kind != anon:
                res.file_skips += 1
                continue
            if lru_access(page):
                res.hits += 1
                dirtied_now = op == store_op
            elif page not in touched:
                touched.add(page)
                dirtied_now = True  # first touch populates the page
                res.cold_allocations += 1  # zero-fill, no device traffic
            else:
                res.faults += 1
                t0 = sim.now
                owner = frontend.owner_of(page)
                if not skip(FAULT_COST):
                    yield sim.timeout(FAULT_COST)
                # one device op fetches the granule covering this page; the
                # far copy is retained (swap cache) so a clean re-reclaim
                # later needs no rewrite
                yield from self._load_guarded(page, granularity)
                res.swap_ins += 1
                if (
                    self.migrate_on_fault
                    and owner is not None
                    and owner != frontend.active_backend
                    and swapped_out(page)
                ):
                    # lazy migration off a failed-over backend: drop the
                    # retained copy (no I/O) so the next eviction stores
                    # the page on the active backend instead
                    frontend.invalidate_page(page)
                latency = sim.now - t0
                add_latency(latency)
                if failover is not None:
                    # attribute the latency to the module that served it —
                    # under lazy migration the page's owner, which after a
                    # switch is often still the degraded old backend
                    failover.observe_fault(latency, granularity, backend=owner)
                    if res.faults % self.health_check_interval == 0:
                        if (yield from failover.check_gen()) is not None:
                            res.failovers += 1
                dirtied_now = op == store_op
            if dirtied_now and swapped_out(page):
                # resident page diverged from its far copy
                frontend.invalidate_page(page)
            # drain reclaim victims produced by this access
            while evicted:
                victim = evicted.pop()
                if swapped_out(victim):
                    # clean victim with a valid swap-cache copy: free the
                    # local frame, no writeback
                    res.clean_drops += 1
                    continue
                yield from self._store_guarded(victim, granularity)
                res.swap_outs += 1
            if res.accesses % _PROGRESS_STRIDE == 0:
                self.progress.record(sim.now, float(res.accesses))
                if sanitize:
                    self.assert_page_conservation()
            if (
                stop_time is not None
                and (sim.now >= stop_time
                     or (failover is not None
                         and failover.switched_at != switched0))
                and (failover is None or failover.quiescent())
            ):
                break
        return i

    # -- guarded I/O (fault tolerance) -----------------------------------------
    def _owner_device(self, page: int) -> FarMemoryDevice:
        """Device of the backend serving ``page`` (active backend fallback)."""
        owner = self.frontend.owner_of(page)
        name = owner if owner is not None else self.frontend.active_backend
        return self.frontend.module(name).device

    def _stall_for(self, device: FarMemoryDevice):
        """Graceful degradation: wait out the device's current fault window.

        When the window end is unknown (no plan attached, or the plan says
        healthy but the device still failed), fall back to one maximal
        backoff so simulated time always advances between attempts.
        """
        plan = getattr(device, "fault_plan", None)
        now = self.sim.now
        recovery = plan.next_recovery(now) if plan is not None else None
        if recovery is not None and recovery > now:
            wait = recovery - now
        else:
            wait = self.retry.delay(self.retry.max_retries + 1)
        self.result.stall_time += wait
        if not self.sim.skip(wait):
            yield self.sim.timeout(wait)

    def _load_guarded(self, page: int, granularity: int):
        """Load with bounded transient retries and offline stall.

        A page's data lives on its owning backend, so an offline owner
        cannot be failed over — graceful degradation stalls the faulting
        task (local memory pressure: the resident set simply stops
        growing) until the window passes, then retries.  Past the retry
        budget on a *transient* window the op keeps re-submitting at the
        maximal backoff (the window will pass; waiting it out entirely
        would punish a recoverable blip like an outage), with the extra
        waiting booked as stall time.
        """
        attempt = 0
        while True:
            try:
                yield from self.frontend.load_page(page, granularity=granularity)
                return
            except TransientDeviceError:
                attempt += 1
                self.result.transient_retries += 1
                delay = self.retry.delay(min(attempt, self.retry.max_retries + 1))
                if attempt > self.retry.max_retries:
                    self.result.stall_time += delay
                if not self.sim.skip(delay):
                    yield self.sim.timeout(delay)
            except DeviceOfflineError:
                yield from self._stall_for(self._owner_device(page))
                attempt = 0

    def _store_guarded(self, victim: int, granularity: int):
        """Store with retries, rollback, and failover escalation.

        Unlike loads, a store may change destination: after the retry
        budget (or an offline rejection), an attached failover controller
        switches the active backend and the store is re-submitted there;
        without one, graceful degradation stalls until the window passes.
        Each failed attempt releases the module's eager slot claim via
        ``abort_store``.
        """
        attempt = 0
        while True:
            try:
                yield from self.frontend.store_page(victim, granularity=granularity)
                return
            except TransientDeviceError:
                self.frontend.abort_store(victim)
                attempt += 1
                self.result.transient_retries += 1
                if attempt > self.retry.max_retries:
                    yield from self._escalate_store()
                    attempt = 0
                else:
                    delay = self.retry.delay(attempt)
                    if not self.sim.skip(delay):
                        yield self.sim.timeout(delay)
            except DeviceOfflineError:
                self.frontend.abort_store(victim)
                yield from self._escalate_store()
                attempt = 0

    def _escalate_store(self):
        """Fail the active backend over if possible, else stall."""
        active = self.frontend.active_backend
        device = self.frontend.module(active).device
        if self.failover is not None:
            target = yield from self.failover.escalate_gen(
                reason=f"store to {active} failed past the retry budget"
            )
            if target is not None:
                self.result.failovers += 1
                return
        yield from self._stall_for(device)

    # -- sanitizer -------------------------------------------------------------
    def assert_page_conservation(self) -> None:
        """Every touched anonymous page is resident, in far memory, or both.

        A page that is neither was *lost* across a swap-in/swap-out cycle —
        its data is gone even though the simulation keeps running.  Called
        periodically in sanitizer mode (``REPRO_SANITIZE=1``), at a point
        where the eviction queue has been drained.
        """
        if self._evicted:
            raise SanitizerError(
                f"page conservation checked with {len(self._evicted)} undrained "
                "eviction victim(s); victims must be stored or dropped first"
            )
        lost = [
            p for p in self._touched
            if p not in self.lru and not self.frontend.swapped_out(p)
        ]
        if lost:
            raise SanitizerError(
                f"page conservation violated: {len(lost)} page(s) neither "
                f"resident nor in far memory (first: {sorted(lost)[:5]})"
            )

    # -- introspection ---------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Pages currently in the local LRU."""
        return len(self.lru)

    @property
    def far_pages(self) -> int:
        """Pages currently on the backend."""
        return self.frontend.resident_far_pages


def make_contended_executors(
    sim: Simulator,
    device: FarMemoryDevice,
    kind: BackendKind,
    n_tenants: int,
    local_pages: int,
    config: SwapConfig | None = None,
) -> list[SwapExecutor]:
    """``n_tenants`` cold executors contending for one shared device.

    Every tenant gets its own frontend, backend module, and LRU, but all
    modules wrap the same device — channel pool, media pipes, and any
    PCIe slot/switch are shared, which is exactly the contention the
    multi-tenant studies measure.  Module start-ups run sequentially
    during construction; the simulator is idle (and the stack cold) when
    this returns, so the executors are eligible for batched replay.
    """
    if n_tenants < 1:
        raise ConfigurationError(f"n_tenants must be >= 1, got {n_tenants}")
    return [
        SwapExecutor(sim, device, kind, local_pages=local_pages, config=config)
        for _ in range(n_tenants)
    ]


def run_event(executors, traces) -> list[SwapExecutionResult]:
    """Execute one trace per tenant on the per-access event loop.

    The reference the batch engine and the hybrid planner are checked
    against: every tenant's loop runs concurrently on the shared
    simulator, whatever :func:`~repro.swap.replay._engine` would pick.
    Checks the group and returns results like :func:`run_tenants`.
    """
    executors, traces = _tenant_group(executors, traces)
    sim = executors[0].sim
    procs = [
        sim.process(ex._run_proc(trace), name=f"exec:run:{i}")
        for i, (ex, trace) in enumerate(zip(executors, traces))
    ]
    sim.run(until=sim.all_of(procs))
    return [ex.result for ex in executors]


def run_tenants(executors, traces, classify=None) -> list[SwapExecutionResult]:
    """Execute one trace per tenant concurrently on a shared simulator.

    The multi-tenant counterpart of :meth:`SwapExecutor.run`, dispatched
    by the same :func:`~repro.swap.replay._engine`: ``batch`` routes the
    group through :func:`~repro.swap.replay.replay_run_multi`
    (vectorized classification per tenant, then windowed admission
    through the event engine), ``event`` is :func:`run_event`.
    A single tenant delegates to :meth:`SwapExecutor.run`,
    so injected or failover-managed runs take the segmented hybrid
    planner (:mod:`repro.swap.plan`) rather than the bare event loop.
    The group is checked (non-empty, one trace per executor, distinct
    executors, one simulator) before any engine starts.  ``classify`` is
    handed to the batch engine.  Returns the per-tenant results in input
    order; each tenant's ``sim_time`` covers its own start-to-finish
    interval.
    """
    executors, traces = _tenant_group(executors, traces)
    if len(executors) == 1:
        return [executors[0].run(traces[0], classify)]
    if _engine(executors) == "batch":
        return replay_run_multi(executors, traces, classify)
    return run_event(executors, traces)
