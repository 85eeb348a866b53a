"""Fleet-scale cluster simulation: MBE leases drive live per-node replay.

This module closes the loop between the cluster layer's *analytic* memory
balancing (:mod:`repro.cluster.pool`) and the single-node *runtime* stack
(:mod:`repro.swap`): every machine of an N-node fleet runs the existing
swap executor, and the :class:`~repro.cluster.pool.RemoteMemoryPool` lease
match decides how much remote DRAM each pressured node actually gets.

Per utilization snapshot (one *epoch* of the
:class:`~repro.cluster.trace_gen.UtilizationTrace`):

1. the pool re-runs the greedy match — lease churn: borrowers gain or
   lose remote capacity as the fleet's pressure shifts;
2. the :class:`~repro.topology.rack.RackFabric` resolves each borrower's
   fair-share fabric bandwidth, so its remote-DRAM backend contends with
   its donors' own traffic (and pays the spine discount across racks);
3. each borrower replays a seeded zipf job through a
   :class:`~repro.swap.SwapExecutor` whose RDMA backend is sized and
   clocked by the lease — :func:`simulate_node`, a *pure* function of
   ``(config, assignment)``, which is what makes per-node counters
   bit-identical between the fleet sweep and a standalone run with the
   same lease schedule;
4. donors fail at ``failure_rate`` per epoch (seeded): a borrower whose
   donor dies sees its remote-DRAM lease *fail slow* — the dominant
   data-center failure mode — and the :mod:`repro.faults` stack detects,
   fails over to the local SSD standby, and lazily migrates, cascading
   the donor fault across every borrower it backed.

The sweep fans node-jobs out over a process pool (``REPRO_FLEET_JOBS``
or the ``jobs`` argument); results are reduced in input order, so the
fleet study's output is byte-identical at any worker count.  A sweep's
results are one artifact-cache entry (:func:`repro.cache.fleet_key`:
the config fingerprint plus a digest of the resolved plan), stored once
every node job has returned and loaded whole by a warm sweep.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from repro import cache
from repro.cluster.mbe import mbe
from repro.cluster.pool import RemoteMemoryPool
from repro.cluster.trace_gen import alibaba_like_trace
from repro.core.switching import ImplicitSwitcher
from repro.devices import BackendKind
from repro.devices.rdma import RDMANic
from repro.devices.registry import make_device
from repro.errors import ConfigurationError
from repro.faults import BandwidthFault, FailoverController, FaultPlan, FaultyDevice, LatencyFault
from repro.mem.page import PageOp
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapExecutor
from repro.topology.rack import RackFabric
from repro.topology.server import ServerSpec, paper_testbed
from repro.trace import fuse
from repro.trace.schema import make_trace
from repro.units import MBps, gib

__all__ = [
    "FLEET_VERSION",
    "FleetConfig",
    "NodeAssignment",
    "NodeJobResult",
    "EpochSummary",
    "FleetResult",
    "plan_fleet",
    "simulate_node",
    "run_fleet",
    "fleet_jobs_from_env",
]

#: bump when the node-job simulation or the sweep cache entry's layout
#: changes meaning (invalidates cache)
FLEET_VERSION = 2

#: synthetic CPU work per trace access, seconds — sets the slowdown scale
_COMPUTE_PER_ACCESS = 2e-7
#: donor failure onset as a fraction of the borrower's clean runtime
_ONSET_FRACTION = 0.25
#: fail-slow degradation of a dying donor's lease (latency factor,
#: bandwidth fraction) — severe enough that MEI always favours the local
#: SSD standby (same regime as the failover study's RDMA direction)
_FAILSLOW = (500.0, 0.005)
_HEALTH_INTERVAL = 8
_MIN_SAMPLES = 8
#: fair-share floor: a lease never starves below a minimal QP allocation
_BANDWIDTH_FLOOR = MBps(100.0)


@dataclass(frozen=True)
class FleetConfig:
    """One fleet sweep: topology, thresholds, and the per-node job shape."""

    n_nodes: int = 1000
    n_snapshots: int = 4
    year: int = 2017
    alpha: float = 0.5
    beta: float = 0.5
    fabric_limit: float = 0.5
    rack_size: int = 32
    spine_factor: float = 0.7
    accesses_per_job: int = 2048
    pages_per_job: int = 64
    store_ratio: float = 0.3
    failure_rate: float = 0.01
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("a fleet needs at least 2 nodes")
        if self.n_snapshots < 1:
            raise ConfigurationError("n_snapshots must be >= 1")
        if self.accesses_per_job < 1 or self.pages_per_job < 2:
            raise ConfigurationError("job shape must be positive (>= 2 pages)")
        if not 0.0 <= self.store_ratio <= 1.0:
            raise ConfigurationError("store_ratio must lie in [0, 1]")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ConfigurationError("failure_rate must lie in [0, 1]")

    def fingerprint(self) -> dict:
        """The node-job-relevant identity of this sweep (cache key part)."""
        return {
            "n_nodes": self.n_nodes,
            "n_snapshots": self.n_snapshots,
            "year": self.year,
            "alpha": self.alpha,
            "beta": self.beta,
            "fabric_limit": self.fabric_limit,
            "rack_size": self.rack_size,
            "spine_factor": self.spine_factor,
            "accesses_per_job": self.accesses_per_job,
            "pages_per_job": self.pages_per_job,
            "store_ratio": self.store_ratio,
            "failure_rate": self.failure_rate,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NodeAssignment:
    """One borrower's lease-backed remote-DRAM assignment for one epoch.

    Everything :func:`simulate_node` needs — the fleet-level matching and
    fabric contention are already resolved into scalars, which keeps the
    node simulation a pure, picklable, cacheable function.
    """

    node: int
    epoch: int
    utilization: float    #: the borrower's utilization at the snapshot
    amount: float         #: total leased capacity, machine-memory units
    ratio: float          #: disaggregation ratio = amount / utilization
    eff_bandwidth: float  #: fair-share fabric bandwidth, bytes/second
    donor_down: bool      #: a backing donor fails this epoch


@dataclass(frozen=True)
class NodeJobResult:
    """Counters of one borrower's epoch job (plus the derived slowdown)."""

    node: int
    epoch: int
    accesses: int
    hits: int
    faults: int
    cold_allocations: int
    swap_ins: int
    swap_outs: int
    clean_drops: int
    failovers: int
    sim_time: float
    slowdown: float  #: (compute + swap stall) / compute


@dataclass(frozen=True)
class EpochSummary:
    """Matching/accounting summary of one utilization snapshot."""

    epoch: int
    n_donors: int
    n_borrowers: int
    supply: float         #: capped donor headroom, machine-memory units
    demand: float         #: capped borrower demand, machine-memory units
    leased: float         #: capacity the greedy match actually moved
    stranding_pct: float  #: donor headroom left unlent, % of supply
    realized_mbe: float
    analytic_mbe: float
    failed_donors: int
    cascaded_borrowers: int  #: borrowers hit by a donor failure


@dataclass
class FleetResult:
    """Everything one fleet sweep produced."""

    config: FleetConfig
    epochs: list[EpochSummary]
    assignments: list[NodeAssignment]
    jobs: list[NodeJobResult]
    port_peak_utilization: float
    port_mean_utilization: float
    span: float  #: summed per-epoch makespans, seconds (port horizon)


# -- planning ------------------------------------------------------------------

def _failed_donors(cfg: FleetConfig, epoch: int, donors: list[int]) -> set[int]:
    """Seeded per-epoch donor failures (only donors backing leases fail)."""
    if not donors or cfg.failure_rate <= 0.0:
        return set()
    rng = derive(cfg.seed, f"fleet/failures/{epoch}")
    draw = rng.random(len(donors))
    return {d for d, x in zip(donors, draw) if x < cfg.failure_rate}


def plan_fleet(
    cfg: FleetConfig,
) -> tuple[RackFabric, list[EpochSummary], list[NodeAssignment], dict]:
    """Resolve the sweep's lease schedule without running any node job.

    Returns ``(fabric, epoch summaries, assignments, grants)`` where
    ``grants[(epoch, borrower)]`` lists the ``(donor, amount)`` leases
    backing each assignment (used to credit donor NIC ports afterwards).
    """
    trace = alibaba_like_trace(
        cfg.year, n_machines=cfg.n_nodes, n_snapshots=cfg.n_snapshots, seed=cfg.seed
    )
    fabric = RackFabric(
        cfg.n_nodes, rack_size=cfg.rack_size, spine_factor=cfg.spine_factor
    )
    pool = RemoteMemoryPool(cfg.alpha, cfg.beta, fabric_limit=cfg.fabric_limit)
    epochs: list[EpochSummary] = []
    assignments: list[NodeAssignment] = []
    grants: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for e in range(cfg.n_snapshots):
        u = trace.snapshot(e)
        # lease churn: every snapshot re-runs the match from scratch
        leases = pool.match(u)
        by_borrower: dict[int, list[tuple[int, float]]] = {}
        donor_weight: dict[int, float] = {}
        for lease in leases:
            by_borrower.setdefault(lease.borrower, []).append(
                (lease.donor, lease.amount)
            )
            donor_weight[lease.donor] = (
                donor_weight.get(lease.donor, float(u[lease.donor])) + lease.amount
            )
        failed = _failed_donors(cfg, e, sorted(donor_weight))
        cascaded = 0
        for b in sorted(by_borrower):
            glist = by_borrower[b]
            amount = float(sum(a for _, a in glist))
            down = any(d in failed for d, _ in glist)
            cascaded += int(down)
            eff = max(
                fabric.effective_bandwidth(b, glist, donor_weight),
                _BANDWIDTH_FLOOR,
            )
            assignments.append(
                NodeAssignment(
                    node=int(b),
                    epoch=e,
                    utilization=float(u[b]),
                    amount=amount,
                    ratio=amount / float(u[b]),
                    eff_bandwidth=float(eff),
                    donor_down=bool(down),
                )
            )
            grants[(e, int(b))] = glist
        low = u < cfg.alpha
        high = u > cfg.beta
        supply = float(np.minimum(cfg.alpha - u[low], cfg.fabric_limit).sum())
        demand = float(np.minimum(u[high] - cfg.beta, cfg.fabric_limit).sum())
        leased = pool.total_leased
        epochs.append(
            EpochSummary(
                epoch=e,
                n_donors=int(low.sum()),
                n_borrowers=int(high.sum()),
                supply=supply,
                demand=demand,
                leased=leased,
                # clamp: when the match drains supply exactly, float
                # summation order can leave an O(1e-14) negative residue
                stranding_pct=(
                    max(0.0, 100.0 * (supply - leased) / supply)
                    if supply > 0
                    else 0.0
                ),
                realized_mbe=pool.realized_mbe(cfg.n_nodes),
                analytic_mbe=mbe(u, cfg.alpha, cfg.beta, fabric_limit=cfg.fabric_limit),
                failed_donors=len(failed),
                cascaded_borrowers=cascaded,
            )
        )
    return fabric, epochs, assignments, grants


# -- the node job --------------------------------------------------------------

_SPEC: ServerSpec = paper_testbed()


def _job_trace(cfg: FleetConfig, node: int, epoch: int):
    """The borrower's seeded zipf page trace for one epoch."""
    rng = derive(cfg.seed, f"fleet/job/{node}/{epoch}")
    n = cfg.accesses_per_job
    pages = (rng.zipf(1.3, size=n) - 1) % cfg.pages_per_job
    ops = np.where(
        rng.random(n) < cfg.store_ratio, int(PageOp.STORE), int(PageOp.LOAD)
    ).astype(np.uint8)
    return make_trace(pages, ops=ops)


def _far_fraction(a: NodeAssignment) -> float:
    """Fraction of the job's pages the lease pushes to far memory."""
    return min(0.6, max(0.05, a.ratio))


def _local_pages(cfg: FleetConfig, a: NodeAssignment) -> int:
    local = int(round(cfg.pages_per_job * (1.0 - _far_fraction(a))))
    return max(2, min(local, cfg.pages_per_job - 1))


def _remote_dram(sim: Simulator, a: NodeAssignment) -> RDMANic:
    """The borrower's lease as a live device: remote DRAM behind RDMA."""
    capacity = max(gib(1), int(a.amount * _SPEC.dram_bytes))
    return RDMANic(
        sim,
        capacity=capacity,
        port_bandwidth=a.eff_bandwidth / _SPEC.rdma_ports,
        ports=_SPEC.rdma_ports,
        name=f"lease-n{a.node}e{a.epoch}",
    )


def _counters(result) -> dict:
    return {
        "accesses": int(result.accesses),
        "hits": int(result.hits),
        "faults": int(result.faults),
        "cold_allocations": int(result.cold_allocations),
        "swap_ins": int(result.swap_ins),
        "swap_outs": int(result.swap_outs),
        "clean_drops": int(result.clean_drops),
        "failovers": int(result.failovers),
        "sim_time": float(result.sim_time),
    }


def _result(cfg: FleetConfig, a: NodeAssignment, counters: dict) -> NodeJobResult:
    compute = cfg.accesses_per_job * _COMPUTE_PER_ACCESS
    return NodeJobResult(
        node=a.node,
        epoch=a.epoch,
        slowdown=(compute + counters["sim_time"]) / compute,
        **counters,
    )


def simulate_node(cfg: FleetConfig, a: NodeAssignment) -> NodeJobResult:
    """Replay one borrower's epoch job on its leased remote-DRAM backend.

    A *pure*, uncached function of ``(cfg, a)`` — this is the fleet's
    bit-identity anchor: a standalone call with the same lease schedule
    produces counters bit-identical to the sweep's, whether the sweep ran
    inline, across a process pool, or from a warm artifact cache.
    """
    trace = _job_trace(cfg, a.node, a.epoch)
    local = _local_pages(cfg, a)

    if not a.donor_down:
        sim = Simulator()
        executor = SwapExecutor(
            sim, _remote_dram(sim, a), BackendKind.RDMA, local_pages=local
        )
        return _result(cfg, a, _counters(executor.run(trace)))

    # donor failure: a clean pass prices the onset, then the lease fails
    # slow mid-run and the failover controller cascades to the SSD standby
    sim = Simulator()
    executor = SwapExecutor(
        sim, _remote_dram(sim, a), BackendKind.RDMA, local_pages=local
    )
    t_clean = executor.run(trace).sim_time

    sim = Simulator()
    faulty = FaultyDevice(_remote_dram(sim, a), FaultPlan())
    executor = SwapExecutor(sim, faulty, BackendKind.RDMA, local_pages=local)
    ssd = make_device(sim, BackendKind.SSD)
    executor.add_standby(BackendKind.SSD, ssd)
    onset = sim.now + _ONSET_FRACTION * t_clean
    duration = 1e6  # simlint: ignore[UNIT001] -- sentinel "rest of the run" duration in seconds
    factor, fraction = _FAILSLOW
    faulty.fault_plan = FaultPlan(
        [
            LatencyFault(start=onset, duration=duration, factor=factor),
            BandwidthFault(start=onset, duration=duration, fraction=fraction),
        ],
        seed=cfg.seed,
        name=f"fleet-donor-down-n{a.node}e{a.epoch}",
    )
    switcher = ImplicitSwitcher({
        str(BackendKind.RDMA): (faulty, SwapConfig()),
        str(BackendKind.SSD): (ssd, SwapConfig()),
    })
    controller = FailoverController(
        executor.frontend,
        switcher,
        fuse(trace),
        compute_time=cfg.accesses_per_job * _COMPUTE_PER_ACCESS,
        fm_ratio=_far_fraction(a),
        min_samples=_MIN_SAMPLES,
    )
    executor.attach_failover(controller, health_check_interval=_HEALTH_INTERVAL)
    return _result(cfg, a, _counters(executor.run(trace)))


# -- the sweep -------------------------------------------------------------------

_worker_cfg: FleetConfig | None = None


def _pool_init(cfg: FleetConfig) -> None:
    global _worker_cfg
    _worker_cfg = cfg


def _pool_sim(a: NodeAssignment) -> NodeJobResult:
    return simulate_node(_worker_cfg, a)


def fleet_jobs_from_env() -> int:
    """Worker count for the fleet fan-out (``REPRO_FLEET_JOBS``, default 1).

    Anything but a positive integer raises :class:`ConfigurationError`.
    """
    raw = os.environ.get("REPRO_FLEET_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigurationError(
            f"REPRO_FLEET_JOBS must be a positive integer, got {raw!r}"
        )
    return jobs


_ASSIGNMENT_FIELDS = attrgetter(*(f.name for f in fields(NodeAssignment)))


def _plan_digest(assignments: list[NodeAssignment]) -> str:
    """sha256 over every field of every resolved assignment, in plan order.

    Fields are packed as float64: bit-exact for the floats, exact for the
    node/epoch integers and the donor-down flag.
    """
    rows = np.array([_ASSIGNMENT_FIELDS(a) for a in assignments], dtype=np.float64)
    return hashlib.sha256(rows.tobytes()).hexdigest()


def run_fleet(cfg: FleetConfig, jobs: int = 1) -> FleetResult:
    """Plan the lease schedule, then sweep every borrower's node job.

    ``jobs > 1`` fans :func:`simulate_node` calls out over a process
    pool; results are reduced in input (epoch, node) order, so the
    output is byte-identical at any worker count.  The sweep's results
    are one artifact-cache entry, keyed by ``cfg`` and the resolved plan:
    a warm sweep loads it whole and runs no node job; a cold one stores it
    only after every job has returned, so a failing job leaves nothing.
    """
    fabric, epochs, assignments, grants = plan_fleet(cfg)
    use_cache = cache.cache_enabled()
    fingerprint, digest = cfg.fingerprint(), _plan_digest(assignments)
    hit = cache.load_fleet_sweep(fingerprint, digest, len(assignments)) if use_cache else None
    if hit is not None:
        results = [_result(cfg, a, counters) for a, counters in zip(assignments, hit)]
    elif jobs <= 1 or len(assignments) <= 1:
        results = [simulate_node(cfg, a) for a in assignments]
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_pool_init, initargs=(cfg,)
        ) as pool:
            chunk = max(1, len(assignments) // (4 * jobs))
            results = list(pool.map(_pool_sim, assignments, chunksize=chunk))
    if use_cache and hit is None:
        cache.store_fleet_sweep(fingerprint, digest, results)

    # credit each borrower's swap traffic back onto its donors' NIC ports,
    # proportional to the lease amounts it striped across
    granularity = SwapConfig().granularity
    epoch_span: dict[int, float] = {}
    for r in results:
        epoch_span[r.epoch] = max(epoch_span.get(r.epoch, 0.0), r.sim_time)
    span = float(sum(epoch_span.values()))
    for a, r in zip(assignments, results):
        nbytes = (r.swap_ins + r.swap_outs) * granularity
        if nbytes <= 0 or a.amount <= 0:
            continue
        for donor, amount in grants[(a.epoch, a.node)]:
            fabric.account_transfer(donor, nbytes * (amount / a.amount))
    utils = fabric.port_utilizations(span)
    return FleetResult(
        config=cfg,
        epochs=epochs,
        assignments=assignments,
        jobs=results,
        port_peak_utilization=max(utils, default=0.0),
        port_mean_utilization=float(np.mean(utils)) if utils else 0.0,
        span=span,
    )
