"""One pass of an end-to-end benchmark workload, in a fresh interpreter.

``run.py`` starts one of these per pass, so every pass pays the import a
user pays and no in-process memo (``Workload`` trace caches, the fig16
SLO memo) survives from one pass into the next.  The process imports the
layers it drives, builds its inputs from the seed (this is the pass's
set-up), times the pass op by op, then writes a JSON result with its
timings, resource use, and the outputs ``run.py`` checks::

    python benchmarks/e2e/child.py {paper,replay,fleet,fleet-prepare} \\
        --seed S --result out.json [--trace-out trace.json --spill DIR]

Modes:

* ``paper`` — ``repro.cli.main(["run", "all", ...])`` on whatever cache
  ``REPRO_CACHE_DIR`` names; one op per experiment, its output the
  digest of the experiment's stdout block.
* ``replay`` — four replay calls on seeded synthetic traces with the
  artifact cache off; one op per call, its output the call's counters.
* ``fleet`` — one ``run_fleet`` sweep over a process pool, timed as one
  op; the outputs are per-node-job counters, plus a standalone
  re-simulation of a sample of jobs after the timed region.
* ``fleet-prepare`` — choose the fleet seed for a benchmark seed (see
  :func:`_prepare_fleet`); untimed.

Wall-clock reads are fine here: ``benchmarks/`` is outside the simulated
world and exempt from simlint's DET002.
"""

from __future__ import annotations

import time

_T_START = time.monotonic()

import argparse  # noqa: E402  (the start time is taken before any import)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

__all__ = ["FLEET_COLUMNS", "main"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Counters every replay result is compared on.
_REPLAY_COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
                    "swap_outs", "clean_drops", "file_skips", "transient_retries",
                    "failovers", "sim_time", "stall_time")

#: Column order of a fleet node-job row.
FLEET_COLUMNS = ("node", "epoch", "accesses", "hits", "faults", "cold_allocations",
                 "swap_ins", "swap_outs", "clean_drops", "failovers", "sim_time")

#: Node jobs re-simulated standalone per fleet pass (bit-identity check).
_FLEET_SAMPLE = 12

_HEADER = re.compile(r"^== (\S+): .* ==$")


def _cpu() -> float:
    """User+sys CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Peak RSS of this process or its largest reaped child (pool worker)."""
    from repro.units import KiB, MiB

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * KiB / MiB  # ru_maxrss counts KiB


def _dir_mib(path: str | None) -> float:
    from repro.units import MiB

    total = 0
    for root, _dirs, files in os.walk(path or ""):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total / MiB


def _calibrate() -> float:
    """CPU seconds of one fixed calibration round: an interpreter loop plus
    a numpy sort, the two kinds of work the simulator does.  Thread CPU
    time, not wall time, so a round run beside busy pool workers measures
    how fast the host executes, not how long the round waited for a core."""
    import numpy as np

    t = time.thread_time()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    n = 200_000
    np.sort(np.arange(n) * 7919 % n)  # 7919 is prime: a fixed permutation
    return time.thread_time() - t


class _Laps:
    """Host and CPU seconds of each op of a pass, lap by lap.

    Per-op times let ``run.py`` take each op's median across passes, so a
    burst of host contention during one op of one pass does not move the
    workload's time.  Calibration rounds run before the first op and
    after every op, outside the timed laps; ``run.py`` scales the pass's
    times by them to cancel the minutes-long swings in host speed that a
    shared machine shows.  An op whose work runs in pool workers is
    calibrated while it runs instead (:meth:`sampling`).
    """

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.calibration = [_calibrate() for _ in range(5)]
        self.during: list[float] = []
        self._t, self._c = time.perf_counter(), _cpu()

    def lap(self, op: str) -> None:
        t, c = time.perf_counter(), _cpu()
        self.wall[op] = t - self._t
        self.cpu[op] = c - self._c - sum(self.during)  # minus the sampler's rounds
        # one round per 0.2 s of op (1 to 10): a few percent of the pass,
        # and enough rounds for a steady median when a pass has few ops
        rounds = min(10, max(1, int(self.wall[op] / 0.2)))
        self.calibration += [_calibrate() for _ in range(rounds)]
        self._t, self._c = time.perf_counter(), _cpu()

    @contextlib.contextmanager
    def sampling(self):
        """Run a calibration round every 0.25 s in a thread.

        For an op whose main thread only waits on pool workers: rounds
        taken between ops miss the contention the workers meet, rounds
        taken beside them track it.  Use in a pass's only op (the
        sampler's CPU is subtracted from that op's lap).
        """
        stop = threading.Event()
        # the pool forks its workers during the op: a fork waits for the
        # round in progress, so no worker starts from a mid-round state
        busy = threading.Lock()
        os.register_at_fork(before=busy.acquire, after_in_parent=busy.release,
                            after_in_child=busy.release)

        def sample() -> None:
            while not stop.wait(0.25):
                with busy:
                    self.during.append(_calibrate())

        thread = threading.Thread(target=sample, name="calibration", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def samples(self) -> list[float]:
        """The rounds ``run.py`` scales this pass by."""
        return self.during or self.calibration


# -- paper -------------------------------------------------------------------

class _LappedStdout(io.StringIO):
    """Captured stdout that ends an op whenever an experiment's block is
    written: the CLI prints each block as soon as its experiment is done."""

    def __init__(self, laps: _Laps) -> None:
        super().__init__()
        self.laps = laps

    def write(self, s: str) -> int:
        m = _HEADER.match(s.split("\n", 1)[0])
        if m:
            self.laps.lap(m.group(1))
        return super().write(s)


class _Paper:
    """``run all`` at the benchmark's scale, stdout split per experiment."""

    def __init__(self, args) -> None:
        from repro import cli
        from repro.experiments import EXPERIMENTS

        self.main = cli.main
        self.experiments = list(EXPERIMENTS)
        self.argv = ["run", "all", "--scale", repr(args.scale), "--jobs", "1",
                     "--seed", str(args.seed)]
        self.stdout = None

    def run(self, laps: _Laps) -> None:
        self.stdout = _LappedStdout(laps)
        with contextlib.redirect_stdout(self.stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = self.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"run all exited {rc}")

    def outputs(self) -> dict:
        blocks: dict[str, list[str]] = {}
        current = None
        for line in self.stdout.getvalue().splitlines(keepends=True):
            m = _HEADER.match(line.rstrip("\n"))
            if m:
                current = blocks.setdefault(m.group(1), [])
            if current is not None:
                current.append(line)
        ops = {exp: hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
               for exp, lines in blocks.items()}
        return {"ops": ops, "expected": self.experiments}


# -- replay ------------------------------------------------------------------

class _Replay:
    """The swap stack on seeded synthetic traces, one op per replay call.

    ``uniform`` (batch engine, ~41 % faults) and ``zipf`` (batch, skewed)
    are single-tenant; ``tenants`` puts four quarter-length uniform traces
    on one shared NVMe device (the fluid solver); ``injected`` re-runs
    the uniform trace under three sparse fault windows (the hybrid
    planner), placed at fixed fractions of the clean uniform run's span.
    """

    def __init__(self, args) -> None:
        import numpy as np

        from repro.mem.page import PageOp
        from repro.rng import derive
        from repro.trace.schema import make_trace

        def trace(key: str, n: int, distinct: int, alpha: float | None = None):
            rng = derive(args.seed, f"e2e/replay/{key}")
            if alpha is None:
                pages = rng.integers(0, distinct, size=n)
            else:
                pages = (rng.zipf(alpha, size=n) - 1) % distinct
            ops = np.where(rng.random(n) < 0.3, int(PageOp.STORE), int(PageOp.LOAD))
            return make_trace(pages, ops=ops)

        n = args.accesses
        self.seed = args.seed
        self.distinct = n // 10
        self.uniform = trace("uniform", n, self.distinct)
        self.zipf = trace("zipf", n, self.distinct, alpha=1.1)
        self.tenants = [trace(f"tenant{i}", n // 4, self.distinct // 2) for i in range(4)]
        self.ops: dict = {}

    @staticmethod
    def _counters(res) -> dict:
        return {name: getattr(res, name) for name in _REPLAY_COUNTERS}

    @staticmethod
    def _single(trace, local_pages: int, plan=None):
        from repro.devices import BackendKind, NVMeSSD
        from repro.faults import FaultyDevice
        from repro.simcore import Simulator
        from repro.swap.executor import SwapExecutor

        sim = Simulator()
        device = NVMeSSD(sim)
        if plan is not None:
            device = FaultyDevice(device, plan)
        executor = SwapExecutor(sim, device, BackendKind.SSD, local_pages=local_pages)
        start = sim.now
        return executor.run(trace), start, executor

    def run(self, laps: _Laps) -> None:
        from repro.devices import BackendKind, NVMeSSD
        from repro.faults import BandwidthFault, FaultPlan, LatencyFault, TransientFault
        from repro.simcore import Simulator
        from repro.swap.executor import make_contended_executors, run_tenants

        res, start, _ = self._single(self.uniform, self.distinct // 2)
        self.ops["uniform"] = self._counters(res)
        span = res.sim_time
        laps.lap("uniform")
        res, _, _ = self._single(self.zipf, self.distinct // 4)
        self.ops["zipf"] = self._counters(res)
        laps.lap("zipf")
        sim = Simulator()
        executors = make_contended_executors(sim, NVMeSSD(sim), BackendKind.SSD,
                                             len(self.tenants), local_pages=self.distinct // 4)
        self.ops["tenants"] = [self._counters(r) for r in run_tenants(executors, self.tenants)]
        laps.lap("tenants")
        width = 0.006 * span
        plan = FaultPlan([
            LatencyFault(start=start + 0.25 * span, duration=width, factor=8.0),
            TransientFault(start=start + 0.50 * span, duration=width, error_rate=0.2),
            BandwidthFault(start=start + 0.75 * span, duration=width, fraction=0.5),
        ], seed=self.seed)
        res, _, executor = self._single(self.uniform, self.distinct // 2, plan)
        segments = executor.execution_plan.n_segments if executor.execution_plan else 0
        self.ops["injected"] = dict(self._counters(res), segments=segments)
        laps.lap("injected")

    def outputs(self) -> dict:
        import numpy as np

        def facts(trace) -> dict:
            return {"n": int(len(trace)), "distinct": int(np.unique(trace.pages).size)}

        return {"ops": self.ops, "facts": {
            "uniform": facts(self.uniform), "zipf": facts(self.zipf),
            "tenants": [facts(t) for t in self.tenants],
        }}


# -- fleet -------------------------------------------------------------------

class _Fleet:
    """One fleet sweep over ``jobs = min(2, nproc)`` pool workers."""

    def __init__(self, args) -> None:
        from repro.cluster.fleet import FleetConfig

        self.cfg = FleetConfig(n_nodes=args.nodes, n_snapshots=4, seed=args.fleet_seed)
        self.jobs = min(2, os.cpu_count() or 1)
        self.seed = args.seed
        self.result = None

    def run(self, laps: _Laps) -> None:
        from repro.cluster.fleet import run_fleet

        with laps.sampling():
            self.result = run_fleet(self.cfg, jobs=self.jobs)
        laps.lap("sweep")

    def outputs(self) -> dict:
        from repro.cluster.fleet import simulate_node
        from repro.rng import derive

        def row(job) -> list:
            return [getattr(job, name) for name in FLEET_COLUMNS]

        result = self.result
        ops = {f"{job.epoch}/{job.node}": row(job) for job in result.jobs}
        # a standalone call with the same assignment must reproduce the
        # pooled, cache-storing sweep bit for bit
        n = len(result.assignments)
        down = [i for i, a in enumerate(result.assignments) if a.donor_down]
        rng = derive(self.seed, "e2e/fleet/sample")
        picks = set(down[: _FLEET_SAMPLE // 2])
        picks.update(rng.choice(n, size=min(_FLEET_SAMPLE // 2, n), replace=False).tolist())
        os.environ["REPRO_CACHE"] = "0"
        sample = {}
        for i in sorted(picks):
            a = result.assignments[i]
            sample[f"{a.epoch}/{a.node}"] = row(simulate_node(self.cfg, a))
        return {"ops": ops, "sample": sample}


def _prepare_fleet(args) -> dict:
    """The fleet seed for benchmark seed ``args.seed``.

    Fleet sweeps of one size differ in job count by up to ±9 % from seed
    to seed, and donor-failure jobs cost about three clean ones, so raw
    seeds would turn a seed change into a workload-size change.  The
    first derived candidate whose plan lands inside a fixed window of job
    count and failure count is taken instead; the same seed always picks
    the same candidate.
    """
    import math

    from repro.cluster.fleet import FleetConfig, plan_fleet
    from repro.rng import spawn_seed

    n = args.nodes
    jobs_lo, jobs_hi = math.floor(1.42 * n), math.ceil(1.45 * n)
    down_lo, down_hi = math.floor(0.018 * n), math.ceil(0.030 * n)
    for k in range(1024):
        candidate = spawn_seed(args.seed, f"e2e/fleet/{k}") >> 33
        _fabric, _epochs, assignments, _grants = plan_fleet(
            FleetConfig(n_nodes=n, n_snapshots=4, seed=candidate))
        down = sum(a.donor_down for a in assignments)
        if jobs_lo <= len(assignments) <= jobs_hi and down_lo <= down <= down_hi:
            return {"fleet_seed": candidate}
    raise RuntimeError(f"no fleet seed within the size window for seed {args.seed}")


#: mode -> (workload class, the package modules it drives; their import
#: is ``setup.import_s``)
_MODES = {
    "paper": (_Paper, ("repro.cli",)),
    "replay": (_Replay, ("repro.swap.executor", "repro.faults", "repro.devices")),
    "fleet": (_Fleet, ("repro.cluster.fleet",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(_MODES) + ["fleet-prepare"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--accesses", type=int, required=True)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--fleet-seed", type=int, default=None)
    parser.add_argument("--trace-out", default=None, help="Chrome trace path (traced pass)")
    parser.add_argument("--spill", default=None, help="span spill dir (traced pass)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    if args.mode == "fleet-prepare":
        Path(args.result).write_text(json.dumps(_prepare_fleet(args)))
        return 0

    workload_cls, modules = _MODES[args.mode]
    for module in modules:
        importlib.import_module(module)
    import_s = time.monotonic() - _T_START
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(args.spill)
        missing = tracer.install()
        if missing:
            print(f"tracer: not found: {', '.join(missing)}", file=sys.stderr)
    workload = workload_cls(args)
    ready_at = time.monotonic()

    laps = _Laps()
    t0 = time.perf_counter()
    error = None
    try:
        workload.run(laps)
    except Exception as exc:  # a failing pass is reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0

    out = {"import_s": import_s, "ready_at": ready_at, "wall_s": wall,
           "op_wall_s": laps.wall, "op_cpu_s": laps.cpu, "calibration_s": laps.samples(),
           "peak_rss_mib": _peak_rss_mib(),
           "cache_mib": _dir_mib(os.environ.get("REPRO_CACHE_DIR")), "error": error}
    if tracer is not None:
        from tracer import layer_metrics, main_self_seconds, write_chrome_trace

        rows, counters = tracer.collect()
        out["layers"] = layer_metrics(rows, counters)
        out["main_self_s"] = main_self_seconds(rows, tracer.main_pid)
        write_chrome_trace(rows, args.trace_out)
    if error is None:
        out.update(workload.outputs())
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
