"""Command-line interface: ``python -m repro`` / ``xdm-repro``.

Subcommands::

    xdm-repro list                      # available experiments
    xdm-repro run table06 [--scale S] [--seed N] [--csv]
    xdm-repro run all [--jobs N]        # every experiment, text tables
    xdm-repro workloads                 # Table V with fused characteristics
    xdm-repro replay bert [--engine both] [--backend ssd] [--tenants N]
    xdm-repro replay bert --inject plan.json  # fault-injected replay
    xdm-repro tune bert [--slo 1.5 | --fm-ratio R] [--backend rdma]
    xdm-repro cache info|clear          # persistent artifact cache
    xdm-repro lint [paths...]           # simlint static analysis (repro-lint)

``replay`` executes one workload trace through the swap stack with the
engine the dispatcher picks (``batch``), the reference per-access event
loop (``event``), or both (printing the counter diff — empty when the
engines agree, which they must).
``--inject`` runs under a fault plan: single-tenant injected runs take
the segmented hybrid planner (batch admission outside fault windows,
event-exact inside — :mod:`repro.swap.plan`) and ``--engine both`` then
prints the per-counter hybrid-vs-event diff plus the executed segment
plan (segment count, event-time/access fractions).
``--tenants N`` replays N seed-varied copies contending for one shared
device and reports per-tenant diffs plus the max sim_time relative error
(counters must match exactly; times agree to the windowed-admission
model).

``tune`` runs the cost-model-driven configuration search for one
workload: with ``--slo`` it finds the largest far-memory ratio meeting
the runtime budget (batched bisection), otherwise it prices the
granularity × I/O-width lattice at a fixed ratio (one vectorized batch).
It prints the chosen configuration, the candidate trace, the
simulated-run ledger vs the exhaustive grid reference, and — unless
``--no-validate`` — replay-validates a shortlist through successive
halving with content-addressed caching.

Result tables go to stdout; per-experiment wall time and cache-hit counts
go to stderr, so stdout is byte-identical across serial/parallel runs and
cold/warm caches.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import cache
from repro.analysis import cli as lint_cli
from repro.experiments import EXPERIMENTS
from repro.experiments.context import DEFAULT_SCALE
from repro.experiments.runner import run_many
from repro.workloads import TABLE_V

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "0"
    # intra-experiment fan-out (the fleet sweep): a single experiment can't
    # use the runner's per-experiment pool, so hand it the worker budget
    os.environ["REPRO_FLEET_JOBS"] = str(max(1, args.jobs if len(names) == 1 else 1))
    for outcome in run_many(names, scale=args.scale, seed=args.seed, jobs=args.jobs):
        if args.csv:
            print(outcome.result.to_csv())
        else:
            print(outcome.result.render())
        lookups = outcome.cache_hits + outcome.cache_misses
        cache_note = (
            f", cache {outcome.cache_hits}/{lookups} hits" if lookups else ""
        )
        print(f"   {outcome.name}: {outcome.elapsed:.2f}s{cache_note}", file=sys.stderr)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.devices.registry import BackendKind, make_device
    from repro.faults import FaultPlan, FaultyDevice
    from repro.simcore import Simulator
    from repro.swap.executor import (
        COUNTERS, make_contended_executors, run_event, run_tenants)

    if args.workload not in TABLE_V:
        print(f"unknown workload {args.workload!r}; see 'xdm-repro workloads'",
              file=sys.stderr)
        return 2
    if args.tenants < 1:
        print(f"--tenants must be >= 1, got {args.tenants}", file=sys.stderr)
        return 2
    plan = None
    if args.inject:
        plan = FaultPlan.load(args.inject)
        if plan and args.engine != "event" and args.tenants > 1:
            # single-tenant injected runs take the segmented hybrid
            # planner; the hybrid planner runs one tenant only, so
            # contended injected runs fall back to concurrent event
            # loops — say so rather than silently ignoring --engine
            print("note: multi-tenant fault plan forces the per-access "
                  "event engine", file=sys.stderr)
    kind = BackendKind(args.backend)
    w = TABLE_V[args.workload]
    n = args.tenants
    traces = []
    for i in range(n):
        # distinct per-tenant seeds so co-tenants don't walk in lockstep
        seed = args.seed if n == 1 else (args.seed or 0) + i
        trace = w.trace(args.scale, seed)
        if args.max_accesses and len(trace) > args.max_accesses:
            trace = trace.slice(0, args.max_accesses)
        traces.append(trace)
    local = max(2, int(w.features(args.scale).mrc.n_pages * (1.0 - args.fm_ratio)))
    engines = ("batch", "event") if args.engine == "both" else (args.engine,)
    runners = {"batch": run_tenants, "event": run_event}
    results = {}
    exec_plans = {}
    for engine in engines:
        sim = Simulator()
        device = make_device(sim, kind)
        if plan is not None:
            # fresh plan per engine run: the plan's seeded transient
            # RNG is stateful, and a shared instance would hand the
            # second engine a depleted draw stream
            device = FaultyDevice(device, FaultPlan.load(args.inject))
        executors = make_contended_executors(
            sim, device, kind, n, local_pages=local
        )
        results[engine] = runners[engine](executors, traces)
        exec_plans[engine] = executors[0].execution_plan
    print(f"workload={args.workload} backend={kind} tenants={n} "
          f"local_pages={local} accesses/tenant={len(traces[0])}")
    for engine in engines:
        for i, res in enumerate(results[engine]):
            tag = f"{engine:5s}" if n == 1 else f"{engine}[{i}]"
            stats = " ".join(f"{c}={getattr(res, c)}" for c in COUNTERS[1:8])
            print(f"  {tag}: {stats}")
            print(f"  {' ' * len(tag)}  sim_time={res.sim_time:.6f}s "
                  f"mean_fault_latency={res.fault_latency.mean * 1e6:.2f}us")
            if plan is not None:
                print(f"  {' ' * len(tag)}  transient_retries={res.transient_retries} "
                      f"stall_time={res.stall_time:.6f}s failovers={res.failovers}")
        ep = exec_plans.get(engine)
        if ep is not None:
            print(f"  {engine:5s}  segment plan: {ep.describe()}")
    if len(engines) == 2:
        mismatched = False
        max_rel = 0.0
        for i in range(n):
            b, e = results["batch"][i], results["event"][i]
            diff = [c for c in COUNTERS if getattr(b, c) != getattr(e, c)]
            if diff:
                tenant = f" tenant {i}" if n > 1 else ""
                detail = ", ".join(
                    f"{c}: {getattr(b, c)} vs {getattr(e, c)}" for c in diff
                )
                print(f"  COUNTER MISMATCH{tenant}: {detail}")
                mismatched = True
            if e.sim_time > 0:
                max_rel = max(max_rel, abs(b.sim_time - e.sim_time) / e.sim_time)
        if mismatched:
            return 1
        print(f"  engines agree on every counter across {n} tenant(s)")
        print(f"  max sim_time relative error: {max_rel:.3e}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.config import xdm_config
    from repro.core.console import SmartConsole
    from repro.devices.registry import BackendKind, make_device
    from repro.simcore import Simulator
    from repro.swap.pathmodel import SwapPathModel
    from repro.tune.search import Candidate, TuneStats, select_config, slo_bisection
    from repro.tune.validate import validate_shortlist
    from repro.units import PAGE_SIZE

    if args.workload not in TABLE_V:
        print(f"unknown workload {args.workload!r}; see 'xdm-repro workloads'",
              file=sys.stderr)
        return 2
    kind = BackendKind(args.backend)
    w = TABLE_V[args.workload]
    features = w.features(args.scale, args.seed)
    compute = w.compute_time(args.scale, args.seed)
    sim = Simulator()
    device = make_device(sim, kind)
    console = SmartConsole()
    par = w.spec.fault_parallelism
    model = SwapPathModel(device, features, fault_parallelism=par)
    g_cands = console.granularity_candidates(features)
    w_cands = console.io_width_candidates(features, device, par)
    stats = TuneStats()
    candidates: list[Candidate] = []

    if args.slo is not None:
        found = slo_bisection(
            model, template=xdm_config(), g_cands=g_cands, w_cands=w_cands,
            compute_time=compute, budget=compute * args.slo,
            max_ratio=console.limits.max_fm_ratio, objective=args.objective,
            stats=stats, trace=candidates,
        )
        if found is None:
            print(f"workload={args.workload} backend={kind}: no offload step "
                  f"meets SLO {args.slo}")
            _print_tune_trace(candidates, stats)
            return 1
        ratio, local, config, predicted = found
    else:
        ratio = args.fm_ratio
        if ratio is None:
            # console default: offload everything beyond the hot set
            n_pages = max(1, features.mrc.n_pages)
            hot = console.min_fm_ratio_local_pages(features)
            ratio = min(console.limits.max_fm_ratio, max(0.0, 1.0 - hot / n_pages))
        local = model.local_pages_for(ratio)
        config, predicted = select_config(
            model, local, g_cands, w_cands, template=xdm_config(),
            objective=args.objective, stats=stats, trace=candidates,
        )

    print(f"workload={args.workload} backend={kind} "
          f"lattice={len(g_cands)}x{len(w_cands)} objective={args.objective}")
    print(f"chosen: granularity={config.granularity // PAGE_SIZE}p "
          f"io_width={config.io_width} fm_ratio={ratio:.4f} local_pages={local}")
    print(f"        predicted {args.objective}={getattr(predicted, args.objective):.6f}s "
          f"stall_time={predicted.stall_time:.6f}s")
    _print_tune_trace(candidates, stats)
    if args.validate:
        shortlist = [(config, local, ratio)]
        # runner-up configs from the candidate trace, best-objective first
        seen = {(config.granularity, config.io_width)}
        for c in sorted(candidates, key=lambda c: c.objective):
            gw = (c.granularity, c.io_width)
            if gw not in seen:
                seen.add(gw)
                alt = xdm_config(granularity=c.granularity, io_width=c.io_width)
                shortlist.append((alt, local, ratio))
            if len(shortlist) == 3:
                break
        trace = w.trace(args.scale, args.seed)
        points = validate_shortlist(trace, kind, shortlist, stats=stats,
                                    max_accesses=args.max_accesses)
        print(f"replay validation ({len(shortlist)} candidates, successive halving):")
        for p in points:
            mark = " <== chosen" if (p.config.granularity, p.config.io_width) == (
                config.granularity, config.io_width) else ""
            print(f"  g={p.config.granularity // PAGE_SIZE}p w={p.config.io_width} "
                  f"prefix={p.prefix} sim_time={p.sim_time:.6f}s "
                  f"faults={p.faults}{' (cached)' if p.cached else ''}{mark}")
        print(f"  replay runs={stats.replay_runs} cache hits={stats.replay_cache_hits}")
    return 0


def _print_tune_trace(candidates, stats) -> None:
    from repro.units import PAGE_SIZE

    if candidates:
        print(f"candidate trace ({len(candidates)} points):")
        for c in candidates:
            print(f"  [{c.stage}] g={c.granularity // PAGE_SIZE}p w={c.io_width} "
                  f"local={c.local_pages} obj={c.objective:.6f}"
                  f"{' *' if c.chosen else ''}")
    s = stats.snapshot()
    print(f"simulated runs: {s['runs']} ({s['batches']} batches pricing "
          f"{s['model_points']} points, {s['scalar_runs']} scalar) "
          f"vs grid reference {s['grid_runs']} — {stats.reduction():.1f}x fewer")


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = cache.clear_cache()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    info = cache.cache_info()
    print(f"dir:     {info['dir']}")
    print(f"enabled: {info['enabled']}")
    print(f"entries: {info['entries']} ({info['bytes'] / 1e6:.1f} MB)")
    for kind, count in sorted(info["kinds"].items()):
        print(f"  {kind}: {count} ({info['kind_bytes'][kind] / 1e6:.1f} MB)")
    if info["temp_files"]:
        print(f"temp files: {info['temp_files']} ({info['temp_bytes'] / 1e6:.1f} MB, "
              f"left by killed writers unless a run is writing)")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'cat':8s} {'S/F':3s} {'anon':>5s} {'frag':>5s} {'seq':>5s} "
          f"{'hot':>5s} {'intlv':>5s} {'par':>4s}")
    for name, w in TABLE_V.items():
        f = w.features(args.scale)
        print(
            f"{name:10s} {str(w.spec.category):8s} {w.spec.swap_feature:3s} "
            f"{f.anon_ratio:5.2f} {f.fragment_ratio:5.2f} {f.seq_access_ratio:5.2f} "
            f"{f.hot_data_ratio:5.2f} {f.interleave_ratio:5.2f} "
            f"{w.spec.fault_parallelism:4.0f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="xdm-repro",
        description="xDM (SC'24) reproduction: run paper experiments on the simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id or 'all'")
    p_run.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       help=f"workload scale (default {DEFAULT_SCALE})")
    p_run.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_run.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for multi-experiment runs (default 1)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="disable the persistent artifact cache for this run")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay", help="execute one workload trace through the swap stack"
    )
    p_replay.add_argument("workload", help="Table V workload name")
    p_replay.add_argument("--engine", choices=("batch", "event", "both"),
                          default="batch",
                          help="replay engine: batched, per-access event loop, "
                               "or both with a counter diff (default batch)")
    p_replay.add_argument("--backend", default="ssd",
                          help="far-memory backend kind (default ssd)")
    p_replay.add_argument("--tenants", type=int, default=1,
                          help="co-tenants contending for one shared device "
                               "(default 1); each gets its own seed")
    p_replay.add_argument("--fm-ratio", type=float, default=0.5,
                          help="far-memory share of the footprint (default 0.5)")
    p_replay.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_replay.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_replay.add_argument("--max-accesses", type=int, default=200_000,
                          help="truncate the trace (0 = full; default 200000)")
    p_replay.add_argument("--inject", metavar="PLAN.JSON", default=None,
                          help="fault-plan JSON to inject on the backend device; "
                               "window times are absolute simulated seconds "
                               "(module start delays the first access by ~1s); "
                               "single-tenant runs use the segmented hybrid "
                               "planner, multi-tenant runs force the event engine")
    p_replay.set_defaults(func=_cmd_replay)

    p_tune = sub.add_parser(
        "tune", help="cost-model-driven configuration search for one workload"
    )
    p_tune.add_argument("workload", help="Table V workload name")
    p_tune.add_argument("--backend", default="rdma",
                        help="far-memory backend kind (default rdma)")
    group = p_tune.add_mutually_exclusive_group()
    group.add_argument("--slo", type=float, default=None,
                       help="runtime budget multiple; tunes the largest "
                            "feasible far-memory ratio (batched bisection)")
    group.add_argument("--fm-ratio", type=float, default=None,
                       help="fixed far-memory ratio (default: console's "
                            "hot-set-derived ratio)")
    p_tune.add_argument("--objective", choices=("sys_time", "stall_time"),
                        default="sys_time", help="predicted quantity to minimize")
    p_tune.add_argument("--validate", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="replay-validate a shortlist (default on)")
    p_tune.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_tune.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_tune.add_argument("--max-accesses", type=int, default=100_000,
                        help="replay-validation window (default 100000)")
    p_tune.set_defaults(func=_cmd_tune)

    p_cache = sub.add_parser("cache", help="inspect or clear the artifact cache")
    p_cache.add_argument("action", choices=("info", "clear"))
    p_cache.set_defaults(func=_cmd_cache)

    p_wl = sub.add_parser("workloads", help="show Table V workload characteristics")
    p_wl.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_wl.set_defaults(func=_cmd_workloads)

    p_lint = sub.add_parser("lint", help="run simlint static analysis over the package")
    lint_cli.configure_parser(p_lint)
    p_lint.set_defaults(func=lint_cli.run_from_args)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
