"""Persistent content-addressed artifact cache.

Every artifact kind here is a pure function of its key plus the code
version that produced it, so it is cached on disk and shared by every
process that asks for the same artifact: repeated CLI runs, parallel
``run all`` workers, tests and benchmarks.  The kinds:

* ``trace`` / ``features`` — synthesized traces and fused feature
  profiles, keyed by ``(workload spec, scale, seed)``;
* ``replay`` — batched-replay classifications of traces with at least
  ``repro.swap.replay._CACHE_MIN_ANON`` (4096) anonymous accesses, keyed
  by the trace bytes;
* ``tune`` — replay-validated tuner candidates;
* ``fleet`` — one entry per fleet sweep: every node job's counters as
  columns in plan order, keyed by the sweep and its resolved lease plan,
  written once after every job returned and read back whole.

Layout: ``<cache-dir>/v1/<artifact>-<sha256-prefix>.npz`` holds the arrays
(and scalars) of one artifact; a ``.json`` sidecar records the full key for
humans and ``repro cache info``.  The digest covers the canonical JSON of
the key, which includes the relevant schema/kernel/fusion versions —
bumping any version changes every digest, so stale entries are simply
never looked up again (``repro cache clear`` reclaims the space).

Writes are atomic (temp file + ``os.replace``); a corrupted or truncated
entry is treated as a miss, deleted, and regenerated.  A writer killed
mid-write leaves its ``tmp*.tmp`` file behind; ``repro cache info``
counts those and ``repro cache clear`` removes them once they are a
minute old (a younger one may be a write in flight).

Environment knobs::

    REPRO_CACHE=0          disable reads and writes entirely
    REPRO_CACHE_DIR=PATH   cache root (default: $XDG_CACHE_HOME/xdm-repro
                           if XDG_CACHE_HOME is set, else ./.repro-cache)
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.mem.reuse import KERNEL_VERSION, MissRatioCurve
from repro.trace.fusion import FUSION_VERSION, PageFeatures
from repro.trace.schema import SCHEMA_VERSION, TRACE_DTYPE, PageTrace

__all__ = [
    "cache_enabled",
    "cache_dir",
    "cache_stats",
    "cache_info",
    "clear_cache",
    "trace_key",
    "features_key",
    "replay_key",
    "tune_key",
    "fleet_key",
    "load_trace",
    "store_trace",
    "load_features",
    "store_features",
    "load_replay",
    "store_replay",
    "load_tune_point",
    "store_tune_point",
    "load_fleet_sweep",
    "store_fleet_sweep",
]

_LAYOUT = "v1"

#: process-local hit/miss counters, reported by the experiment runner
_stats = {"hits": 0, "misses": 0}


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE=0`` opts out of the disk cache."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_dir() -> Path:
    """Root directory of the artifact cache (not created until first write)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "xdm-repro"
    return Path(".repro-cache")


def cache_stats() -> tuple[int, int]:
    """(hits, misses) served to this process so far."""
    return _stats["hits"], _stats["misses"]


# -- keys --------------------------------------------------------------------

def _spec_fingerprint(spec) -> dict:
    """The synthesis-relevant identity of a workload spec."""
    return {
        "workload": spec.name,
        "max_mem_bytes": spec.max_mem_bytes,
        "params": dict(spec.params),
    }


def trace_key(spec, scale: float, seed: int | None) -> dict:
    """Cache key of one synthesized trace."""
    key = _spec_fingerprint(spec)
    key.update(scale=scale, seed=seed, schema_version=SCHEMA_VERSION)
    return key


def features_key(spec, scale: float, seed: int | None) -> dict:
    """Cache key of one fused feature profile (includes its MRC histogram)."""
    key = trace_key(spec, scale, seed)
    key.update(kernel_version=KERNEL_VERSION, fusion_version=FUSION_VERSION)
    return key


def _digest(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _entry_path(artifact: str, key: dict) -> Path:
    return cache_dir() / _LAYOUT / f"{artifact}-{_digest(key)}.npz"


# -- raw entry I/O -----------------------------------------------------------

def _atomic_write(path: Path, mode: str, write) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _store(artifact: str, key: dict, arrays: dict) -> None:
    path = _entry_path(artifact, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, "wb", lambda fh: np.savez(fh, **arrays))
    _atomic_write(
        path.with_suffix(".json"), "w",
        lambda fh: json.dump({"artifact": artifact, "key": key}, fh, sort_keys=True, indent=1),
    )


def _load(artifact: str, key: dict, names: tuple[str, ...],
          rows: int | None = None) -> dict | None:
    """Read ``names`` from an entry; ``rows`` requires 1-D arrays of that length."""
    path = _entry_path(artifact, key)
    try:
        with np.load(path, allow_pickle=False) as npz:
            out = {name: npz[name] for name in names}
        if rows is not None and any(a.shape != (rows,) for a in out.values()):
            raise ValueError(f"{path.name}: expected {rows} rows per column")
    except FileNotFoundError:
        _stats["misses"] += 1
        return None
    except Exception:
        # truncated/garbled/mis-shaped entry: drop it and regenerate
        path.unlink(missing_ok=True)
        path.with_suffix(".json").unlink(missing_ok=True)
        _stats["misses"] += 1
        return None
    _stats["hits"] += 1
    return out


# -- traces ------------------------------------------------------------------

def store_trace(spec, scale: float, seed: int | None, trace: PageTrace) -> None:
    """Persist one synthesized trace."""
    _store("trace", trace_key(spec, scale, seed), {"trace": trace.data})


def load_trace(spec, scale: float, seed: int | None) -> PageTrace | None:
    """Load a synthesized trace, or None on a miss."""
    arrays = _load("trace", trace_key(spec, scale, seed), ("trace",))
    if arrays is None:
        return None
    data = arrays["trace"]
    if data.dtype != TRACE_DTYPE:  # layout drift without a version bump
        return None
    return PageTrace(np.ascontiguousarray(data))


# -- fused features ----------------------------------------------------------

_SCALAR_FIELDS = tuple(f.name for f in fields(PageFeatures) if f.name != "mrc")


def store_features(spec, scale: float, seed: int | None, features: PageFeatures) -> None:
    """Persist one fused feature profile (scalars + MRC histogram)."""
    arrays = {name: getattr(features, name) for name in _SCALAR_FIELDS}
    mrc = features.mrc
    arrays["mrc_hist"] = mrc.histogram
    arrays["mrc_cold"] = mrc.cold_misses
    arrays["mrc_accesses"] = mrc.n_accesses
    _store("features", features_key(spec, scale, seed), arrays)


def load_features(spec, scale: float, seed: int | None) -> PageFeatures | None:
    """Load a fused feature profile, or None on a miss."""
    names = _SCALAR_FIELDS + ("mrc_hist", "mrc_cold", "mrc_accesses")
    arrays = _load("features", features_key(spec, scale, seed), names)
    if arrays is None:
        return None
    mrc = MissRatioCurve.from_histogram(
        arrays["mrc_hist"],
        cold_misses=int(arrays["mrc_cold"]),
        n_accesses=int(arrays["mrc_accesses"]),
    )
    kwargs = {}
    for f in fields(PageFeatures):
        if f.name == "mrc":
            continue
        value = arrays[f.name].item()
        kwargs[f.name] = int(value) if f.type == "int" else float(value)
    return PageFeatures(mrc=mrc, **kwargs)


# -- replay classifications --------------------------------------------------

def replay_key(trace_digest: str, capacity: int, active_ratio: float) -> dict:
    """Cache key of one batched-replay classification.

    Content-addressed by the trace bytes (not the synthesis spec), so any
    trace — synthesized, loaded, or sliced — caches uniformly; the reuse
    kernel and replay versions guard against algorithm drift.
    """
    from repro.swap.replay import REPLAY_VERSION

    return {
        "trace_digest": trace_digest,
        "capacity": capacity,
        "active_ratio": active_ratio,
        "kernel_version": KERNEL_VERSION,
        "replay_version": REPLAY_VERSION,
    }


_REPLAY_ARRAYS = ("fault_pos", "evict_pos", "evict_page", "clean", "far_end",
                  "final_active", "final_inactive", "touched")
_REPLAY_SCALARS = ("n_accesses", "file_skips", "hits", "cold_allocations",
                   "lru_promotions", "lru_demotions")


def store_replay(trace_digest: str, capacity: int, active_ratio: float,
                 classification) -> None:
    """Persist one phase-1 classification (arrays + counter scalars)."""
    arrays = {name: getattr(classification, name) for name in _REPLAY_ARRAYS}
    for name in _REPLAY_SCALARS:
        arrays[name] = np.int64(getattr(classification, name))
    _store("replay", replay_key(trace_digest, capacity, active_ratio), arrays)


def load_replay(trace_digest: str, capacity: int, active_ratio: float):
    """Load a phase-1 classification, or None on a miss."""
    from repro.swap.replay import ReplayClassification

    names = _REPLAY_ARRAYS + _REPLAY_SCALARS
    arrays = _load("replay", replay_key(trace_digest, capacity, active_ratio), names)
    if arrays is None:
        return None
    kwargs = {name: np.ascontiguousarray(arrays[name]) for name in _REPLAY_ARRAYS}
    kwargs.update({name: int(arrays[name]) for name in _REPLAY_SCALARS})
    return ReplayClassification(**kwargs)


# -- tuner-validated candidate points ----------------------------------------

def tune_key(trace_digest: str, backend: str, local_pages: int,
             far_ratio: float, config) -> dict:
    """Cache key of one replay-validated tuner candidate.

    Content-addressed by the trace bytes plus the **full** configuration
    tuple the measurement depends on — granularity, I/O width, far ratio
    (and the local_pages it resolves to), placement (path + channel mode +
    co-tenants), readahead/merge knobs, completion mode, backend, and the
    replay/kernel engine versions — so validations dedupe across
    experiments and repeated tuning runs, and never alias across configs.
    """
    from repro.swap.replay import REPLAY_VERSION
    from repro.tune.validate import VALIDATE_VERSION

    return {
        "trace_digest": trace_digest,
        "backend": backend,
        "local_pages": local_pages,
        "far_ratio": far_ratio,
        "granularity": config.granularity,
        "io_width": config.io_width,
        "readahead_pages": config.readahead_pages,
        "max_readahead_pages": config.max_readahead_pages,
        "merge_pages": config.merge_pages,
        "path": str(config.path),
        "channel": str(config.channel),
        "co_tenants": config.co_tenants,
        "synchronous_faults": config.synchronous_faults,
        "kernel_version": KERNEL_VERSION,
        "replay_version": REPLAY_VERSION,
        "validate_version": VALIDATE_VERSION,
    }


_TUNE_SCALARS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
                 "swap_outs", "clean_drops", "file_skips")


def store_tune_point(trace_digest: str, backend: str, local_pages: int,
                     far_ratio: float, config, result) -> None:
    """Persist one validated candidate's measured counters and time."""
    arrays = {name: np.int64(getattr(result, name)) for name in _TUNE_SCALARS}
    arrays["sim_time"] = np.float64(result.sim_time)
    _store("tune", tune_key(trace_digest, backend, local_pages, far_ratio, config),
           arrays)


def load_tune_point(trace_digest: str, backend: str, local_pages: int,
                    far_ratio: float, config) -> dict | None:
    """Load one validated candidate's measurement, or None on a miss."""
    names = _TUNE_SCALARS + ("sim_time",)
    arrays = _load("tune",
                   tune_key(trace_digest, backend, local_pages, far_ratio, config),
                   names)
    if arrays is None:
        return None
    out = {name: int(arrays[name]) for name in _TUNE_SCALARS}
    out["sim_time"] = float(arrays["sim_time"])
    return out


# -- fleet sweeps ---------------------------------------------------------------

def fleet_key(fingerprint: dict, plan_digest: str) -> dict:
    """Cache key of one fleet sweep's node-job results.

    ``fingerprint`` is :meth:`repro.cluster.fleet.FleetConfig.fingerprint`
    (thresholds, topology, job shape, seed) and ``plan_digest`` a sha256
    over the resolved :class:`~repro.cluster.fleet.NodeAssignment` list,
    so a planner change nobody versioned misses instead of serving stale
    results.  The fleet version guards against node-simulation drift.
    """
    from repro.cluster.fleet import FLEET_VERSION

    key = dict(fingerprint)
    key.update(plan_digest=plan_digest, fleet_version=FLEET_VERSION)
    return key


_FLEET_COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
                   "swap_outs", "clean_drops", "failovers")


def store_fleet_sweep(fingerprint: dict, plan_digest: str, results) -> None:
    """Persist a sweep's node-job counters and simulated times, in plan order."""
    arrays = {name: np.array([getattr(r, name) for r in results], dtype=np.int64)
              for name in _FLEET_COUNTERS}
    arrays["sim_time"] = np.array([r.sim_time for r in results], dtype=np.float64)
    _store("fleet", fleet_key(fingerprint, plan_digest), arrays)


def load_fleet_sweep(fingerprint: dict, plan_digest: str,
                     n_jobs: int) -> list[dict] | None:
    """Load a sweep's per-job counters in plan order, or None on a miss.

    An entry whose columns do not hold exactly ``n_jobs`` rows is treated
    like a corrupt one: dropped, and the sweep regenerated.
    """
    names = _FLEET_COUNTERS + ("sim_time",)
    arrays = _load("fleet", fleet_key(fingerprint, plan_digest), names, rows=n_jobs)
    if arrays is None:
        return None
    columns = [arrays[name].tolist() for name in names]
    return [dict(zip(names, row)) for row in zip(*columns)]


# -- management --------------------------------------------------------------

#: A temp file older than this lost its writer (killed mid-write); a live
#: writer renames its file into place within milliseconds.
_STALE_TMP_S = 60.0


def _size(path: Path) -> int:
    """Bytes in ``path``; 0 once a concurrent writer or clear removed it."""
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def cache_info() -> dict:
    """Entry counts and bytes per artifact kind, for ``repro cache info``.

    ``temp_files`` / ``temp_bytes`` count the ``_atomic_write`` temp files
    in the layout directory: writes in flight, or leftovers of writers
    killed mid-write, which :func:`clear_cache` reclaims.  ``bytes``
    includes them.
    """
    root = cache_dir() / _LAYOUT
    kinds: dict[str, int] = {}
    kind_bytes: dict[str, int] = {}
    temps: list[Path] = []
    if root.is_dir():
        for path in sorted(root.glob("*.npz")):
            artifact = path.name.rsplit("-", 1)[0]
            kinds[artifact] = kinds.get(artifact, 0) + 1
            kind_bytes[artifact] = (kind_bytes.get(artifact, 0) + _size(path)
                                    + _size(path.with_suffix(".json")))
        temps = sorted(root.glob("tmp*.tmp"))
    temp_bytes = sum(_size(path) for path in temps)
    return {
        "dir": str(cache_dir()),
        "enabled": cache_enabled(),
        "entries": sum(kinds.values()),
        "bytes": sum(kind_bytes.values()) + temp_bytes,
        "kinds": kinds,
        "kind_bytes": kind_bytes,
        "temp_files": len(temps),
        "temp_bytes": temp_bytes,
    }


def clear_cache() -> int:
    """Delete every cache entry; returns the number of entries removed.

    Temp files older than ``_STALE_TMP_S`` go too; a younger one may
    belong to a live writer, which would fail if its file vanished.
    """
    root = cache_dir() / _LAYOUT
    removed = 0
    if root.is_dir():
        for path in sorted(root.glob("*.npz")):
            path.unlink(missing_ok=True)
            path.with_suffix(".json").unlink(missing_ok=True)
            removed += 1
        cutoff = time.time() - _STALE_TMP_S  # simlint: ignore[DET002] -- file ages, never simulation state
        for path in root.glob("tmp*.tmp"):
            try:
                stale = path.stat().st_mtime < cutoff
            except FileNotFoundError:  # renamed into place meanwhile
                continue
            if stale:
                path.unlink(missing_ok=True)
    return removed
