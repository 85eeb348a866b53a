"""Vectorized swap-cost model: whole candidate batches in one numpy pass.

:class:`VectorCostModel` promotes :class:`~repro.swap.pathmodel.SwapPathModel`
to a batch evaluator: one call prices an arbitrary array of
``(local_pages, granularity, io_width)`` candidates against a shared
structural template (path, channel, readahead, co-tenants), returning a
:class:`CostBatch` of per-candidate :class:`~repro.swap.pathmodel.SwapCost`
columns.  This is the MATCH/ZigZag shape the tuner is built on — the
analytic model prices the whole design space for the cost of roughly one
scalar evaluation, and expensive replay simulation only validates a
shortlist (see :mod:`repro.tune.search`).

Fidelity contract: there is one cost formula,
:func:`~repro.swap.pathmodel.combine_cost`, and a batch runs it on numpy
columns where ``SwapPathModel.cost`` runs it on Python floats.  The
template, per-granularity and per-width terms come from the model's own
term methods (one call per distinct value, preserving device-subclass
overrides) and are gathered into per-candidate columns, so every row is
**bit-identical** to ``SwapPathModel.cost`` on that candidate.
``tests/test_tune_costmodel.py`` asserts the equality field by field,
including under Hypothesis-random features and templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.errors import ConfigurationError
from repro.swap.pathmodel import (
    GranularityTerms,
    SwapConfig,
    SwapCost,
    SwapPathModel,
    WidthTerms,
    combine_cost,
)
from repro.units import PAGE_SIZE

__all__ = ["CostBatch", "VectorCostModel", "OBJECTIVES"]

#: Predicted quantities a search may minimize (the console's objectives).
OBJECTIVES = ("sys_time", "stall_time")

#: SwapCost columns carried by a batch, in dataclass field order.
_COLUMNS = (
    "misses", "blocking_faults", "ops_in", "ops_out", "bytes_in",
    "bytes_out", "sys_time", "stall_time", "per_op_latency", "t_in",
    "t_out", "fault_time",
)


@dataclass(frozen=True)
class CostBatch:
    """Columnar :class:`SwapCost` for N candidates (one array per field)."""

    local_pages: np.ndarray   #: int64 (N,) residency per candidate
    granularity: np.ndarray   #: int64 (N,) configured bytes/op per candidate
    io_width: np.ndarray      #: int64 (N,) configured channels per candidate
    misses: np.ndarray
    blocking_faults: np.ndarray
    ops_in: np.ndarray
    ops_out: np.ndarray
    bytes_in: np.ndarray
    bytes_out: np.ndarray
    sys_time: np.ndarray      # simlint: dim[sys_time=seconds]
    stall_time: np.ndarray    # simlint: dim[stall_time=seconds]
    per_op_latency: np.ndarray
    t_in: np.ndarray
    t_out: np.ndarray
    fault_time: np.ndarray

    def __len__(self) -> int:
        return int(self.sys_time.shape[0])

    def objective(self, name: str) -> np.ndarray:
        """The column a search minimizes (``sys_time`` or ``stall_time``)."""
        if name not in OBJECTIVES:
            raise ConfigurationError(f"unknown objective {name!r}")
        return getattr(self, name)

    def cost(self, i: int) -> SwapCost:
        """The exact scalar :class:`SwapCost` of candidate ``i``."""
        return SwapCost(
            misses=int(self.misses[i]),
            blocking_faults=float(self.blocking_faults[i]),
            ops_in=float(self.ops_in[i]),
            ops_out=float(self.ops_out[i]),
            bytes_in=float(self.bytes_in[i]),
            bytes_out=float(self.bytes_out[i]),
            sys_time=float(self.sys_time[i]),
            stall_time=float(self.stall_time[i]),
            per_op_latency=float(self.per_op_latency[i]),
            t_in=float(self.t_in[i]),
            t_out=float(self.t_out[i]),
            fault_time=float(self.fault_time[i]),
        )

    def argmin(self, name: str) -> int:
        """First index minimizing ``name`` — the exhaustive grid's pick.

        The reference grid scans candidates in construction order and keeps
        a candidate only on *strict* improvement, so ties resolve to the
        earliest candidate; ``np.argmin`` returns the first occurrence of
        the minimum, which is the same rule.
        """
        return int(np.argmin(self.objective(name)))


class VectorCostModel:
    """Batched evaluation of :class:`SwapPathModel` for one (workload, device).

    ``template`` fixes the structural knobs the search does not vary
    (path, channel mode, co-tenants, readahead, merge, completion mode);
    :meth:`evaluate` broadcasts the searched axes over it.
    """

    def __init__(self, model: SwapPathModel, template: SwapConfig) -> None:
        self.model = model
        self.template = template
        self._terms = model.template_terms(template)
        self._g_terms = partial(model.granularity_terms, self._terms)
        # per-distinct-value results, reused across batches
        self._by_g: dict[int, GranularityTerms] = {}
        self._by_w: dict[int, WidthTerms] = {}

    @staticmethod
    def _columns(terms, values: np.ndarray, memo: dict, make):
        """``terms`` with one float64 column per field: ``make(v)`` once per
        distinct ``v`` (memoized across batches), gathered into candidate
        order."""
        uniq, idx = np.unique(values, return_inverse=True)
        rows = []
        for v in uniq.tolist():
            if v not in memo:
                memo[v] = make(v)
            rows.append(memo[v])
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(terms._fields))
        return terms._make(table[idx].T)

    # -- the batch evaluation ---------------------------------------------
    def evaluate(self, local_pages, granularity, io_width) -> CostBatch:
        """Price every candidate row; inputs broadcast against each other."""
        local, g_cfg, w_cfg = (np.ascontiguousarray(a) for a in np.broadcast_arrays(
            np.asarray(local_pages, dtype=np.int64).ravel(),
            np.asarray(granularity, dtype=np.int64).ravel(),
            np.asarray(io_width, dtype=np.int64).ravel(),
        ))
        mrc, t = self.model.features.mrc, self._terms
        # capacity misses inflated by interference, integer-rounded exactly
        # like the scalar model
        misses = np.rint((mrc.misses_at(local) - mrc.cold_misses) * t.interference)
        misses = misses.astype(np.int64)
        g_eff = np.maximum(g_cfg, t.merged_floor)
        columns = dict(zip(_COLUMNS[1:], combine_cost(
            np, misses.astype(np.float64), g_eff.astype(np.float64), t,
            self._columns(GranularityTerms, g_eff, self._by_g, self._g_terms),
            self._columns(WidthTerms, w_cfg, self._by_w, self.model.width_terms),
        )))
        # miss-free candidates get the all-zero cost whose per_op_latency
        # is the idle page latency at the *configured* granularity
        # (pre-merge), exactly like the scalar early return
        zero = misses == 0
        if zero.any():
            uniq, idx = np.unique(g_cfg, return_inverse=True)
            page_latency = self.model.device.page_latency
            idle = np.array([page_latency(granularity=g) for g in uniq.tolist()])[idx]
            columns = {
                name: np.where(zero, idle if name == "per_op_latency" else 0.0, col)
                for name, col in columns.items()
            }
        return CostBatch(local_pages=local, granularity=g_cfg, io_width=w_cfg,
                         misses=misses, **columns)

    # -- sensitivity probes -------------------------------------------------
    def sensitivities(
        self,
        local_pages: int,
        config: SwapConfig,
        objective: str = "sys_time",
        rel_step: float = 0.25,
    ) -> dict[str, float]:
        """Finite-difference sensitivity of ``objective`` at one point.

        Returns relative derivatives d(log objective)/d(log knob) for the
        three searched axes plus the cost-term shares at the point — the
        console's "which knob matters here" diagnostic.  A knob whose
        perturbed value collapses to the same lattice point (e.g. width 1
        stepping below 1) reports 0.0.
        """
        if objective not in OBJECTIVES:
            raise ConfigurationError(f"unknown objective {objective!r}")
        if not 0.0 < rel_step < 1.0:
            raise ConfigurationError(f"rel_step must be in (0,1), got {rel_step}")
        g0, w0 = config.granularity, config.io_width
        probes = [
            (local_pages, g0, w0),
            (max(1, int(local_pages * (1.0 + rel_step))), g0, w0),
            (local_pages, max(PAGE_SIZE, g0 * 2), w0),
            (local_pages, g0, w0 * 2),
        ]
        locs, gs, ws = (np.array(a) for a in zip(*probes))
        batch = self.evaluate(locs, gs, ws)
        obj = batch.objective(objective)
        base = float(obj[0])

        def rel(i: int, knob0: float, knob1: float) -> float:
            if base <= 0.0 or knob1 == knob0:
                return 0.0
            dlog_knob = np.log(knob1 / knob0)
            dlog_obj = np.log(max(float(obj[i]), 1e-300) / base)
            return float(dlog_obj / dlog_knob)

        total = base if base > 0 else 1.0
        c0 = batch.cost(0)
        return {
            "objective": base,
            "d_local_pages": rel(1, local_pages, int(probes[1][0])),
            "d_granularity": rel(2, g0, int(probes[2][1])),
            "d_io_width": rel(3, w0, int(probes[3][2])),
            "share_fault_time": c0.fault_time / total,
            "share_t_in": c0.t_in / total,
            "share_t_out": 0.5 * c0.t_out / total,
        }
