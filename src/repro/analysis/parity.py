"""Engine-parity analyzer (PAR001).

The repo's headline contract is that the batched replay engines are
*bit-identical* to the event-driven reference: every counter the event
engine touches, the batch engine must touch too, and vice versa.  This pass
turns that contract into a static check by diffing the **counter mutation
surface** of each engine over the :class:`SwapExecutionResult` fields.  The
event engine is everything reachable from ``SwapExecutor._run_proc``; the
batch side is two entries, diffed one at a time: everything reachable from
``replay_run_multi`` (the clean batch engine, one tenant or many), and
everything reachable from the segmented hybrid planner's ``hybrid_run``
(which reaches the fault path — retries, stalls, failover — through its
event segments).  A seam sub-check holds the planner's ``_batch_segment``
booking to the clean engine's ``_apply_classification``.  A mutation is any
``res.X += / -= / =`` or ``res.X.add(...)`` / ``res.X.add_repeat(...)``
whose receiver chain ends in ``res`` or ``result`` (so LRU-internal stats
like ``lru.hits`` don't count).

A field mutated by one engine but not its peer is a finding anchored at the
peer's entry-point ``def`` line.  Fields that *legitimately* exist on one
side only are listed in :data:`_EVENT_ONLY` with the reason — empty since
the segmented hybrid planner made the whole fault-path counter surface
(``transient_retries``/``stall_time``/``failovers``) reachable from the
batch side.  The pass is a no-op when its anchor functions are not all in
the lint set, so linting a single file never produces phantom parity
findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, Rule, _dotted, register
from repro.analysis.symbols import FunctionInfo, ProjectContext

__all__ = []

#: Result fields with no batch mirror, and why.  Empty: the segmented
#: hybrid planner (`repro.swap.plan.hybrid_run`) routes fault-plan and
#: failover runs through event-exact segments, so the retry/stall/failover
#: counters are now part of the shared surface.  Re-populate (with a
#: reason per field) only if a counter legitimately becomes one-sided.
_EVENT_ONLY: dict[str, str] = {}

#: Per-entry exemptions for the *clean-path* batch engine:
#: `replay_run_multi` is only ever taken when no live fault windows and no
#: failover controller are attached (the `_engine` dispatcher routes every
#: injected run to `hybrid_run` or the event loop), so the fault-path
#: counters have no mutation site there by design.  `hybrid_run` gets no
#: exemption — it must cover the full event surface.
_CLEAN_ONLY: dict[str, str] = {
    "transient_retries": "clean-path engine: injected runs route to hybrid_run",
    "stall_time": "clean-path engine: injected runs route to hybrid_run",
    "failovers": "clean-path engine: injected runs route to hybrid_run",
}
_CLEAN_ENTRIES = frozenset({"replay_run_multi"})

_RESULT_RECEIVERS = frozenset({"res", "result"})
_STAT_METHODS = frozenset({"add", "add_repeat"})


def _receiver_parts(node: ast.expr) -> list[str] | None:
    dotted = _dotted(node)
    return dotted.split(".") if dotted is not None else None


def _result_mutations(info: FunctionInfo) -> set[str]:
    """SwapExecutionResult fields this function mutates."""
    fields: set[str] = set()
    for node in ast.walk(info.node):
        targets: list[ast.expr] = []
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _STAT_METHODS:
            parts = _receiver_parts(node.func)
            # e.g. res.fault_latency.add_repeat -> field fault_latency
            if parts is not None and len(parts) >= 3 and parts[-3] in _RESULT_RECEIVERS:
                fields.add(parts[-2])
            continue
        for target in targets:
            if isinstance(target, ast.Attribute):
                parts = _receiver_parts(target.value)
                if parts is not None and parts[-1] in _RESULT_RECEIVERS:
                    fields.add(target.attr)
    return fields


def _find_entries(project: ProjectContext, suffix: str) -> list[FunctionInfo]:
    return [info for qual, info in project.functions.items()
            if qual.endswith("." + suffix)]


@register
class EngineParity(Rule):
    """Diff the counter mutation surface of the event/batch engines."""

    id = "PAR001"
    title = "engines mutate the same counter surface"
    scope = "project"
    rationale = (
        "the batch and hybrid replay engines are contractually "
        "bit-identical to the event DES; a counter incremented, renamed, "
        "or zeroed in one engine but not the others drifts the "
        "SwapExecutionResult surface and invalidates every cross-engine "
        "comparison"
    )
    example_bad = {
        "swap/executor.py": (
            "class SwapExecutor:\n"
            "    def _run_proc(self):\n"
            "        res = self.result\n"
            "        res.hits += 1\n"
            "        res.faults += 1\n"
        ),
        "swap/replay.py": (
            "def replay_run_multi(executors):\n"
            "    res = executors[0].result\n"
            "    res.hits += 1\n"
        ),
    }
    example_ok = {
        "swap/executor.py": (
            "class SwapExecutor:\n"
            "    def _run_proc(self):\n"
            "        res = self.result\n"
            "        res.hits += 1\n"
            "        res.faults += 1\n"
        ),
        "swap/replay.py": (
            "def replay_run_multi(executors):\n"
            "    res = executors[0].result\n"
            "    res.hits += 1\n"
            "    res.faults += 1\n"
        ),
    }

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        event_entries = _find_entries(project, "SwapExecutor._run_proc")
        batch_entries = (_find_entries(project, "replay_run_multi")
                         + [i for i in _find_entries(project, "hybrid_run")
                            if i.cls is None])
        if not event_entries or not batch_entries:
            return  # one engine absent from the lint set: nothing to diff

        event = self._surface(project, event_entries)
        # each batch-side entry point is a complete engine: diff every one
        # against the event surface individually, so a counter dropped
        # from one engine is caught even while its peers still mutate it
        for entry in batch_entries:
            surface = self._surface(project, [entry])
            exempt = set(_EVENT_ONLY)
            if entry.name in _CLEAN_ENTRIES:
                exempt |= set(_CLEAN_ONLY)
            for field in sorted(event - surface):
                if field in exempt:
                    continue
                yield self._missing(entry, field, "event", f"`{entry.name}`")
            for field in sorted(surface - event):
                yield self._missing(event_entries[0], field,
                                    f"`{entry.name}`", "event")

        # the hybrid planner's whole-entry surface is a superset of the
        # event surface by construction (its event segments run the exact
        # loop), so its *batch-segment booking* is held to the clean batch
        # engine's booking surface separately: a counter dropped from one
        # chunk-booking site but not the other is a seam-parity break
        seg_entries = _find_entries(project, "_batch_segment")
        book_entries = _find_entries(project, "_apply_classification")
        if seg_entries and book_entries:
            seg = self._surface(project, seg_entries)
            book = self._surface(project, book_entries)
            for field in sorted(book - seg):
                yield self._missing(seg_entries[0], field,
                                    "clean batch booking", "hybrid chunk booking")
            for field in sorted(seg - book):
                yield self._missing(book_entries[0], field,
                                    "hybrid chunk booking", "clean batch booking")

    @staticmethod
    def _surface(project: ProjectContext, entries: list[FunctionInfo]) -> set[str]:
        reached = project.reachable([e.qualname for e in entries])
        fields: set[str] = set()
        for qual in reached:
            fields |= _result_mutations(project.functions[qual])
        return fields

    def _missing(self, entry: FunctionInfo, field: str,
                 present: str, absent: str) -> Finding:
        return Finding(
            path=entry.module.path,
            line=entry.node.lineno,
            col=entry.node.col_offset,
            rule=self.id,
            message=(
                f"counter `{field}` is mutated by the {present} engine but "
                f"not the {absent} engine (`{entry.name}` and callees); the "
                "engines' counter surfaces must stay bit-identical"
            ),
        )
