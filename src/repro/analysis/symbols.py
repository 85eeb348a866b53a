"""Project-wide symbol table and call graph for simlint's project passes.

A :class:`ProjectContext` wraps every :class:`~repro.analysis.rules.ModuleContext`
in the lint set and offers the cross-file lookups the dataflow rule families
need:

* ``functions`` — every function/method keyed by dotted qualname
  (``repro.swap.replay.replay_run_multi``, ``repro.swap.executor.SwapExecutor._run_proc``);
* ``resolve_callee`` — best-effort static resolution of a call site to one
  of those functions (local name, import alias, ``self.method``, unique
  bare name);
* ``call_graph`` / ``reachable`` — caller -> callee edges over resolved
  calls, and BFS closure from a set of entry points.

Resolution is deliberately conservative: an ambiguous or dynamic call
resolves to ``None`` and the rule families treat it as unknown rather than
guessing.  The table is O(project AST) to build and is constructed at most
once per lint run.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.analysis.rules import ModuleContext, _dotted

__all__ = ["FunctionInfo", "ProjectContext"]


@dataclass
class FunctionInfo:
    """One function or method definition in the lint set."""

    qualname: str
    name: str
    cls: str | None
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    callees: set[str] = field(default_factory=set)

    @property
    def params(self) -> list[str]:
        """Positional + keyword-only parameter names, ``self``/``cls`` dropped."""
        a = self.node.args
        names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if self.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    @property
    def is_generator(self) -> bool:
        """True when the body contains a ``yield`` outside nested defs."""
        for sub in ast.walk(self.node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                owner = _enclosing_function.get(id(sub))
                if owner is None or owner is self.node:
                    return True
        return False


#: id(yield-node) -> owning function node, filled in during collection so
#: ``is_generator`` does not mis-attribute yields inside nested defs.
_enclosing_function: dict[int, ast.AST] = {}


class ProjectContext:
    """The whole lint set: modules, functions, call graph, pass-level cache."""

    def __init__(self, contexts: Iterable[ModuleContext]) -> None:
        self.contexts = list(contexts)
        self.modules: dict[str, ModuleContext] = {
            ctx.module_name: ctx for ctx in self.contexts
        }
        self.by_path: dict[str, ModuleContext] = {ctx.path: ctx for ctx in self.contexts}
        self.functions: dict[str, FunctionInfo] = {}
        self._by_bare: dict[str, list[FunctionInfo]] = defaultdict(list)
        self._by_node: dict[int, FunctionInfo] = {}
        self._call_graph: dict[str, frozenset[str]] | None = None
        self._cache: dict[str, object] = {}
        for ctx in self.contexts:
            self._collect(ctx)

    # -- collection --------------------------------------------------------

    def _collect(self, ctx: ModuleContext) -> None:
        def visit(body: list[ast.stmt], prefix: str, cls: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{node.name}"
                    info = FunctionInfo(
                        qualname=qual, name=node.name, cls=cls, module=ctx, node=node
                    )
                    self.functions[qual] = info
                    self._by_bare[node.name].append(info)
                    self._by_node[id(node)] = info
                    for sub in ast.walk(node):
                        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                            _enclosing_function.setdefault(id(sub), node)
                    # nested defs are collected but keep the outer prefix
                    visit(node.body, qual, None)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}", node.name)

        visit(ctx.tree.body, ctx.module_name, None)

    # -- lookup ------------------------------------------------------------

    def function_at(self, ctx: ModuleContext, node: ast.AST) -> FunctionInfo | None:
        """The FunctionInfo whose def node is ``node``, if collected."""
        return self._by_node.get(id(node))

    def _lookup(self, dotted: str) -> FunctionInfo | None:
        """Try a dotted qualname with and without a leading package prefix."""
        if dotted in self.functions:
            return self.functions[dotted]
        # ``from repro.units import to_pages`` resolves to ``repro.units.to_pages``
        # but a fixture set may key modules without the package root.
        head, _, rest = dotted.partition(".")
        if rest and rest in self.functions:
            return self.functions[rest]
        return None

    def resolve_callee(self, ctx: ModuleContext, call: ast.Call,
                       enclosing: FunctionInfo | None = None) -> FunctionInfo | None:
        """Best-effort resolution of a call site to a collected function."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ctx.members:
                module, member = ctx.members[name]
                hit = self._lookup(f"{module}.{member}")
                if hit is not None:
                    return hit
            hit = self._lookup(f"{ctx.module_name}.{name}")
            if hit is not None:
                return hit
            if enclosing is not None:
                hit = self._lookup(f"{enclosing.qualname}.{name}")
                if hit is not None:
                    return hit
            bare = self._by_bare.get(name, [])
            return bare[0] if len(bare) == 1 else None
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is not None:
                if dotted.startswith(("self.", "cls.")) and dotted.count(".") == 1 \
                        and enclosing is not None and enclosing.cls is not None:
                    return self._lookup(
                        f"{enclosing.module.module_name}.{enclosing.cls}.{func.attr}"
                    )
                hit = self._lookup(ctx.resolve(dotted))
                if hit is not None:
                    return hit
            bare = self._by_bare.get(func.attr, [])
            return bare[0] if len(bare) == 1 else None
        return None

    # -- call graph --------------------------------------------------------

    @property
    def call_graph(self) -> dict[str, frozenset[str]]:
        """caller qualname -> resolved callee qualnames."""
        if self._call_graph is None:
            graph: dict[str, frozenset[str]] = {}
            for info in self.functions.values():
                callees: set[str] = set()
                for sub in ast.walk(info.node):
                    if isinstance(sub, ast.Call):
                        target = self.resolve_callee(info.module, sub, info)
                        if target is not None:
                            callees.add(target.qualname)
                info.callees = callees
                graph[info.qualname] = frozenset(callees)
            self._call_graph = graph
        return self._call_graph

    def reachable(self, entries: Iterable[str]) -> set[str]:
        """Qualnames reachable from ``entries`` through the call graph."""
        graph = self.call_graph
        seen: set[str] = set()
        frontier = [e for e in entries if e in graph]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            frontier.extend(c for c in graph[qual] if c not in seen)
        return seen

    # -- shared pass cache -------------------------------------------------

    def cache(self, key: str, build: Callable[[], object]) -> object:
        """Memoize an analysis product (e.g. the dims sweep) per project."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]
