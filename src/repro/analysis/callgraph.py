"""A lightweight module-level call graph over linted modules.

Per-statement rules (DET001 and friends) see one call expression at a
time; **DET003** asks "does this sim-scoped call *transitively* reach a
wall-clock read?", which requires following calls across every module in
the lint run.

Resolution is deliberately lightweight and purely syntactic:

* bare names resolve to same-module functions, then ``from m import f``
  imports;
* ``alias.attr`` resolves through ``import m [as alias]``;
* ``self.method`` resolves to the enclosing class;
* everything else is kept as its raw dotted name (useful for matching
  external sinks like ``time.time``) with no program edge.

Unresolvable calls simply contribute no edge — the graph
under-approximates, which for the taint facts means missed findings,
never false ones.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, NamedTuple, Protocol

from repro.analysis.astutil import dotted_name

__all__ = ["CallGraph", "CallSite", "FunctionInfo", "Reach"]


class _ModuleLike(Protocol):
    """What the graph needs from a lint context."""

    module: str
    tree: ast.Module


class CallSite(NamedTuple):
    """One call expression inside a function."""

    node: ast.Call
    #: Fully-qualified target (``repro.x.f``, ``repro.x.C.m`` or an
    #: external dotted name like ``time.time``); None when unresolvable.
    target: str | None
    #: The raw dotted form as written (``ctx.Queue``), for heuristics.
    raw: str | None


class FunctionInfo:
    """One function/method of the linted program."""

    def __init__(
        self,
        qualname: str,
        module: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name
        self.calls: list[CallSite] = []


class Reach(NamedTuple):
    """Why a function is tainted: the external sink it reaches and the
    next hop toward it (None when the sink call is in this function)."""

    sink: str
    via: str | None


class _ModuleScope:
    """Import aliases and definitions of one module."""

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        self.import_aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )


class CallGraph:
    """Functions, resolved call edges and fact-propagation helpers."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}

    # --- construction -------------------------------------------------------

    @classmethod
    def build(cls, contexts: Iterable[_ModuleLike]) -> "CallGraph":
        graph = cls()
        scopes: list[tuple[_ModuleScope, _ModuleLike]] = []
        for context in contexts:
            scope = _ModuleScope(context.module, context.tree)
            scopes.append((scope, context))
            graph._collect_functions(scope, context.tree)
        for scope, context in scopes:
            graph._collect_calls(scope, context.tree)
        return graph

    def _collect_functions(
        self,
        scope: _ModuleScope,
        tree: ast.AST,
        prefix: str = "",
        class_name: str | None = None,
    ) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope.module}.{prefix}{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname, scope.module, node, class_name
                )
                self._collect_functions(
                    scope, node, f"{prefix}{node.name}.", class_name
                )
            elif isinstance(node, ast.ClassDef):
                self._collect_functions(
                    scope, node, f"{prefix}{node.name}.", node.name
                )

    def _collect_calls(self, scope: _ModuleScope, tree: ast.Module) -> None:
        for info in self.functions.values():
            if info.module != scope.module:
                continue
            body_nodes = [
                node
                for child in ast.iter_child_nodes(info.node)
                for node in ast.walk(child)
            ]
            nested = {
                id(inner)
                for node in body_nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for inner in ast.walk(node)
                if inner is not node
            }
            for node in body_nodes:
                if id(node) in nested:
                    continue  # belongs to a nested function's own info
                if isinstance(node, ast.Call):
                    info.calls.append(self._resolve(scope, info, node))

    def _resolve(
        self, scope: _ModuleScope, info: FunctionInfo, node: ast.Call
    ) -> CallSite:
        raw = dotted_name(node.func)
        if raw is None:
            return CallSite(node, None, None)
        parts = raw.split(".")
        head = parts[0]
        # self.method() -> the enclosing class.
        if head == "self" and info.class_name is not None and len(parts) == 2:
            candidate = f"{scope.module}.{info.class_name}.{parts[1]}"
            return CallSite(node, candidate, raw)
        if len(parts) == 1:
            candidate = f"{scope.module}.{head}"
            if candidate in self.functions:
                return CallSite(node, candidate, raw)
            imported = scope.from_imports.get(head)
            if imported is not None:
                return CallSite(node, imported, raw)
            return CallSite(node, raw, raw)
        # alias.attr... -> resolve the alias through plain imports.
        alias_target = scope.import_aliases.get(head)
        if alias_target is not None:
            return CallSite(node, ".".join([alias_target, *parts[1:]]), raw)
        imported = scope.from_imports.get(head)
        if imported is not None:
            return CallSite(node, ".".join([imported, *parts[1:]]), raw)
        return CallSite(node, raw, raw)

    # --- fact propagation ---------------------------------------------------

    def transitive_reach(
        self, is_sink: Callable[[str], bool]
    ) -> dict[str, Reach]:
        """Functions that (transitively) call a sink.

        *is_sink* judges resolved/raw dotted call names (``time.time``).
        The result maps each reaching function to the sink name and the
        next program function on the path (for diagnostics).
        """
        reaches: dict[str, Reach] = {}
        for qualname, info in self.functions.items():
            for site in info.calls:
                for name in (site.target, site.raw):
                    if name is not None and is_sink(name):
                        reaches[qualname] = Reach(name, None)
                        break
                if qualname in reaches:
                    break
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if qualname in reaches:
                    continue
                for site in info.calls:
                    target = site.target
                    if target in reaches and target != qualname:
                        reaches[qualname] = Reach(reaches[target].sink, target)
                        changed = True
                        break
        return reaches
