"""API hygiene rules: mutable defaults, the keyword-only ``inspect``."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.engine import LintContext

#: Constructor calls producing a shared mutable object per *definition*.
_MUTABLE_FACTORIES = frozenset(
    {
        "bytearray",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "defaultdict",
        "deque",
        "dict",
        "list",
        "set",
    }
)


def _is_mutable_default(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name in _MUTABLE_FACTORIES
    return False


@register_rule
class MutableDefaultRule(Rule):
    """API001: default argument values must be immutable.

    A mutable default is evaluated once at function definition and then
    shared across every call — state leaks between invocations that are
    supposed to be independent.  Use ``None`` plus an in-body fallback.
    """

    code = "API001"
    summary = "no mutable default arguments (list/dict/set/… evaluated once)"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(self, node: ast.AST, context: "LintContext") -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        arguments = node.args
        label = (
            "<lambda>" if isinstance(node, ast.Lambda) else node.name
        )
        for default in list(arguments.defaults) + [
            d for d in arguments.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                yield context.finding(
                    default,
                    self.code,
                    f"mutable default argument in {label}(); use None and "
                    "create the object inside the function body",
                )


@register_rule
class PositionalInspectRule(Rule):
    """API002: ``inspect`` takes everything but the payload by keyword.

    ``DPIServiceInstance.inspect`` accepts ``chain_id``/``flow_key``/
    ``now``/``trace_parent`` as keywords only; a positional shape is a
    TypeError at run time, caught here before it runs.
    """

    code = "API002"
    summary = "no positional chain_id/flow arguments to .inspect()"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: "LintContext") -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "inspect" and len(node.args) >= 2:
            # First positional is the payload; DPIServiceInstance accepts
            # nothing else positionally.
            yield context.finding(
                node,
                self.code,
                ".inspect() with positional chain_id/flow arguments "
                "raises TypeError; pass chain_id=/flow_key=/now=/"
                "trace_parent= as keywords",
            )
