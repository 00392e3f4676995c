"""Leaf AST helpers shared by rules and the call graph.

This module must stay import-free of the rest of :mod:`repro.analysis`
(rules, engine, call graph) — it is the bottom of the import graph, so
both the rule package and the analysis framework can use it without
cycles.
"""

from __future__ import annotations

import ast

__all__ = ["dotted_name"]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
