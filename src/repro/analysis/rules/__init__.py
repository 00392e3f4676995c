"""Rule framework and the project rule catalog.

A rule subclasses :class:`Rule`, declares a unique ``code``, the AST
node types it wants to see, and yields findings from :meth:`Rule.visit`.
Rules that need whole-program facts (the call graph, suppression usage)
override :meth:`Rule.finish`, which runs once per lint run with a
:class:`~repro.analysis.program.Program`.  Registration happens through
:func:`register_rule`, which keeps :data:`RULE_REGISTRY` (code -> rule
class) that the engine, the CLI and the documentation all read.

Catalog:

========  ==================================================================
DET001    wall-clock / unseeded randomness on simulation paths
DET002    iteration over unordered sets on simulation paths
DET003    sim-scoped call transitively reaching wall clock / global RNG
TEL001    unbounded metric label cardinality
API001    mutable default argument
API002    positional chain_id/flow arguments to ``.inspect()``
KER001    scan-kernel public method outside the kernel contract surface
NOQ001    ``# repro: noqa`` comment that suppresses nothing (warning)
PARSE001  (engine-emitted) unparseable module
========  ==================================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Type

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.engine import LintContext
    from repro.analysis.program import Program

#: Every registered rule class, keyed by code.
RULE_REGISTRY: dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code` (stable identifier, used in reports and
    ``# repro: noqa[CODE]`` suppressions), :attr:`summary` (one line for
    the catalog) and :attr:`node_types` (the AST node classes the engine
    dispatches to :meth:`visit`).  Project-phase rules override
    :meth:`finish` instead of (or as well as) :meth:`visit`;
    :attr:`finish_priority` orders the phase (NOQ001 runs last, after
    every other rule's findings have marked their suppressions used) and
    :attr:`suppressible` is cleared by rules whose findings must not be
    noqa'd away (the suppression audit itself).
    """

    code: str = ""
    summary: str = ""
    node_types: tuple[type[ast.AST], ...] = ()
    severity: str = "error"
    finish_priority: int = 0
    suppressible: bool = True

    def prepare(self, context: "LintContext") -> None:
        """Called once per module before the walk; collect module facts."""

    def visit(self, node: ast.AST, context: "LintContext") -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        raise NotImplementedError
        yield  # pragma: no cover - makes every override a generator

    def finish(self, program: "Program") -> Iterator[Finding]:
        """Yield findings once per lint run, after every module's walk."""
        return iter(())


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    existing = RULE_REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule code {cls.code!r}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def default_rules() -> list[Rule]:
    """One instance of every registered rule, ordered by code."""
    return [RULE_REGISTRY[code]() for code in sorted(RULE_REGISTRY)]


__all__ = [
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
    "dotted_name",
    "register_rule",
]

# Importing the rule modules populates the registry; this must come after
# Rule/register_rule exist because each module imports them from here.
from repro.analysis.rules import (  # noqa: E402,F401
    api,
    determinism,
    kernel,
    suppressions,
    telemetry,
)
