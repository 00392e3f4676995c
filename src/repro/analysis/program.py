"""The whole-lint-run view handed to project-phase rules.

Per-node rules see one module at a time; the call-graph rule (DET003,
DESIGN.md section 9) and the suppression audit (NOQ001) run once over the
*whole* set of linted modules after the per-node walk.  :class:`Program`
is what they receive: every module's
:class:`~repro.analysis.engine.LintContext` and a lazily-built
cross-module :class:`~repro.analysis.callgraph.CallGraph` — built at most
once per lint run no matter how many rules ask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.callgraph import CallGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.engine import LintContext

__all__ = ["Program", "SuppressionRecord"]


class SuppressionRecord:
    """One ``# repro: noqa`` comment and whether it earned its keep."""

    def __init__(self, path: str, line: int, codes: frozenset[str] | None) -> None:
        self.path = path
        self.line = line
        #: None for a blanket ``# repro: noqa``.
        self.codes = codes
        #: Codes of findings this comment actually suppressed this run.
        self.used_codes: set[str] = set()


class Program:
    """Everything a project-phase rule may inspect."""

    def __init__(self, contexts: Sequence["LintContext"]) -> None:
        self.contexts: tuple["LintContext", ...] = tuple(contexts)
        #: Every suppression comment seen, filled in by the engine.
        self.suppressions: list[SuppressionRecord] = []
        #: Codes of the rules this run executed (drives NOQ001: a
        #: suppression is only judged unused when its codes were run).
        self.ran_codes: frozenset[str] = frozenset()
        #: True when the run covered the full registered catalog —
        #: blanket suppressions are only auditable then.
        self.complete: bool = False
        self._call_graph: CallGraph | None = None

    @property
    def call_graph(self) -> CallGraph:
        """The cross-module call graph (built on first use)."""
        if self._call_graph is None:
            self._call_graph = CallGraph.build(self.contexts)
        return self._call_graph
