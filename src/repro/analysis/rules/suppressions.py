"""NOQ001: the suppression audit.

A ``# repro: noqa[CODE]`` that suppresses nothing is debt: it documents
a finding that no longer exists (the code was fixed, or the rule
changed) and it will silently swallow the *next* finding that lands on
its line.  The engine records every suppression comment and marks the
ones that earned their keep; this rule flags the rest.

Fairness rules:

* a bracketed suppression is only judged when every registered code it
  names actually ran (``--select API`` must not flag an unused
  ``noqa[DET001]``);
* a blanket ``# repro: noqa`` is only judged on full-catalog runs;
* codes that are not registered at all are always flagged — they can
  never suppress anything;
* NOQ001 findings are warnings, and are themselves **not** suppressible:
  the fix is deleting the comment, not stacking another one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_REGISTRY, Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.program import Program


@register_rule
class UnusedSuppressionRule(Rule):
    """NOQ001: every noqa comment must suppress a live finding."""

    code = "NOQ001"
    summary = "a # repro: noqa comment that suppresses nothing (delete it)"
    severity = "warning"
    #: Runs after every other rule's findings have marked usage.
    finish_priority = 100
    suppressible = False

    def finish(self, program: "Program") -> Iterator[Finding]:
        registered = frozenset(RULE_REGISTRY)
        for record in program.suppressions:
            if record.used_codes:
                continue
            if record.codes is None:
                if not program.complete:
                    continue
                message = (
                    "blanket '# repro: noqa' suppresses nothing; delete it"
                )
            else:
                known = record.codes & registered
                if known and not known <= program.ran_codes:
                    continue  # those rules did not run; cannot judge
                unknown = record.codes - registered
                listed = ",".join(sorted(record.codes))
                if unknown:
                    names = ", ".join(sorted(unknown))
                    message = (
                        f"'# repro: noqa[{listed}]' names unregistered "
                        f"code(s) {names} and suppresses nothing; delete "
                        "or fix it"
                    )
                else:
                    message = (
                        f"'# repro: noqa[{listed}]' suppresses nothing; "
                        "delete it"
                    )
            yield Finding(
                path=record.path,
                line=record.line,
                col=0,
                code=self.code,
                message=message,
                severity=self.severity,
            )
