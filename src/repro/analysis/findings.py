"""The lint engine's finding model."""

from __future__ import annotations

from dataclasses import dataclass

#: Recognized severities, strongest first.  ``error`` findings gate CI;
#: ``warning`` findings (the suppression audit) inform but still fail the
#: run so they cannot silently accumulate.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, anchored to a source location.

    Ordering is (path, line, col, code) so reporter output is stable
    regardless of rule evaluation order; ``severity`` participates last
    and defaults to ``error`` so pre-severity call sites are unchanged.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        """The conventional one-line ``path:line:col: CODE message`` form
        (warnings carry an explicit ``warning:`` tag)."""
        tag = "" if self.severity == "error" else f"{self.severity}: "
        return (
            f"{self.path}:{self.line}:{self.col}: {tag}{self.code} "
            f"{self.message}"
        )
