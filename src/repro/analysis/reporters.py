"""Finding reporters: human-readable text and a stable JSON schema."""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.findings import Finding
from repro.analysis.validators import ValidationIssue, errors_in

#: Schema version of the JSON report; bump on incompatible changes.
JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary line, sorted and stable."""
    lines = [finding.render() for finding in sorted(findings)]
    if lines:
        by_code: dict[str, int] = {}
        for finding in findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        )
        lines.append(f"{len(findings)} finding(s) ({breakdown})")
    else:
        lines.append("no findings")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    """A JSON document::

        {
          "version": 1,
          "counts": {"DET001": 2, ...},
          "findings": [
            {"path": ..., "line": ..., "col": ..., "code": ...,
             "message": ..., "severity": "error" | "warning"},
            ...
          ]
        }

    Findings are sorted by (path, line, col, code); ``counts`` is keyed
    by rule code.  The schema is covered by tests — CI consumers may
    rely on it.  (``severity`` was added with NOQ001 as
    a compatible extension, so the version stays 1.)
    """
    ordered = sorted(findings)
    counts: dict[str, int] = {}
    for finding in ordered:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    document = {
        "version": JSON_SCHEMA_VERSION,
        "counts": dict(sorted(counts.items())),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "code": finding.code,
                "message": finding.message,
                "severity": finding.severity,
            }
            for finding in ordered
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_issues_json(issues: Sequence[ValidationIssue]) -> str:
    """JSON form of a validator report, mirroring :func:`render_json`::

        {
          "version": 1,
          "errors": 2,
          "warnings": 1,
          "issues": [
            {"code": ..., "severity": ..., "subject": ..., "message": ...},
            ...
          ]
        }
    """
    ordered = sorted(issues, key=lambda i: (i.severity.value, i.code, i.subject))
    error_count = len(errors_in(issues))
    document = {
        "version": JSON_SCHEMA_VERSION,
        "errors": error_count,
        "warnings": len(issues) - error_count,
        "issues": [
            {
                "code": issue.code,
                "severity": issue.severity.value,
                "subject": issue.subject,
                "message": issue.message,
            }
            for issue in ordered
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
