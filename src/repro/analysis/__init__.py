"""Static analysis for the DPI-as-a-service reproduction.

Three pillars keep the growing codebase trustworthy *before* traffic
flows (see DESIGN.md section 9):

* a custom AST **lint engine** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`) that machine-enforces project invariants
  the simulator relies on — sim-clock discipline, deterministic
  iteration order, bounded telemetry label cardinality, immutable
  defaults and the scan-kernel contract surface — behind
  ``repro-dpi lint``;
* a module-level **call graph** (:mod:`repro.analysis.callgraph`) under
  the lint engine, powering transitive determinism taint (DET003), see
  DESIGN.md section 9;
* pure **static config validators** (:mod:`repro.analysis.validators`)
  that check a topology / policy-chain / flow-table / pattern-set
  combination for consistency before a simulation runs, behind
  ``repro-dpi check`` and ``validate=True`` entry-point defaults;
* reporters (:mod:`repro.analysis.reporters`) rendering findings as
  human-readable text or a stable JSON schema for CI.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import LintEngine, lint_paths, lint_source
from repro.analysis.findings import Finding
from repro.analysis.program import Program
from repro.analysis.reporters import render_issues_json, render_json, render_text
from repro.analysis.rules import RULE_REGISTRY, default_rules
from repro.analysis.validators import (
    Severity,
    ValidationError,
    ValidationIssue,
    errors_in,
    format_issues,
    validate_chains,
    validate_flow_tables,
    validate_instance_config,
    validate_load_spec,
    validate_pattern_list,
    validate_pattern_registry,
    validate_scenario,
    validate_steering,
    validate_topology,
)

__all__ = [
    "CallGraph",
    "Finding",
    "LintEngine",
    "Program",
    "RULE_REGISTRY",
    "Severity",
    "ValidationError",
    "ValidationIssue",
    "default_rules",
    "errors_in",
    "format_issues",
    "lint_paths",
    "lint_source",
    "render_issues_json",
    "render_json",
    "render_text",
    "validate_chains",
    "validate_flow_tables",
    "validate_instance_config",
    "validate_load_spec",
    "validate_pattern_list",
    "validate_pattern_registry",
    "validate_scenario",
    "validate_steering",
    "validate_topology",
]
