"""Static configuration validators (pre-simulation consistency checks).

Pure functions that inspect a built-but-not-yet-driven system — a
:class:`~repro.net.topology.Topology`, a traffic steering application's
policy chains, switch flow tables, pattern sets, instance configs — and
return :class:`ValidationIssue` lists.  Nothing here mutates state or
sends packets; everything is checkable *before traffic flows*, which is
exactly when misconfigured steering is still cheap to fix.

The validators are intentionally structural (duck-typed over the public
attributes of the objects they check) so this module imports none of the
simulation modules — the simulation modules import *it* for their
``validate=True`` entry-point defaults.  ``repro-dpi check`` renders the
issues as text (:func:`format_issues`) or JSON (:func:`render_issues_json`).

Issue catalog:

==========  =========  ====================================================
TOPO001     error      node with no attached link (isolated)
TOPO002     error      topology graph is disconnected
TOPO003     error      duplicate host IP address
CHAIN001    error      chain middlebox type with no registered instance
CHAIN002    error      two chains' tag blocks overlap
CHAIN003    error      traffic assignment references an unknown host
CHAIN004    warning    chain carries no traffic assignment
CHAIN005    warning    chain has no allocated chain id
STEER001    error      steering entry installed but not compiled (orphan)
STEER002    error      compiled steering rule not installed
FLOW001     warning    same-priority overlapping matches on one switch
FLOW002     error      duplicate rule (identical match, same priority)
PAT001      warning    duplicate pattern content within one middlebox set
PAT002      error      empty pattern
PAT003      warning    registered middlebox with an empty pattern set
CFG001      error      chain map references a middlebox without a config
LOAD001     error      unknown traffic profile or mix name
LOAD002     error      non-positive flow count / packet cap / instance count
LOAD003     error      ramp schedule never terminates (epochs/epoch length)
LOAD004     error      non-positive SLO or modeled service rate
LOAD005     warning    peak flow target below the initial instance count
==========  =========  ====================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.core.controller import DPIController
    from repro.core.instance import InstanceConfig
    from repro.core.patterns import Pattern
    from repro.net.steering import TrafficSteeringApplication
    from repro.net.topology import Topology


class Severity(enum.Enum):
    """How bad an issue is: errors block, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class ValidationIssue:
    """One consistency problem found by a validator."""

    code: str
    severity: Severity
    subject: str
    message: str

    def render(self) -> str:
        """``SEVERITY CODE subject: message`` on one line."""
        return (
            f"{self.severity.value.upper():7} {self.code} "
            f"{self.subject}: {self.message}"
        )


def errors_in(issues: Iterable[ValidationIssue]) -> list[ValidationIssue]:
    """Only the error-severity issues."""
    return [issue for issue in issues if issue.severity is Severity.ERROR]


def format_issues(issues: Sequence[ValidationIssue]) -> str:
    """A readable multi-line report, errors first."""
    ordered = sorted(issues, key=lambda i: (i.severity.value, i.code, i.subject))
    lines = [issue.render() for issue in ordered]
    error_count = len(errors_in(issues))
    warning_count = len(issues) - error_count
    lines.append(f"{error_count} error(s), {warning_count} warning(s)")
    return "\n".join(lines) + "\n"


def render_issues_json(issues: Sequence[ValidationIssue]) -> str:
    """A validator report as a stable JSON document::

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
        "version": 1,
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


class ValidationError(KeyError, ValueError):
    """Raised by ``validate=True`` entry points on error-severity issues.

    Subclasses both :class:`KeyError` and :class:`ValueError` so callers
    that predate the validators (and caught the ad-hoc exceptions the
    entry points used to raise mid-flight) keep working unchanged.
    """

    def __init__(self, issues: Sequence[ValidationIssue]) -> None:
        self.issues: list[ValidationIssue] = list(issues)
        super().__init__(format_issues(self.issues))

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; report verbatim instead.
        return self.args[0] if self.args else ""


def raise_on_errors(issues: Sequence[ValidationIssue]) -> None:
    """Raise :class:`ValidationError` if any issue is an error."""
    errors = errors_in(issues)
    if errors:
        raise ValidationError(errors)


# --- topology ---------------------------------------------------------------


def validate_topology(topology: "Topology") -> list[ValidationIssue]:
    """Structural checks on a built topology."""
    issues: list[ValidationIssue] = []
    adjacency = topology.adjacency
    for name in sorted(adjacency):
        if not adjacency[name]:
            issues.append(
                ValidationIssue(
                    code="TOPO001",
                    severity=Severity.ERROR,
                    subject=name,
                    message="node has no attached link; traffic can never "
                    "reach or leave it",
                )
            )
    components = _components(adjacency)
    if len(components) > 1:
        issues.append(
            ValidationIssue(
                code="TOPO002",
                severity=Severity.ERROR,
                subject="topology",
                message=f"graph is disconnected: components {components}",
            )
        )
    by_ip: dict[Any, list[str]] = {}
    for name in sorted(topology.hosts):
        by_ip.setdefault(topology.hosts[name].ip, []).append(name)
    for ip, names in sorted(by_ip.items(), key=lambda kv: str(kv[0])):
        if len(names) > 1:
            issues.append(
                ValidationIssue(
                    code="TOPO003",
                    severity=Severity.ERROR,
                    subject=",".join(names),
                    message=f"duplicate host IP {ip}; delivery is ambiguous",
                )
            )
    return issues


def _components(adjacency: dict[str, dict[str, int]]) -> list[list[str]]:
    """The connected components, each sorted, in sorted order."""
    seen: set[str] = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            for peer in adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        components.append(sorted(component))
    return sorted(components)


# --- policy chains ----------------------------------------------------------


def _tag_block(chain: Any) -> tuple[int, int] | None:
    """The inclusive tags ``c .. c+n`` a chain of *n* hops uses (one per
    segment; only these can collide, not the rest of its stride), or None
    when unallocated."""
    if chain.chain_id is None:
        return None
    return (chain.chain_id, chain.chain_id + len(chain.middlebox_types))


def validate_chains(tsa: "TrafficSteeringApplication") -> list[ValidationIssue]:
    """Pre-realization checks on policy chains and traffic assignments."""
    issues: list[ValidationIssue] = []
    topology = tsa.topology
    assigned_chains = {assignment.chain_name for assignment in tsa.assignments}
    blocks: list[tuple[str, tuple[int, int]]] = []
    for name in sorted(tsa.chains):
        chain = tsa.chains[name]
        for middlebox_type in chain.middlebox_types:
            if not tsa.instances_of(middlebox_type):
                issues.append(
                    ValidationIssue(
                        code="CHAIN001",
                        severity=Severity.ERROR,
                        subject=name,
                        message=f"middlebox type {middlebox_type!r} has no "
                        "registered instance; the chain is unreachable",
                    )
                )
        block = _tag_block(chain)
        if block is None:
            issues.append(
                ValidationIssue(
                    code="CHAIN005",
                    severity=Severity.WARNING,
                    subject=name,
                    message="chain has no allocated chain id; register it "
                    "through add_policy_chain",
                )
            )
        else:
            blocks.append((name, block))
        if name not in assigned_chains:
            issues.append(
                ValidationIssue(
                    code="CHAIN004",
                    severity=Severity.WARNING,
                    subject=name,
                    message="chain has no traffic assignment; its rules "
                    "would steer nothing",
                )
            )
    for index, (name_a, block_a) in enumerate(blocks):
        for name_b, block_b in blocks[index + 1 :]:
            if block_a[0] <= block_b[1] and block_b[0] <= block_a[1]:
                issues.append(
                    ValidationIssue(
                        code="CHAIN002",
                        severity=Severity.ERROR,
                        subject=f"{name_a},{name_b}",
                        message=f"tag blocks overlap ({block_a} vs "
                        f"{block_b}); packets of one chain would match "
                        "the other's rules",
                    )
                )
    known_nodes = set(topology.hosts)
    for assignment in tsa.assignments:
        for role, host in (
            ("src", assignment.src_host),
            ("dst", assignment.dst_host),
        ):
            if host not in known_nodes:
                issues.append(
                    ValidationIssue(
                        code="CHAIN003",
                        severity=Severity.ERROR,
                        subject=assignment.chain_name,
                        message=f"assignment {role} host {host!r} is not in "
                        "the topology",
                    )
                )
    return issues


# --- steering rules ---------------------------------------------------------


def _steering_issue(
    code: str, rows: list[tuple[str, Any, Any]], what: str
) -> ValidationIssue:
    """One issue over the ``(switch, match, actions)`` rows of a diff side,
    naming the VLAN tags they match, push or set."""
    tags: set[int] = set()
    untagged = 0
    for _, match, actions in rows:
        found = {
            action.argument for action in actions
            if action.type.name in ("PUSH_VLAN", "SET_VLAN_VID")
        }
        if match.vlan_vid not in (None, match.NO_VLAN):
            found.add(match.vlan_vid)
        tags |= found
        untagged += not found
    named = [f"VLAN tag(s) {', '.join(map(str, sorted(tags)))}"] if tags else []
    named += [f"{untagged} untagged"] if untagged else []
    return ValidationIssue(
        code=code,
        severity=Severity.ERROR,
        subject=",".join(sorted({switch for switch, _, _ in rows})),
        message=f"{len(rows)} rule(s) ({'; '.join(named)}) {what}",
    )


def validate_steering(tsa: "TrafficSteeringApplication") -> list[ValidationIssue]:
    """Post-realization check: the installed steering entries must be
    exactly what the TSA's inputs compile to (STEER001: installed, not
    compiled; STEER002: compiled, not installed)."""
    stale, missing = tsa.diff(tsa.compile())
    issues: list[ValidationIssue] = []
    if stale:
        rows = [(switch, e.match, e.actions) for switch, e in stale]
        what = "installed but compiled from no chain (orphan steering rule)"
        issues.append(_steering_issue("STEER001", rows, what))
    if missing:
        rows = [(switch, match, acts) for switch, (_, match, acts) in missing]
        what = "compiled but not installed; steered traffic would miss them"
        issues.append(_steering_issue("STEER002", rows, what))
    return issues


# --- flow tables ------------------------------------------------------------


def _matches_overlap(match_a: Any, match_b: Any) -> bool:
    """True unless some field pins both matches to different values."""
    for field in dataclass_fields(match_a):
        value_a = getattr(match_a, field.name)
        value_b = getattr(match_b, field.name)
        if value_a is not None and value_b is not None and value_a != value_b:
            return False
    return True


def validate_flow_tables(topology: "Topology") -> list[ValidationIssue]:
    """Ambiguity checks over every switch's installed flow table."""
    issues: list[ValidationIssue] = []
    for switch_name in sorted(topology.switches):
        entries = list(topology.switches[switch_name].table)
        by_priority: dict[int, list[Any]] = {}
        for entry in entries:
            by_priority.setdefault(entry.priority, []).append(entry)
        for priority in sorted(by_priority):
            peers = by_priority[priority]
            for index, entry_a in enumerate(peers):
                for entry_b in peers[index + 1 :]:
                    if entry_a.match == entry_b.match:
                        issues.append(
                            ValidationIssue(
                                code="FLOW002",
                                severity=Severity.ERROR,
                                subject=switch_name,
                                message=f"duplicate rules at priority "
                                f"{priority} (entries {entry_a.entry_id} and "
                                f"{entry_b.entry_id}); the later one is dead",
                            )
                        )
                    elif _matches_overlap(entry_a.match, entry_b.match):
                        issues.append(
                            ValidationIssue(
                                code="FLOW001",
                                severity=Severity.WARNING,
                                subject=switch_name,
                                message=f"rules {entry_a.entry_id} and "
                                f"{entry_b.entry_id} overlap at equal "
                                f"priority {priority}; match order decides "
                                "which wins",
                            )
                        )
    return issues


# --- patterns ---------------------------------------------------------------


def validate_pattern_list(
    patterns: Iterable["Pattern | bytes"],
) -> list[ValidationIssue]:
    """Checks over a raw pattern collection (e.g. a parsed pattern file)."""
    issues: list[ValidationIssue] = []
    seen: dict[tuple[Any, bytes], int] = {}
    for index, pattern in enumerate(patterns):
        if isinstance(pattern, bytes):
            kind, data = "literal", pattern
            label = f"pattern[{index}]"
        else:
            kind, data = pattern.kind, pattern.data
            label = f"pattern[{pattern.pattern_id}]"
        if not data:
            issues.append(
                ValidationIssue(
                    code="PAT002",
                    severity=Severity.ERROR,
                    subject=label,
                    message="empty pattern; it would match at every byte",
                )
            )
            continue
        key = (kind, data)
        if key in seen:
            issues.append(
                ValidationIssue(
                    code="PAT001",
                    severity=Severity.WARNING,
                    subject=label,
                    message=f"duplicate of pattern[{seen[key]}] after "
                    "dedup; drop one copy",
                )
            )
        else:
            seen[key] = index
    return issues


def validate_pattern_registry(
    controller: "DPIController",
) -> list[ValidationIssue]:
    """Checks over the controller's registered middlebox pattern sets."""
    issues: list[ValidationIssue] = []
    for middlebox_id in controller.middlebox_ids:
        pattern_set = controller.pattern_set_of(middlebox_id)
        if len(pattern_set) == 0:
            issues.append(
                ValidationIssue(
                    code="PAT003",
                    severity=Severity.WARNING,
                    subject=f"middlebox-{middlebox_id}",
                    message="registered middlebox has an empty pattern set; "
                    "its packets are scanned for nothing",
                )
            )
            continue
        seen: dict[tuple[Any, bytes], int] = {}
        for pattern in pattern_set:
            key = pattern.canonical_key
            if key in seen:
                issues.append(
                    ValidationIssue(
                        code="PAT001",
                        severity=Severity.WARNING,
                        subject=f"middlebox-{middlebox_id}",
                        message=f"patterns {seen[key]} and "
                        f"{pattern.pattern_id} carry identical content; "
                        "the duplicate costs automaton states for nothing",
                    )
                )
            else:
                seen[key] = pattern.pattern_id
    return issues


# --- instance configuration -------------------------------------------------


def validate_instance_config(config: "InstanceConfig") -> list[ValidationIssue]:
    """Consistency of one instance configuration before it is deployed."""
    issues: list[ValidationIssue] = []
    for chain_id in sorted(config.chain_map):
        for middlebox_id in config.chain_map[chain_id]:
            missing = []
            if middlebox_id not in config.pattern_sets:
                missing.append("pattern set")
            if middlebox_id not in config.profiles:
                missing.append("profile")
            if missing:
                issues.append(
                    ValidationIssue(
                        code="CFG001",
                        severity=Severity.ERROR,
                        subject=f"chain-{chain_id}",
                        message=f"middlebox {middlebox_id} is on the chain "
                        f"but has no {' or '.join(missing)} in the config",
                    )
                )
    return issues


# --- load specifications ----------------------------------------------------


def _as_number(value: Any) -> float | None:
    """*value* as a float when it is a real number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def validate_load_spec(
    document: Any,
    *,
    profile_names: Sequence[str] = (),
    ramp_kinds: Sequence[str] = (),
) -> list[ValidationIssue]:
    """Consistency of a load-profile document (``LoadSpec.to_dict`` shape).

    Structural on purpose: takes the plain-dict JSON form, not the
    :class:`~repro.load.profiles.LoadSpec` dataclass, so this module keeps
    importing none of the subsystems that import *it*.  ``profile_names``
    and ``ramp_kinds`` carry the caller's vocabulary (pass
    ``repro.load.profiles.profile_vocabulary()`` / ``RAMP_KINDS``); empty
    sequences skip the corresponding name checks.
    """
    issues: list[ValidationIssue] = []
    if not isinstance(document, dict):
        return [
            ValidationIssue(
                code="LOAD002",
                severity=Severity.ERROR,
                subject="load-spec",
                message=f"load spec must be a JSON object, got "
                f"{type(document).__name__}",
            )
        ]

    mix = document.get("profile_mix", "mixed")
    if profile_names and mix not in profile_names:
        issues.append(
            ValidationIssue(
                code="LOAD001",
                severity=Severity.ERROR,
                subject=str(mix),
                message=f"unknown traffic profile or mix {mix!r} "
                f"(known: {', '.join(profile_names)})",
            )
        )

    for field_name in ("flows", "max_packets_per_epoch", "initial_instances"):
        raw = document.get(field_name)
        if raw is None:
            continue
        value = _as_number(raw)
        if value is None or value < 1 or value != int(value):
            issues.append(
                ValidationIssue(
                    code="LOAD002",
                    severity=Severity.ERROR,
                    subject=field_name,
                    message=f"{field_name} must be a positive integer, "
                    f"got {raw!r}",
                )
            )

    epochs = _as_number(document.get("epochs", 1))
    epoch_seconds = _as_number(document.get("epoch_seconds", 0.1))
    if (
        epochs is None
        or epochs < 1
        or epochs != int(epochs)
        or epochs != epochs  # NaN guard
        or epochs == float("inf")
    ):
        issues.append(
            ValidationIssue(
                code="LOAD003",
                severity=Severity.ERROR,
                subject="epochs",
                message=f"ramp never terminates: epochs must be a positive "
                f"finite integer, got {document.get('epochs')!r}",
            )
        )
    if epoch_seconds is None or not epoch_seconds > 0:
        issues.append(
            ValidationIssue(
                code="LOAD003",
                severity=Severity.ERROR,
                subject="epoch_seconds",
                message=f"ramp never terminates: epoch_seconds must be > 0, "
                f"got {document.get('epoch_seconds')!r}",
            )
        )
    ramp = document.get("ramp", {})
    if isinstance(ramp, dict):
        kind = ramp.get("kind", "constant")
        if ramp_kinds and kind not in ramp_kinds:
            issues.append(
                ValidationIssue(
                    code="LOAD003",
                    severity=Severity.ERROR,
                    subject="ramp",
                    message=f"unknown ramp kind {kind!r} "
                    f"(known: {', '.join(ramp_kinds)})",
                )
            )
        period = _as_number(ramp.get("period", 4))
        if kind == "burst" and (period is None or period < 1):
            issues.append(
                ValidationIssue(
                    code="LOAD003",
                    severity=Severity.ERROR,
                    subject="ramp",
                    message=f"burst ramp period must be >= 1, "
                    f"got {ramp.get('period')!r}",
                )
            )
    else:
        issues.append(
            ValidationIssue(
                code="LOAD003",
                severity=Severity.ERROR,
                subject="ramp",
                message=f"ramp must be a JSON object, got {ramp!r}",
            )
        )

    for field_name in ("slo_ms", "rate_mbps"):
        raw = document.get(field_name)
        if raw is None:
            continue
        value = _as_number(raw)
        if value is None or not value > 0:
            issues.append(
                ValidationIssue(
                    code="LOAD004",
                    severity=Severity.ERROR,
                    subject=field_name,
                    message=f"{field_name} must be a positive number, "
                    f"got {raw!r}",
                )
            )

    flows = _as_number(document.get("flows", 0))
    instances = _as_number(document.get("initial_instances", 1))
    if (
        flows is not None
        and instances is not None
        and flows >= 1
        and instances >= 1
        and flows < instances
    ):
        issues.append(
            ValidationIssue(
                code="LOAD005",
                severity=Severity.WARNING,
                subject="flows",
                message=f"peak flow target {int(flows)} is below the "
                f"initial instance count {int(instances)}; instances will "
                "idle from epoch 0",
            )
        )
    return issues


# --- aggregate --------------------------------------------------------------


def validate_scenario(
    topology: "Topology | None" = None,
    tsa: "TrafficSteeringApplication | None" = None,
    controller: "DPIController | None" = None,
) -> list[ValidationIssue]:
    """Run every applicable validator over a built scenario."""
    issues: list[ValidationIssue] = []
    if topology is not None:
        issues.extend(validate_topology(topology))
        issues.extend(validate_flow_tables(topology))
    if tsa is not None:
        issues.extend(validate_chains(tsa))
        issues.extend(validate_steering(tsa))
    if controller is not None:
        issues.extend(validate_pattern_registry(controller))
        for instance in controller.instances.values():
            issues.extend(validate_instance_config(instance.config))
    return issues
